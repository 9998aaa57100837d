"""DynCaPI: startup patching per IC + measurement-tool bridges."""

from repro.dyncapi.handlers import CygProfileDispatcher
from repro.dyncapi.runtime import DynCapi, ProcessState, StartupReport, process_state
from repro.dyncapi.scorep_bridge import ScorePBridge
from repro.dyncapi.symbols import (
    IdNameMap,
    SymbolTriple,
    build_id_name_map,
    collect_all_symbols,
    collect_object_symbols,
)
from repro.dyncapi.talp_bridge import TalpBridge

__all__ = [
    "CygProfileDispatcher",
    "DynCapi",
    "IdNameMap",
    "ProcessState",
    "ScorePBridge",
    "StartupReport",
    "SymbolTriple",
    "TalpBridge",
    "build_id_name_map",
    "collect_all_symbols",
    "collect_object_symbols",
    "process_state",
]
