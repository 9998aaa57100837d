"""The legacy static instrumentation workflow (paper §I, §VII-A).

Before the XRay extension, every IC change required recompiling the
target: the IC file is consumed at compile time, measurement hooks are
emitted directly into the binary, and the result is a dedicated build
per configuration.  We model the workflow's *cost structure* — a
rebuild charge proportional to the translation-unit count — and its
*artefact* — a linked program whose selected functions are permanently
instrumented (their sleds patched at load, immutable afterwards).

The turnaround ablation (AB3 in DESIGN.md) compares N refinement
iterations under this workflow against DynCaPI re-patching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ic import InstrumentationConfig
from repro.errors import CapiError
from repro.program.compiler import Compiler, CompilerConfig
from repro.program.ir import SourceProgram
from repro.program.linker import LinkedProgram, Linker

#: virtual seconds to recompile one translation unit.  Calibrated so the
#: openfoam-like generator at paper scale lands near the paper's
#: "approx. 50 minutes for a full recompilation" (§VII-A).
REBUILD_SECONDS_PER_TU = 2.2
#: constant build-system overhead per rebuild (configure, link, install)
REBUILD_BASE_SECONDS = 45.0


@dataclass
class StaticBuild:
    """One statically instrumented build."""

    linked: LinkedProgram
    ic: InstrumentationConfig
    rebuild_seconds: float


@dataclass
class StaticInstrumenter:
    """Compile-time instrumentation: one full rebuild per IC."""

    program: SourceProgram
    compiler_config: CompilerConfig = field(default_factory=CompilerConfig)
    #: cumulative virtual rebuild time across refinement iterations
    total_rebuild_seconds: float = 0.0
    builds: int = 0

    def build(self, ic: InstrumentationConfig) -> StaticBuild:
        """Recompile the whole program with the IC applied.

        The compiler itself is identical; static instrumentation means
        sleds are conceptually replaced by direct hook calls, so only
        the selected functions are instrumentable at all — changing the
        set requires calling :meth:`build` again.
        """
        compiled = Compiler(self.compiler_config).compile(self.program)
        for mf in compiled.machine_functions.values():
            mf.xray_instrumented = mf.xray_instrumented and mf.name in ic
        linked = Linker().link(compiled)
        cost = self.rebuild_cost_seconds()
        self.total_rebuild_seconds += cost
        self.builds += 1
        return StaticBuild(linked=linked, ic=ic, rebuild_seconds=cost)

    def rebuild_cost_seconds(self) -> float:
        """Virtual cost of one full rebuild."""
        n_tus = len(self.program.translation_units)
        return REBUILD_BASE_SECONDS + REBUILD_SECONDS_PER_TU * n_tus

    def adjust(self, build: StaticBuild, new_ic: InstrumentationConfig) -> StaticBuild:
        """Change the IC — only possible through a full rebuild."""
        if new_ic.functions == build.ic.functions:
            raise CapiError("IC unchanged; adjustment would rebuild needlessly")
        return self.build(new_ic)
