"""The high-level CaPI driver: spec → selection → post-processing → IC.

This is the paper's Fig. 1 "Select" stage: given a whole-program call
graph and a selection specification, evaluate the pipeline, then (when
the target binaries are available) run the inlining-compensation
post-processing, producing the final instrumentation configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cg.graph import CallGraph
from repro.core.ic import ICProvenance, InstrumentationConfig
from repro.core.inlining import CompensationResult, compensate_inlining
from repro.core.pipeline import (
    SelectionResult,
    compile_spec,
    evaluate_compiled,
    evaluate_pipeline,
)
from repro.core.selectors.base import CrossRunCache
from repro.core.spec.modules import load_spec, load_spec_file
from repro.program.linker import LinkedProgram

#: FIFO cap on the per-Capi selection-outcome memo (entries strongly
#: reference linked program images)
_MEMO_CAP = 64


@dataclass
class CapiOutcome:
    """Everything a selection run produced — one Table I row."""

    ic: InstrumentationConfig
    selection: SelectionResult
    compensation: CompensationResult | None = None

    @property
    def selected_pre(self) -> int:
        return self.ic.provenance.selected_pre

    @property
    def selected_final(self) -> int:
        """#selected in the paper: after inlined functions are removed."""
        return len(self.ic.functions) - self.ic.provenance.added_compensation

    @property
    def added(self) -> int:
        return self.ic.provenance.added_compensation


@dataclass
class Capi:
    """CaPI configured for one target application.

    Whole selection outcomes are memoised per instance, keyed by the
    graph version — repeated ``select``/``select_all`` sweeps over an
    unchanged graph (rank sweeps, the Table I/II harnesses) are
    near-free, while any graph mutation transparently re-evaluates.
    Every *evaluated* (non-memo-hit) selection runs in a fresh context
    without cross-run sharing, so its ``selection_seconds`` provenance
    — Table I's time column — always measures one full evaluation.
    (Callers wanting sub-expression sharing across different specs can
    pass a :class:`~repro.core.selectors.base.CrossRunCache` to
    :func:`~repro.core.pipeline.evaluate_pipeline` directly.)
    """

    graph: CallGraph
    app_name: str = ""
    search_paths: list[Path] = field(default_factory=list)
    #: (spec source, spec name) -> (linked object, outcome); entries hold
    #: a strong reference to ``linked`` and are compared by identity, so
    #: a recycled ``id()`` can never alias a dead program.  The whole
    #: table is dropped when the graph version moves (no unbounded
    #: growth across mutations).  The table is additionally FIFO-capped
    #: at ``_MEMO_CAP`` entries so a caller re-linking per iteration
    #: cannot pin unbounded linked images.  Instances with
    #: ``search_paths`` skip the outcome memo entirely: ``!import``-ed
    #: modules may change on disk between calls.
    _outcomes: dict = field(default_factory=dict, repr=False)
    _outcomes_version: int = field(default=-1, repr=False)
    #: refinement state: compiled specs are graph-independent (plain
    #: LRU), and the cross-run cache rides the delta-aware invalidation
    #: of :class:`CrossRunCache` across graph edits
    _refine_compiled: dict = field(default_factory=dict, repr=False)
    _refine_cache: CrossRunCache | None = field(default=None, repr=False)

    def select(
        self,
        spec_source: str,
        *,
        spec_name: str = "",
        linked: LinkedProgram | None = None,
    ) -> CapiOutcome:
        """Run a specification given as source text.

        When ``linked`` binaries are supplied, inlining compensation is
        applied (it needs the symbol tables); otherwise the raw pipeline
        result becomes the IC.
        """
        memoize = not self.search_paths
        # id(linked) is safe in the key because the entry's strong
        # reference keeps the object alive — a recycled id can never
        # alias; the identity check below is belt-and-braces
        memo_key = (spec_source, spec_name, id(linked))
        if memoize:
            if self._outcomes_version != self.graph.version:
                self._outcomes.clear()
                self._outcomes_version = self.graph.version
            hit = self._outcomes.get(memo_key)
            if hit is not None and hit[0] is linked:
                return hit[1]
        spec = load_spec(spec_source, search_paths=self.search_paths)
        outcome = self._outcome(spec, spec_name, linked)
        if memoize:
            self._outcomes[memo_key] = (linked, outcome)
            while len(self._outcomes) > _MEMO_CAP:
                self._outcomes.pop(next(iter(self._outcomes)))
        return outcome

    def refine(
        self,
        spec_source: str,
        *,
        spec_name: str = "",
    ) -> SelectionResult:
        """Iterative refinement query through the compile/evaluate split.

        Where :meth:`select` deliberately evaluates in a fresh context —
        its ``selection_seconds`` provenance is Table I's time column and
        must measure one full evaluation — ``refine`` is the fast path
        for interactive spec iteration: the compiled spec is LRU-cached,
        evaluation runs against the graph's warm
        :class:`~repro.cg.csr.CsrSnapshot` (delta-refreshed across small
        edits), and a per-instance
        :class:`~repro.core.selectors.base.CrossRunCache` shares
        sub-expression results between successive refinements, keeping
        whatever the mutation journal proves untouched.  Results are
        identical to :meth:`select` on the same source; only the timing
        provenance differs in meaning (time-to-answer, not
        cost-of-selection).
        """
        key = (spec_source, spec_name)
        memoize = not self.search_paths
        compiled = self._refine_compiled.get(key) if memoize else None
        if compiled is None:
            spec = load_spec(spec_source, search_paths=self.search_paths)
            compiled = compile_spec(spec, spec_name=spec_name)
            if memoize:
                self._refine_compiled[key] = compiled
                while len(self._refine_compiled) > _MEMO_CAP:
                    self._refine_compiled.pop(next(iter(self._refine_compiled)))
        if self._refine_cache is None:
            self._refine_cache = CrossRunCache()
        return evaluate_compiled(
            compiled, self.graph.csr(), cross_run=self._refine_cache
        )

    def select_file(
        self,
        spec_path: str | Path,
        *,
        linked: LinkedProgram | None = None,
    ) -> CapiOutcome:
        """Run a specification from a ``.capi`` file."""
        spec_path = Path(spec_path)
        spec = load_spec_file(spec_path, search_paths=self.search_paths)
        # no whole-outcome memo here: the file may change on disk
        return self._outcome(spec, spec_path.stem, linked)

    def _outcome(
        self, spec, spec_name: str, linked: LinkedProgram | None
    ) -> CapiOutcome:
        """Compile and evaluate a loaded spec in a fresh context, then
        compensate inlining when the ``linked`` binaries are given."""
        compiled = compile_spec(spec, spec_name=spec_name)
        selection = evaluate_pipeline(compiled.entry, self.graph)
        ic = InstrumentationConfig(
            functions=selection.selected,
            provenance=ICProvenance(
                spec_name=spec_name,
                app_name=self.app_name,
                selection_seconds=selection.duration_seconds,
                selected_pre=len(selection.selected),
            ),
        )
        compensation = None
        if linked is not None:
            compensation = compensate_inlining(ic, self.graph, linked)
            ic = compensation.ic
        return CapiOutcome(ic=ic, selection=selection, compensation=compensation)
