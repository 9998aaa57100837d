"""Unit tests for the rank-heterogeneous perturbation model."""

import pytest

from repro.errors import CapiError, SimMpiError
from repro.execution.workload import Workload
from repro.multirank.imbalance import ImbalanceSpec


class TestFactors:
    def test_uniform_spec_is_all_ones(self):
        spec = ImbalanceSpec()
        assert spec.uniform
        assert spec.factors(8) == (1.0,) * 8

    def test_deterministic_under_fixed_seed(self):
        a = ImbalanceSpec(imbalance=0.3, seed=42, stragglers=1, ramp=0.2)
        b = ImbalanceSpec(imbalance=0.3, seed=42, stragglers=1, ramp=0.2)
        assert a.factors(16) == b.factors(16)

    def test_different_seeds_decorrelate(self):
        a = ImbalanceSpec(imbalance=0.3, seed=1).factors(8)
        b = ImbalanceSpec(imbalance=0.3, seed=2).factors(8)
        assert a != b

    def test_rank0_is_reference(self):
        spec = ImbalanceSpec(imbalance=0.4, seed=5)
        assert spec.factors(8)[0] == 1.0

    def test_jitter_bounded(self):
        factors = ImbalanceSpec(imbalance=0.25, seed=3).factors(64)
        assert all(0.75 - 1e-9 <= f <= 1.0 for f in factors)

    def test_ramp_monotone_without_jitter(self):
        factors = ImbalanceSpec(ramp=0.5).factors(5)
        assert list(factors) == sorted(factors)
        assert factors[0] == 1.0
        assert factors[-1] == pytest.approx(1.5)

    def test_stragglers_never_hit_rank0(self):
        for seed in range(10):
            spec = ImbalanceSpec(stragglers=2, straggler_factor=2.0, seed=seed)
            assert spec.factors(6)[0] == 1.0

    def test_straggler_count_applied(self):
        spec = ImbalanceSpec(stragglers=2, straggler_factor=2.0, seed=9)
        assert sum(1 for f in spec.factors(8) if f == 2.0) == 2

    def test_single_rank_world(self):
        assert ImbalanceSpec(imbalance=0.5, ramp=1.0, stragglers=3).factors(1) == (1.0,)

    def test_validation(self):
        with pytest.raises(SimMpiError):
            ImbalanceSpec(imbalance=1.0)
        with pytest.raises(SimMpiError):
            ImbalanceSpec(ramp=-0.1)
        with pytest.raises(SimMpiError):
            ImbalanceSpec(stragglers=-1)
        with pytest.raises(SimMpiError):
            ImbalanceSpec(straggler_factor=0.0)
        with pytest.raises(SimMpiError):
            ImbalanceSpec().factors(0)


class TestWorkloads:
    def test_uniform_reuses_base_workload(self):
        base = Workload(site_cap=5)
        workloads = ImbalanceSpec().workloads_for(4, base)
        assert all(w is base for w in workloads)

    def test_factor_lands_in_root_scale(self):
        base = Workload(scale=2.0, root_scale=1.5)
        spec = ImbalanceSpec(ramp=0.5)
        workloads = spec.workloads_for(3, base)
        factors = spec.factors(3)
        for w, f in zip(workloads, factors):
            assert w.root_scale == pytest.approx(1.5 * f)
            # the compounding problem-size knob is never touched
            assert w.scale == 2.0
        # non-scale shaping fields are preserved
        assert workloads[-1].site_cap == base.site_cap
        assert workloads[-1].max_depth == base.max_depth

    def test_root_scale_changes_load_linearly(self):
        """A straggler at 1.5x runs ~1.5x the work, not exponentially more."""
        from repro.workflow import build_app, run_app
        from tests.conftest import make_demo_builder

        app = build_app(make_demo_builder().build(), xray=False)
        base = run_app(app, mode="vanilla", workload=Workload()).result
        heavy = run_app(
            app, mode="vanilla", workload=Workload(root_scale=1.5)
        ).result
        ratio = heavy.useful_cycles / base.useful_cycles
        assert 1.1 < ratio < 1.6


class TestScenarios:
    def test_named_scenarios_resolve(self):
        from repro.apps import SCENARIOS, scenario

        for name in SCENARIOS:
            assert scenario(name) is SCENARIOS[name]
        assert scenario("uniform").uniform
        assert not scenario("lulesh-imbalanced").uniform

    def test_unknown_scenario_rejected(self):
        from repro.apps import scenario

        with pytest.raises(CapiError, match="unknown scenario"):
            scenario("nope")


class TestSpineScalingLinearity:
    """root_scale must apply once, never compound along the spine."""

    def _nested_spine_app(self):
        from repro.program.builder import ProgramBuilder
        from repro.workflow import build_app

        b = ProgramBuilder("spine")
        b.tu("spine.cpp")
        # main -> run -> timeLoop is a once-per-run spine chain; the
        # iteration counts live two levels below main
        for name in ("main", "run", "timeLoop"):
            b.function(name, statements=10)
        b.function("kernel", statements=12, flops=500)
        b.chain(["main", "run", "timeLoop"])
        b.call("timeLoop", "kernel", count=20)
        return build_app(b.build(), xray=False)

    def _useful(self, app, root_scale):
        from repro.workflow import run_app

        wl = Workload(site_cap=64, root_scale=root_scale)
        return run_app(app, mode="vanilla", workload=wl).result.useful_cycles

    def test_straggler_factor_scales_linearly(self):
        app = self._nested_spine_app()
        base = self._useful(app, 1.0)
        heavy = self._useful(app, 1.6)
        # 20 kernel calls -> 32: work grows ~1.6x, NOT 1.6^spine-depth
        assert 1.3 < heavy / base < 1.7

    def test_small_factor_does_not_zero_the_run(self):
        app = self._nested_spine_app()
        base = self._useful(app, 1.0)
        light = self._useful(app, 0.4)
        # spine links (count 1) stay walked; only the timestep count shrinks
        assert 0.2 < light / base < 0.6

    def test_linear_under_nonunit_base_scale(self):
        """Spine membership is static: root_scale stays linear even when
        the compounding base scale is not 1."""
        from repro.workflow import run_app

        app = self._nested_spine_app()
        wl = dict(site_cap=64)
        base = run_app(
            app, mode="vanilla", workload=Workload(scale=1.5, **wl)
        ).result.useful_cycles
        light = run_app(
            app, mode="vanilla", workload=Workload(scale=1.5, root_scale=0.7, **wl)
        ).result.useful_cycles
        assert 0.6 < light / base < 0.8

    def test_pure_chain_warns_when_unscalable(self):
        """A program whose every site is a spine link cannot express
        imbalance — the engine says so instead of silently reporting
        LB == 1.0."""
        import warnings

        from repro.program.builder import ProgramBuilder
        from repro.workflow import build_app, run_app

        b = ProgramBuilder("chain")
        b.tu("c.cpp")
        for name in ("main", "a", "b"):
            b.function(name, statements=10)
        b.chain(["main", "a", "b"])
        app = build_app(b.build(), xray=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_app(app, mode="vanilla", workload=Workload(root_scale=1.5))
        assert any("root_scale" in str(w.message) for w in caught)
