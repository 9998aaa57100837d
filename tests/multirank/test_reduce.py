"""Unit tests for the cross-rank profile reducer and POP computation."""

import pytest

from repro.errors import CapiError
from repro.multirank.reduce import (
    RankStat,
    build_pop_report,
    flatten_merged,
    merge_profiles,
)
from repro.talp.pop import compute_pop_from_ranks


def _profile(name="ROOT", **kwargs):
    """Build a profile dict in ``profile_io.to_dict`` form."""
    node = {"name": name, "visits": kwargs.get("visits", 0),
            "inclusive_cycles": kwargs.get("cycles", 0.0),
            "children": kwargs.get("children", [])}
    return node


class TestRankStat:
    def test_min_max_avg_sum(self):
        s = RankStat.of([1.0, 2.0, 3.0, 10.0])
        assert s.min == 1.0
        assert s.max == 10.0
        assert s.sum == 16.0
        assert s.avg == 4.0

    def test_all_equal_pins_average_exactly(self):
        # 0.1 summed three times then divided is NOT 0.1 in binary fp;
        # the reducer pins the average so uniform worlds stay exact
        s = RankStat.of([0.1, 0.1, 0.1])
        assert s.avg == 0.1
        assert s.min == s.max == 0.1


class TestMergeProfiles:
    def test_empty_and_mixed(self):
        assert merge_profiles([]) is None
        assert merge_profiles([None, None]) is None
        with pytest.raises(CapiError):
            merge_profiles([_profile(), None])

    def test_stats_per_call_path(self):
        ranks = [
            _profile(children=[_profile("main", visits=1, cycles=100.0)]),
            _profile(children=[_profile("main", visits=1, cycles=300.0)]),
            _profile(children=[_profile("main", visits=3, cycles=200.0)]),
        ]
        merged = merge_profiles(ranks)
        main = merged.child("main")
        assert main.inclusive_cycles.min == 100.0
        assert main.inclusive_cycles.max == 300.0
        assert main.inclusive_cycles.sum == 600.0
        assert main.inclusive_cycles.avg == 200.0
        assert main.visits.sum == 5.0
        assert main.visits.max == 3.0

    def test_missing_call_path_counts_as_zero(self):
        ranks = [
            _profile(children=[_profile("main", visits=1, cycles=100.0,
                                        children=[_profile("kernel", visits=4, cycles=50.0)])]),
            _profile(children=[_profile("main", visits=1, cycles=80.0)]),
        ]
        merged = merge_profiles(ranks)
        kernel = merged.child("main").child("kernel")
        assert kernel.visits.min == 0.0
        assert kernel.visits.max == 4.0
        assert kernel.visits.sum == 4.0
        assert kernel.inclusive_cycles.avg == 25.0

    def test_union_of_children_sorted(self):
        ranks = [
            _profile(children=[_profile("b"), _profile("a")]),
            _profile(children=[_profile("c")]),
        ]
        merged = merge_profiles(ranks)
        assert sorted(merged.children) == ["a", "b", "c"]

    def test_flatten_sums_over_paths(self):
        ranks = [
            _profile(children=[
                _profile("main", visits=1, cycles=100.0,
                         children=[_profile("util", visits=2, cycles=10.0)]),
                _profile("init", visits=1, cycles=5.0,
                         children=[_profile("util", visits=1, cycles=3.0)]),
            ]),
        ]
        flat = flatten_merged(merge_profiles(ranks))
        visits, cycles = flat["util"]
        assert visits.sum == 3.0
        assert cycles.sum == 13.0
        assert "main" in flat and "init" in flat


class TestFlattenPerRankFirst:
    def test_opposite_skew_across_call_paths(self):
        """Regression (ISSUE 3): a region on two call paths with opposite
        rank skew.  Per-path stats summed component-wise reported
        min=2/max=20; flattening each rank first gives the true per-rank
        sums (11 on both ranks)."""
        ranks = [
            _profile(children=[
                _profile("a", visits=1, cycles=1.0,
                         children=[_profile("util", visits=10, cycles=10.0)]),
                _profile("b", visits=1, cycles=1.0,
                         children=[_profile("util", visits=1, cycles=1.0)]),
            ]),
            _profile(children=[
                _profile("a", visits=1, cycles=1.0,
                         children=[_profile("util", visits=1, cycles=1.0)]),
                _profile("b", visits=1, cycles=1.0,
                         children=[_profile("util", visits=10, cycles=10.0)]),
            ]),
        ]
        flat = flatten_merged(merge_profiles(ranks))
        visits, cycles = flat["util"]
        assert visits.min == 11.0
        assert visits.max == 11.0
        assert visits.sum == 22.0
        assert visits.avg == 11.0
        assert cycles.min == 11.0
        assert cycles.max == 11.0

    def test_single_path_unchanged(self):
        ranks = [
            _profile(children=[_profile("main", visits=2, cycles=10.0)]),
            _profile(children=[_profile("main", visits=4, cycles=30.0)]),
        ]
        flat = flatten_merged(merge_profiles(ranks))
        visits, cycles = flat["main"]
        assert (visits.min, visits.max, visits.sum) == (2.0, 4.0, 6.0)
        assert (cycles.min, cycles.max, cycles.sum) == (10.0, 30.0, 40.0)


class TestRankStatGuard:
    def test_empty_input_raises_clear_error(self):
        with pytest.raises(CapiError, match="need at least one rank"):
            RankStat.of([])

    def test_pop_report_without_ranks_is_typed(self):
        with pytest.raises(CapiError, match="need at least one rank result"):
            build_pop_report([])


class TestElapsedBottleneckAgreement:
    def test_same_cycle_based_key(self):
        """``elapsed_seconds`` must be derived from ``bottleneck`` so the
        two can never disagree through per-rank division rounding."""
        from repro.execution.result import RunResult
        from repro.multirank.imbalance import ImbalanceSpec
        from repro.multirank.reduce import build_pop_report
        from repro.multirank.scheduler import MultiRankOutcome, RankResult

        def rank(i, t_init, t_app):
            r = RunResult("app", "none", "c")
            r.t_init_cycles = t_init
            r.t_app_cycles = t_app
            r.useful_cycles = t_app
            return RankResult(rank=i, result=r)

        # identical totals split differently: the tie goes to rank 0 and
        # elapsed_seconds reports exactly that rank's t_total
        per_rank = [rank(0, 100.0, 50.0), rank(1, 50.0, 100.0)]
        outcome = MultiRankOutcome(
            ranks=2, spec=ImbalanceSpec(), factors=(1.0, 1.0),
            backend="serial", per_rank=per_rank, merged_profile=None,
            pop=build_pop_report(per_rank),
        )
        assert outcome.bottleneck.rank == 0
        assert outcome.elapsed_seconds == outcome.bottleneck.result.t_total


class TestPopFromRanks:
    def test_uniform_is_exactly_balanced(self):
        m = compute_pop_from_ranks(
            "r",
            visits=3,
            useful_cycles=[0.1, 0.1, 0.1],
            elapsed_cycles=[1.0, 1.0, 1.0],
            mpi_cycles=[0.0, 0.0, 0.0],
            frequency=1.0,
        )
        assert m.load_balance == 1.0

    def test_imbalance_lowers_lb(self):
        m = compute_pop_from_ranks(
            "r",
            visits=1,
            useful_cycles=[100.0, 50.0],
            elapsed_cycles=[120.0, 120.0],
            mpi_cycles=[0.0, 0.0],
            frequency=1.0,
        )
        assert m.load_balance == pytest.approx(0.75)
        assert m.communication_efficiency == pytest.approx(100.0 / 120.0)
        assert m.parallel_efficiency == pytest.approx(0.625)

    def test_elapsed_is_bottleneck(self):
        m = compute_pop_from_ranks(
            "r",
            visits=1,
            useful_cycles=[1.0, 1.0],
            elapsed_cycles=[10.0, 40.0],
            mpi_cycles=[0.0, 0.0],
            frequency=2.0,
        )
        assert m.elapsed_seconds == 20.0

    def test_validation(self):
        with pytest.raises(CapiError, match="non-empty and equal length"):
            compute_pop_from_ranks(
                "r", visits=0, useful_cycles=[], elapsed_cycles=[],
                mpi_cycles=[], frequency=1.0,
            )
        with pytest.raises(CapiError, match="non-empty and equal length"):
            compute_pop_from_ranks(
                "r", visits=0, useful_cycles=[1.0], elapsed_cycles=[1.0, 2.0],
                mpi_cycles=[1.0], frequency=1.0,
            )


class TestRegionWaitAttribution:
    def test_nonvisiting_ranks_get_no_wait(self):
        """A region visited by one rank must not charge the other ranks
        its full elapsed time as MPI wait."""
        from repro.execution.result import RunResult
        from repro.multirank.reduce import build_pop_report
        from repro.multirank.scheduler import RankResult, RegionSample

        def rank(i, regions=()):
            r = RunResult("app", "talp", "c")
            r.t_app_cycles = 100.0
            r.useful_cycles = 50.0
            return RankResult(rank=i, result=r, talp_regions=regions)

        io_region = RegionSample(
            name="io", visits=1, elapsed_cycles=80.0,
            mpi_cycles=5.0, useful_cycles=75.0,
        )
        report = build_pop_report([rank(0, (io_region,)), rank(1), rank(2)])
        io = report.region("io")
        # mean MPI = 5/3 cycles: the two non-visiting ranks contribute 0
        # wait, not 80 cycles each
        assert io.mpi_seconds == pytest.approx((5.0 / 3) / 2.0e9)
