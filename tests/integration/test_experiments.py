"""Tests for the paper-experiment harness (table renderers + runners)."""

import pytest

from repro.errors import CapiError
from repro.experiments.anomalies import compute_anomalies, render
from repro.experiments.runner import SPEC_ORDER, prepare_app, run_configuration
from repro.experiments.table1 import compute_table1, render_table1
from repro.experiments.table2 import Table2Row, render_table2
from repro.execution.workload import Workload

SMALL = {"lulesh": 800, "openfoam": 2500}
WL = Workload(site_cap=2, event_budget=30_000)


class TestPreparedApp:
    def test_prepare_app_cached(self):
        a = prepare_app("lulesh", SMALL["lulesh"])
        b = prepare_app("lulesh", SMALL["lulesh"])
        assert a is b

    def test_unknown_app_rejected(self):
        with pytest.raises(CapiError, match="unknown app"):
            prepare_app("gromacs")

    def test_select_all_covers_spec_order(self):
        prepared = prepare_app("lulesh", SMALL["lulesh"])
        outcomes = prepared.select_all()
        assert tuple(outcomes) == SPEC_ORDER


class TestTable1:
    def test_rows_and_rendering(self):
        rows = compute_table1(("lulesh",), scales=SMALL)
        assert len(rows) == len(SPEC_ORDER)
        for row in rows:
            assert row.selected_pre >= row.selected - row.added
            assert row.time_seconds >= 0
        text = render_table1(rows)
        assert "TABLE I" in text
        assert "kernels coarse" in text
        assert "#added" in text


class TestTable2Rendering:
    def test_render_includes_all_sections(self):
        rows = [
            Table2Row("app", "-", "vanilla", None, 10.0, 0.0),
            Table2Row("app", "talp", "xray full", 1.0, 30.0, 2.0),
            Table2Row("app", "scorep", "mpi", 1.5, 15.0, 0.5),
        ]
        text = render_table2(rows)
        assert "TABLE II" in text
        assert "TALP" in text and "Score-P" in text
        assert "+200%" in text
        assert "-" in text  # vanilla has no Tinit


class TestRunConfiguration:
    def test_vanilla_uses_sled_free_build(self):
        prepared = prepare_app("openfoam", SMALL["openfoam"])
        outcome = run_configuration(prepared, mode="vanilla", workload=WL)
        assert outcome.startup is None
        assert outcome.result.patched_functions == 0

    def test_ic_mode(self):
        prepared = prepare_app("openfoam", SMALL["openfoam"])
        ic = prepared.select("kernels").ic
        outcome = run_configuration(
            prepared, mode="ic", tool="talp", ic=ic, workload=WL
        )
        assert outcome.startup.patched_functions > 0
        assert outcome.talp_report is not None


class TestDlbTable:
    def test_rows_improve_and_render(self):
        from repro.experiments.dlb import compute_dlb_table, render_dlb_table

        rows = compute_dlb_table(
            ("lulesh",), scales=SMALL, ranks=4, max_iterations=6
        )
        assert {r.scenario for r in rows} == {"straggler-rescue", "ramp-flatten"}
        for row in rows:
            assert row.converged
            assert row.pe_gain > 0.0
            assert row.after[0] > row.before[0]  # load balance improved
        text = render_dlb_table(rows)
        assert "DLB LeWI REBALANCING" in text
        assert "straggler-rescue" in text

    def test_check_mode_exit_codes(self):
        from repro.experiments.dlb import main

        assert (
            main(
                [
                    "--app", "lulesh", "--nodes", str(SMALL["lulesh"]),
                    "--ranks", "4", "--scenario", "straggler-rescue",
                    "--max-iterations", "6", "--check",
                ]
            )
            == 0
        )


class TestHealthAlerts:
    def test_no_alerts_for_healthy_or_unsupervised_runs(self):
        from repro.experiments.anomalies import render_health_alerts
        from repro.multirank.faults import HealthReport, RankHealth

        assert render_health_alerts(None) == []
        healthy = HealthReport(
            ranks=2,
            per_rank=(
                RankHealth(rank=0, outcome="ok", attempts=1, latency_seconds=0.1),
                RankHealth(rank=1, outcome="ok", attempts=1, latency_seconds=0.1),
            ),
        )
        assert render_health_alerts(healthy) == []
        unsupervised = HealthReport(ranks=4, per_rank=None)
        assert render_health_alerts(unsupervised) == []

    def test_retried_lost_and_degraded_alerts(self):
        from repro.experiments.anomalies import render_health_alerts
        from repro.multirank.faults import HealthReport, RankHealth

        health = HealthReport(
            ranks=3,
            per_rank=(
                RankHealth(
                    rank=0, outcome="ok", attempts=2, latency_seconds=0.2,
                    failures=("attempt 1: InjectedFaultError: boom",),
                ),
                RankHealth(rank=1, outcome="ok", attempts=1, latency_seconds=0.1),
                RankHealth(
                    rank=2, outcome="lost", attempts=3, latency_seconds=0.4,
                    failures=(
                        "attempt 1: InjectedFaultError: boom",
                        "attempt 2: InjectedFaultError: boom",
                        "attempt 3: InjectedFaultError: boom",
                    ),
                ),
            ),
            missing_ranks=(2,),
        )
        alerts = render_health_alerts(health)
        assert len(alerts) == 3
        assert alerts[0].startswith("ALERT retried rank=0 attempts=2")
        assert alerts[1].startswith("ALERT lost rank=2 attempts=3")
        assert "coverage=66.7%" in alerts[2]
        assert "missing_ranks=[2]" in alerts[2]

    def test_check_faults_cli_flags_parse(self):
        from repro.experiments import anomalies

        parser_probe = [
            "--check-faults", "--nodes", "120", "--ranks", "4",
            "--deadline-seconds", "5.0", "--max-lost-fraction", "0.25",
        ]
        # parse-only probe: swap the smoke out so main() stays fast
        recorded = {}

        def fake_check_faults(**kwargs):
            recorded.update(kwargs)
            return 0

        original = anomalies.check_faults
        anomalies.check_faults = fake_check_faults
        try:
            assert anomalies.main(parser_probe) == 0
        finally:
            anomalies.check_faults = original
        assert recorded == {
            "target_nodes": 120,
            "ranks": 4,
            "deadline_seconds": 5.0,
            "max_lost_fraction": 0.25,
        }


class TestAnomalies:
    def test_report_and_rendering(self):
        report = compute_anomalies(
            target_nodes=SMALL["openfoam"],
            talp_bug_threshold=20,
            talp_bug_modulus=8,
        )
        assert report.hidden_functions > 0
        assert report.unresolved_ids == report.hidden_functions
        assert report.unresolved_selected_by_ic == 0
        assert report.talp_failed_registrations > 0
        text = render(report)
        assert "MPI_Init" in text
        assert str(report.hidden_functions) in text
