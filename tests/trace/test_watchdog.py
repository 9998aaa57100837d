"""Watchdog rules: healthy archives are silent, damage alerts precisely."""

import io
import json

import pytest

from repro.errors import CapiError
from repro.multirank.faults import HealthReport, RankHealth
from repro.trace import (
    Alert,
    open_merged_trace,
    scan_run,
    write_health_record,
)
from repro.trace.store import location_path
from repro.trace.watchdog import (
    WatchConfig,
    discover_run_dirs,
    watch,
)
from tests.trace.conftest import E, L, M, ev, write_archive


def healthy_streams():
    streams = {}
    for rank in range(2):
        skew = rank * 3.0
        streams[rank] = [
            ev(M, "MPI_Init", 1.0 + skew),
            ev(E, "main", 2.0 + skew),
            ev(M, "MPI_Allreduce", 10.0 + skew),
            ev(L, "main", 12.0 + skew),
            ev(M, "MPI_Finalize", 13.0 + skew),
        ]
    return streams


class TestScanRun:
    def test_healthy_archive_is_silent(self, tmp_path):
        write_archive(tmp_path, healthy_streams())
        assert scan_run(tmp_path) == []

    def test_missing_definitions(self, tmp_path):
        write_archive(tmp_path, healthy_streams(), definitions=False)
        codes = [a.code for a in scan_run(tmp_path)]
        assert "trace-missing-definitions" in codes

    def test_truncated_location(self, tmp_path):
        write_archive(tmp_path, healthy_streams())
        path = location_path(tmp_path, 1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        alerts = scan_run(tmp_path)
        truncated = [a for a in alerts if a.code == "trace-truncated"]
        assert len(truncated) == 1
        assert truncated[0].rank == 1
        assert truncated[0].severity == "critical"
        # the intact rank still merges without further alerts
        assert not [a for a in alerts if a.code.startswith("trace-un")]

    def test_missing_location(self, tmp_path):
        write_archive(tmp_path, healthy_streams())
        location_path(tmp_path, 0).unlink()
        codes = [a.code for a in scan_run(tmp_path)]
        assert "trace-missing-location" in codes

    def test_orphan_location(self, tmp_path):
        streams = healthy_streams()
        write_archive(tmp_path, {0: streams[0]}, world_ranks=1)
        write_archive(
            tmp_path, {1: streams[1]}, definitions=False
        )  # zombie publish after close
        orphans = [
            a for a in scan_run(tmp_path) if a.code == "trace-orphan-location"
        ]
        assert len(orphans) == 1
        assert orphans[0].rank == 1

    def test_event_count_mismatch(self, tmp_path):
        write_archive(tmp_path, healthy_streams())
        defs_path = tmp_path / "definitions.json"
        payload = json.loads(defs_path.read_text())
        payload["locations"][0]["events"] += 5
        defs_path.write_text(json.dumps(payload))
        mismatches = [
            a for a in scan_run(tmp_path) if a.code == "trace-event-count"
        ]
        assert len(mismatches) == 1
        assert mismatches[0].measured is not None
        assert mismatches[0].threshold == mismatches[0].measured + 5

    def test_merge_defect_surfaces_issue_code(self, tmp_path):
        streams = {
            0: [ev(E, "a", 1.0), ev(M, "MPI_Finalize", 5.0)],
            1: [ev(M, "MPI_Finalize", 6.0)],
        }
        write_archive(tmp_path, streams)
        codes = [a.code for a in scan_run(tmp_path)]
        assert "trace-unclosed-region" in codes

    def test_partly_synchronised_archive_is_unmergeable(self, tmp_path):
        """Only some ranks record synchronisation events: the merge
        rejects it with a typed error, and the scan reports it."""
        write_archive(
            tmp_path,
            {
                0: [ev(E, "main", 1.0), ev(M, "MPI_Finalize", 5.0),
                    ev(L, "main", 6.0)],
                1: [ev(E, "main", 1.0), ev(L, "main", 2.0)],
            },
        )
        with pytest.raises(CapiError, match="every rank or no rank"):
            open_merged_trace(tmp_path)
        alerts = scan_run(tmp_path)
        assert [a.code for a in alerts] == ["trace-unmergeable"]
        assert "every rank or no rank" in alerts[0].detail

    @pytest.mark.parametrize(
        "reorder",
        [lambda locs: locs[::-1], lambda locs: [*locs, locs[0]]],
        ids=["out-of-order", "listed-twice"],
    )
    def test_misordered_definitions_rejected_typed(self, tmp_path, reorder):
        write_archive(tmp_path, healthy_streams())
        defs_path = tmp_path / "definitions.json"
        payload = json.loads(defs_path.read_text())
        payload["locations"] = reorder(payload["locations"])
        defs_path.write_text(json.dumps(payload))
        with pytest.raises(CapiError, match="strictly ascending"):
            open_merged_trace(tmp_path)

    def test_health_record_alerts_ride_along(self, tmp_path):
        write_archive(tmp_path, healthy_streams())
        write_health_record(
            tmp_path,
            HealthReport(
                ranks=2,
                per_rank=(
                    RankHealth(rank=0, outcome="ok", attempts=2,
                               latency_seconds=1.0, failures=("crash",)),
                    RankHealth(rank=1, outcome="ok", attempts=1,
                               latency_seconds=0.5),
                ),
            ),
        )
        alerts = scan_run(tmp_path)
        assert [a.code for a in alerts] == ["retried"]
        assert alerts[0].source == str(tmp_path)


    def test_retried_rank_without_failure_lines(self, tmp_path):
        """A health record claiming a retry but listing no failure still
        alerts instead of crashing the scan."""
        write_archive(tmp_path, healthy_streams())
        write_health_record(
            tmp_path,
            HealthReport(
                ranks=2,
                per_rank=(
                    RankHealth(rank=0, outcome="ok", attempts=2,
                               latency_seconds=1.0),
                    RankHealth(rank=1, outcome="ok", attempts=1,
                               latency_seconds=0.5),
                ),
            ),
        )
        alerts = scan_run(tmp_path)
        assert [a.code for a in alerts] == ["retried"]
        assert "last_failure=None" in alerts[0].detail


class TestWaitRegression:
    def _skewed(self, tmp_path, skew):
        streams = {
            0: [ev(M, "MPI_Allreduce", 10.0), ev(M, "MPI_Finalize", 11.0)],
            1: [ev(M, "MPI_Allreduce", 10.0 + skew),
                ev(M, "MPI_Finalize", 11.0 + skew)],
        }
        write_archive(tmp_path, streams)

    def test_absolute_limit_trips_on_hang_shape(self, tmp_path):
        """One rank parked ~forever at the collective: the wait
        fraction approaches 0.5 of 2 ranks — above a tight limit."""
        self._skewed(tmp_path, skew=1000.0)
        alerts = scan_run(
            tmp_path, config=WatchConfig(wait_fraction_limit=0.25)
        )
        regressions = [a for a in alerts if a.code == "wait-regression"]
        assert len(regressions) == 1
        assert regressions[0].measured > regressions[0].threshold

    def test_baseline_scales_the_budget(self, tmp_path):
        baseline = tmp_path / "BENCH_selection.json"
        baseline.write_text(
            json.dumps({"trace_pipeline": {"healthy_wait_fraction": 0.01}})
        )
        run_dir = tmp_path / "run"
        self._skewed(run_dir, skew=1000.0)
        config = WatchConfig(baseline_path=str(baseline), wait_slack=2.0)
        codes = [a.code for a in scan_run(run_dir, config=config)]
        assert "wait-regression" in codes

    def test_healthy_skew_stays_under_budget(self, tmp_path):
        self._skewed(tmp_path, skew=1.0)
        assert scan_run(tmp_path) == []

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"\xff\xfe not UTF-8", id="not-utf8"),
            pytest.param(b"{not json", id="not-json"),
            pytest.param(b"[0.01]", id="array"),
            pytest.param(b'"0.01"', id="string"),
            pytest.param(b'{"trace_pipeline": [0.01]}', id="section-array"),
            *(
                pytest.param(
                    b'{"trace_pipeline": {"healthy_wait_fraction": %s}}' % value,
                    id=name,
                )
                for name, value in [
                    ("fraction-string", b'"0.01"'),
                    ("fraction-array", b"[0.01]"),
                    ("fraction-bool", b"true"),
                    ("fraction-nan", b"NaN"),
                    ("fraction-infinity", b"Infinity"),
                    ("fraction-negative", b"-0.01"),
                    ("fraction-beyond-float", b"1" + b"0" * 400),
                ]
            ),
        ],
    )
    def test_unusable_baseline_falls_back_to_default(self, tmp_path, payload):
        """A baseline file that is not a JSON object holding a finite,
        non-negative fraction is no baseline: the absolute limit holds,
        in the scan and in the watch loop."""
        baseline = tmp_path / "BENCH_selection.json"
        baseline.write_bytes(payload)
        run_dir = tmp_path / "runs" / "hang"
        self._skewed(run_dir, skew=1000.0)
        config = WatchConfig(baseline_path=str(baseline), wait_fraction_limit=0.25)
        [regression] = [
            a for a in scan_run(run_dir, config=config) if a.code == "wait-regression"
        ]
        assert regression.threshold == 0.25
        assert "absolute default" in regression.detail
        stdout = io.StringIO()
        total = watch(
            tmp_path / "runs", once=True, config=config,
            stdout=stdout, stderr=io.StringIO(),
        )
        assert total == 1
        assert Alert.from_json(stdout.getvalue()).code == "wait-regression"


class TestWatchLoop:
    def test_discovers_nested_runs(self, tmp_path):
        write_archive(tmp_path / "a", healthy_streams())
        write_archive(tmp_path / "b" / "deep", healthy_streams())
        assert discover_run_dirs(tmp_path) == [
            tmp_path / "a", tmp_path / "b" / "deep",
        ]

    def test_once_emits_jsonl_and_counts(self, tmp_path):
        run = tmp_path / "runs" / "bad"
        write_archive(run, healthy_streams())
        path = location_path(run, 0)
        path.write_bytes(path.read_bytes()[:40])
        stdout, stderr = io.StringIO(), io.StringIO()
        alerts_file = tmp_path / "alerts.jsonl"
        total = watch(
            tmp_path / "runs", once=True,
            alerts_file=str(alerts_file), stdout=stdout, stderr=stderr,
        )
        assert total >= 1
        lines = stdout.getvalue().strip().splitlines()
        assert len(lines) == total
        parsed = [Alert.from_json(line) for line in lines]
        assert any(a.code == "trace-truncated" for a in parsed)
        # the sink file mirrors stdout
        assert alerts_file.read_text() == stdout.getvalue()
        # the human view goes to stderr only
        assert "ALERT" in stderr.getvalue()
        assert "watchdog: cycle 1" in stderr.getvalue()

    def test_unchanged_archives_scan_once(self, tmp_path):
        run = tmp_path / "bad"
        write_archive(run, healthy_streams(), definitions=False)
        stdout = io.StringIO()
        total = watch(
            tmp_path, max_cycles=3, interval=0.0,
            stdout=stdout, stderr=io.StringIO(),
        )
        # three cycles, but the unchanged archive alerts exactly once
        assert total == 1

    def test_healthy_tree_returns_zero(self, tmp_path):
        write_archive(tmp_path / "ok", healthy_streams())
        total = watch(
            tmp_path, once=True, stdout=io.StringIO(), stderr=io.StringIO()
        )
        assert total == 0


class TestCli:
    def test_watch_once_healthy_exit_zero(self, tmp_path, capsys):
        from repro.experiments.anomalies import main

        write_archive(tmp_path / "run", healthy_streams())
        code = main(
            ["--watch", str(tmp_path), "--once", "--fail-on-alert"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_watch_once_damaged_exit_one(self, tmp_path, capsys):
        from repro.experiments.anomalies import main

        run = tmp_path / "run"
        write_archive(run, healthy_streams(), definitions=False)
        code = main(
            ["--watch", str(tmp_path), "--once", "--fail-on-alert"]
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(
            json.loads(line)["code"] == "trace-missing-definitions"
            for line in lines
        )
