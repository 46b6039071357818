"""tools/bench_pairs.py on canned benchmark output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {
    "setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    "throughput_per_s": {
        "name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.15
    },
}


def stdout(setup_s, throughput, failed=0):
    result = {
        "correct": True,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
        },
    }
    return "\n".join([
        "# workload=traj_grid seed=1 trace=0",
        f"# failed_ratio={failed / 1000} ({failed}/1000)",
        "# unscaled_throughput_per_s=80321.35",
        "# speed_factor_median=0.827",
        json.dumps(result),
    ]) + "\n"


class TestParseRunOutput:
    def test_result_line_and_notes(self):
        run = bench_pairs.parse_run_output(stdout(0.4, 9e4, failed=2))
        assert run["metrics"]["setup_s"]["value"] == 0.4
        assert run["failed"] == 2
        assert run["notes"] == [
            "workload=traj_grid seed=1 trace=0",
            "failed_ratio=0.002 (2/1000)",
            "unscaled_throughput_per_s=80321.35",
            "speed_factor_median=0.827",
        ]

    def test_no_comment_lines(self):
        run = bench_pairs.parse_run_output(stdout(0.4, 9e4).splitlines()[-1])
        assert run["notes"] == []


def canned_runs():
    parent = [(1.0, 100.0), (0.9, 110.0), (1.1, 90.0), (1.0, 100.0)]
    change = [(0.5, 120.0), (0.45, 100.0), (0.55, 130.0), (1.2, 100.0)]
    return [
        {
            "seed": k,
            "parent": bench_pairs.parse_run_output(stdout(*p)),
            "change": bench_pairs.parse_run_output(stdout(*c)),
        }
        for k, (p, c) in enumerate(zip(parent, change), start=1)
    ]


class TestSummarize:
    def test_medians_iqr_change_and_pairs_won(self):
        summary = bench_pairs.summarize(canned_runs(), BOUNDS)
        setup = summary["setup_s"]
        assert setup["parent_median"] == 1.0
        assert setup["change_median"] == 0.525
        assert setup["parent_iqr"] == pytest.approx(0.05)
        assert setup["change_pct"] == pytest.approx(-47.5)
        assert (setup["pairs_better"], setup["pairs"]) == (3, 4)  # lower is better
        throughput = summary["throughput_per_s"]
        assert throughput["change_median"] == 110.0
        assert throughput["change_pct"] == pytest.approx(10.0)
        # 120 > 100 and 130 > 90 win; 100 < 110 loses; the tie counts for neither.
        assert (throughput["pairs_better"], throughput["pairs"]) == (2, 4)
        assert throughput["bound"] == 0.15

    def test_metric_missing_on_a_side_is_left_out(self):
        runs = canned_runs()
        for run in runs:
            del run["change"]["metrics"]["throughput_per_s"]
        assert list(bench_pairs.summarize(runs, BOUNDS)) == ["setup_s"]


def test_out_file_keeps_the_notes(monkeypatch, tmp_path):
    outputs = iter([stdout(1.0, 100.0), stdout(0.5, 120.0), stdout(0.45, 130.0), stdout(0.9, 95.0)])
    monkeypatch.setattr(bench_pairs, "_unpack", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(
        bench_pairs, "_run", lambda tree, *args: bench_pairs.parse_run_output(next(outputs))
    )
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(
        ["--against", "HEAD", "--workload", "traj_grid", "--seeds", "2", "--out", str(out)]
    ) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    runs = record["workloads"]["traj_grid"]["runs"]
    assert [run["first"] for run in runs] == ["parent", "change"]
    assert runs[0]["parent"]["notes"][1] == "failed_ratio=0.0 (0/1000)"
    assert runs[1]["change"]["metrics"]["setup_s"]["value"] == 0.45
    assert record["workloads"]["traj_grid"]["summary"]["setup_s"]["pairs_better"] == 2
