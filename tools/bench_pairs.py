"""Alternating parent/change runs of the benchmark, one line per metric.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py --against HEAD~1 --workload traj_grid --seeds 5 --seconds 20

The parent is the committed tree of ``--against``, unpacked with
``git archive`` into a temporary directory; the change is this checkout,
working tree included.  For each workload, pair k (k = 1..seeds) runs
``perfbench/run.py --seed k --trace 0`` once from each tree, the parent
first on odd pairs and the change first on even ones, so a drift of the
machine's speed falls on both alike.  Each metric is then printed with
the parent's median and interquartile range, the change's median, the
change in percent, the number of pairs in which the change was better
and the bound ``BENCHMARK.json`` sets for it.  ``--out FILE`` also writes
all of it, every run included with its ``#`` lines (speed factors,
unscaled throughput, failed ratio), as JSON with the git shas and the
Python version.  Standard library only; ``perfbench/`` is run, never imported.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("traj_grid", "traj_const", "cli_identify", "cli_point")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(ref: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(into)


def parse_run_output(stdout: str) -> dict:
    """A run's JSON result line, with its ``#`` lines kept under ``"notes"``.

    The ``#`` lines carry what the metrics leave out: the speed factors
    that scaled them, the unscaled throughput and the failed ratio.
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line[1:].strip() for line in lines if line.startswith("#")]
    return result


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``tree``: its parsed output."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    return parse_run_output(done.stdout)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], bounds: dict[str, dict]) -> dict[str, dict]:
    """Per metric: medians, the parent's IQR, % change and pairs won."""
    summary = {}
    for name, spec in bounds.items():
        pairs = [
            (r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
            for r in runs
            if name in r["parent"]["metrics"] and name in r["change"]["metrics"]
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        q1, q3 = _quartiles(parent)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        higher = spec["better"] == "higher"
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": parent_median,
            "parent_iqr": q3 - q1,
            "change_median": change_median,
            "change_pct": 100.0 * (change_median - parent_median) / parent_median,
            "pairs_better": sum((c > p) if higher else (c < p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return summary


def _print_table(workload: str, summary: dict[str, dict], failed: tuple[int, int]) -> None:
    print(f"{workload}  (failed: parent {failed[0]}, change {failed[1]})")
    print(f"  {'metric':18s} {'parent med':>12s} {'parent IQR':>11s} {'change med':>12s}"
          f" {'change':>8s} {'better':>7s} {'bound':>6s}")
    for name, s in summary.items():
        print(
            f"  {name:18s} {s['parent_median']:12.6g} {s['parent_iqr']:11.4g}"
            f" {s['change_median']:12.6g} {s['change_pct']:+7.1f}%"
            f" {s['pairs_better']:>3d}/{s['pairs']:<3d} {100 * s['bound']:5.0f}%"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git ref of the parent tree")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all four)")
    parser.add_argument("--seeds", type=int, default=5, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of each run")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or list(WORKLOADS)
    result = {
        "against": args.against,
        "parent_sha": _git("rev-parse", f"{args.against}^{{commit}}"),
        "change_sha": _git("rev-parse", "HEAD"),
        "change_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        _unpack(args.against, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            runs = []
            for seed in range(1, args.seeds + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], workload, seed, args.seconds)
                runs.append(run)
            failed = tuple(sum(r[side]["failed"] for r in runs) for side in ("parent", "change"))
            summary = summarize(runs, bounds)
            _print_table(workload, summary, failed)
            result["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
