"""Benchmark of the insa package: one command, four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload traj_grid --seed 1 --seconds 20 --trace 0

Workloads: traj_grid, traj_const, cli_identify, cli_point (see
BENCHMARK.json for why each exists).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Times are wall times scaled to a reference processor speed (``clock.py``);
the unscaled figures are printed on the ``#`` lines before the result.
The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails with exit code 2 and prints no result.
Self-tests: ``python3 -m pytest -q perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays as it was given

from launcher import Launcher  # noqa: E402

WORKLOADS = ("traj_grid", "traj_const", "cli_identify", "cli_point")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}


def _missing_sources():
    if not (SRC / "insa" / "__init__.py").is_file():
        return f"no package sources at {SRC / 'insa'}"
    return None


def _import_package():
    """Import insa from this checkout's sources, or explain why not."""
    sys.path.insert(0, str(SRC))
    import insa

    if not Path(insa.__file__).resolve().is_relative_to(SRC):
        return f"insa was imported from {insa.__file__}, not from {SRC}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _missing_sources()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    # One processor for this process and every child it starts, so the
    # calibration task runs where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = None
    try:
        if args.workload.startswith("cli_"):
            # Before numpy is imported: see launcher.py.
            launcher = Launcher(ROOT, workdir)
        problem = _import_package()
        if problem:
            print(f"perfbench: {problem}", file=sys.stderr)
            return 2
        import layers
        import workloads

        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir, launcher
        )
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = layers.PER_LAYER if args.trace else END_TO_END
    failed_ratio = result.failed / result.attempted
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# failed_ratio={failed_ratio!r} ({result.failed}/{result.attempted})")
    for key, value in result.info.items():
        print(f"# {key}={value!r}")
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        print(f"# absent (symbol not found): {' '.join(missing)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in result.metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
