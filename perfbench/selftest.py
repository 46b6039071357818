"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import layers
from launcher import Launcher
import run
import spans
import workloads

ROOT = run.ROOT
assert run._import_package() is None

import insa  # noqa: E402  (importable only once run has put src/ on the path)

STATE_FIELDS = ("Hp", "H", "p", "T", "T_isa", "rho")


@pytest.fixture
def workdir():
    path = run.WORK / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def test_generators_are_deterministic_per_seed():
    for make in (lambda s: inputs.flight(s, 3), inputs.observations, inputs.point_calls):
        a, b, other = make(11), make(11), make(12)
        assert repr(a) == repr(b)
        assert repr(a) != repr(other)
    text, grid = inputs.grid(11)
    text_again, grid_again = inputs.grid(11)
    assert text == text_again
    assert np.array_equal(grid.delta_T, grid_again.delta_T)
    assert text != inputs.grid(12)[0]


def test_every_flight_crosses_the_seam_and_the_tropopause():
    traj = workloads.Trajectory(5, use_grid=False)
    for index in range(3):
        traj.points(index)
    shares = traj.shares()
    assert 0.25 < shares["stratosphere_share"] < 0.45
    assert 0.03 < shares["seam_share"] < 0.10


class _Perturbed:
    """A model whose answers are off by ``change`` in one field."""

    def __init__(self, model, field, change):
        self.model, self.field, self.change = model, field, change

    def query(self, t, position):
        state = self.model.query(t, position)
        values = {name: getattr(state, name) for name in STATE_FIELDS}
        if self.field in values:
            values[self.field] += self.change
        return SimpleNamespace(**values)

    def property_rates(self, t, position, h_dot):
        rates = self.model.property_rates(t, position, h_dot)
        if self.field != "dp_dt":
            return rates
        return SimpleNamespace(
            dp_dt=rates.dp_dt + self.change, dT_dt=rates.dT_dt, drho_dt=rates.drho_dt
        )


@pytest.mark.parametrize("use_grid", [False, True])
def test_perturbed_trajectory_outputs_count_as_failed(use_grid):
    traj = workloads.Trajectory(2, use_grid=use_grid)
    model = traj.build_model()
    # Climb points only, where every rate is nonzero.
    points = traj.points(1)[:200]
    assert workloads.fly(model, points, array("q")) == 0
    for field, change in (("p", 1e-3), ("T", 1e-3), ("H", 1e-3), ("Hp", 1e-2), ("dp_dt", 1e-6)):
        latencies = array("q")
        assert workloads.fly(_Perturbed(model, field, change), points, latencies) == 200, field
        assert len(latencies) == 200


@pytest.fixture
def cli(workdir):
    launcher = Launcher(ROOT, workdir)
    yield workloads.Cli(launcher, workdir)
    launcher.close()


def test_perturbed_cli_outputs_count_as_failed(cli, workdir):
    [job], _ = workloads.identify_jobs(4, ROOT, workdir)
    code, stdout, _, _ = cli.call(job.argv)
    assert job.check(code, stdout) == 0
    header, first, *rest = stdout.decode().splitlines(keepends=True)
    cells = first.split(",")
    cells[3] = repr(float(cells[3]) + 1e-3) if cells[3] else "1.0"
    assert job.check(0, "".join([header, ",".join(cells), *rest]).encode()) == 1
    assert job.check(3, stdout) == job.items
    assert job.check(0, stdout[: len(stdout) // 2]) == job.items

    jobs, _ = workloads.point_jobs(4, ROOT, workdir)
    for job in jobs:
        code, stdout, _, _ = cli.call(job.argv)
        assert job.check(code, stdout) == 0, job.argv
        assert job.check(code, stdout + b" ") == 1, job.argv
        assert job.check(1, stdout) == 1


def test_cli_child_peak_rss_is_its_own(cli):
    ballast = b"x" * (64 << 20)  # this process now holds over 64 MB
    code, _, _, rss_mb = cli._run(["-c", "pass"])
    assert code == 0
    assert rss_mb < 40
    del ballast


def _bindings():
    found = {}
    for short, module in spans.package_modules().items():
        for attr, obj in vars(module).items():
            found[(short, attr)] = obj
            if isinstance(obj, type):
                for meth, fn in vars(obj).items():
                    found[(short, attr, meth)] = fn
    return found


def test_tracer_leaves_no_wrapper_behind():
    before = _bindings()
    tracer = spans.Tracer()
    model = insa.QuasiStaticModel(field=insa.ConstantField(insa.Offsets(1.0, 2.0)))
    position = insa.GeodeticPosition(lon=0.1, lat=0.2, h=3000.0)
    with pytest.raises(ZeroDivisionError):
        with spans.traced(tracer):
            assert spans.leftover_wrappers()
            model.query(0.0, position)
            1 / 0
    assert spans.leftover_wrappers() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    summary = tracer.summary()
    assert summary["engine.QuasiStaticModel.query"]["calls"] == 1
    assert summary["static_atmosphere.state_at_geopotential"]["calls"] == 1


def test_missing_symbol_is_an_absent_metric():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        insa.state_at_geopotential(5000.0, insa.Offsets(3.0, 100.0))
    summary = tracer.summary()
    del summary["solvers.newton"]
    del summary["static_atmosphere.anchors"]
    metrics = layers.layer_metrics(summary, points=1, items=1, overhead_ratio=0.5)
    assert not any(name.startswith("solvers.newton") for name in metrics)
    assert "static_atmosphere.anchors.hit_ratio" not in metrics
    assert metrics["static_atmosphere.calls"] > 0


def _traced(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "6",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["traj_const", "cli_point"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert first.keys() == second.keys() == layers.PER_LAYER.keys()
    counts = [
        name for name, unit in layers.PER_LAYER.items()
        if unit in ("count", "iterations", "calls/point", "B") or name.endswith("hit_ratio")
    ]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["static_atmosphere.calls"] > 0


def test_fails_without_package_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traj_const", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
