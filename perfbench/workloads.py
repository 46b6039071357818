"""The four workloads, each a closed loop with one client.

``traj_grid`` and ``traj_const`` drive ``QuasiStaticModel.query`` and
``property_rates`` in this process; ``cli_identify`` and ``cli_point``
start one ``python -m insa.cli`` process at a time, through the launcher
of ``launcher.py``, and wait for it.  Every output is verified inside the
loop; a failed check counts the item as failed.  With tracing on, a fixed amount of work runs traced first (so its
counts repeat exactly for a seed), then the same loop runs untraced for
the overhead ratio.

Every time reported is wall time scaled to the reference processor speed
of ``clock``; the unscaled figures are printed alongside.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import resource
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

import clock
import inputs
import layers
import reference as ref
import spans

HERE = Path(__file__).resolve().parent

# (samples, set-ups per sample): setup_s is the median sample divided by
# the set-ups in it.  Building a constant-field model takes microseconds,
# so many are timed together.
SETUP_REPEATS = {"traj_grid": (5, 1), "traj_const": (25, 200)}
WARMUP_POINTS = 1000
CHUNK_POINTS = 1000  # points between two calibrations
CLI_START_SAMPLES = 5
# Traced calls per run: two 10k-row files, or one cycle of the five calls.
TRACED_CLI_CYCLES = {"cli_identify": 2, "cli_point": 1}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _speed_info(factors):
    return {
        "speed_factor_median": median(factors),
        "speed_factor_min": min(factors),
        "speed_factor_max": max(factors),
    }


class Chunks:
    """Trajectory latencies, kept as one summary per chunk of consecutive
    points timed at one scale factor.  The figures reported are medians
    over chunks, so a stalled stretch moves none of them."""

    def __init__(self):
        self.stats = []  # (p50 [ns], tenth-from-top [ns], points per s)
        self.count = 0
        self.raw_ns = 0
        self.factors = []

    def add(self, latencies, factor):
        scaled = sorted(x * factor for x in latencies)
        if len(scaled) > 10:
            rate = len(scaled) / (sum(scaled) / 1e9)
            self.stats.append((scaled[len(scaled) // 2], scaled[-11], rate))
        self.count += len(scaled)
        self.raw_ns += sum(latencies)
        self.factors.append(factor)

    def metrics(self):
        p50, tail, rate = (median(column) for column in zip(*self.stats))
        return {
            "throughput_per_s": rate,
            "latency_p50_us": p50 / 1e3,
            "latency_tail_us": tail / 1e3,
        }, {
            "samples": self.count,
            "chunks": len(self.stats),
            "tail_percentile": 100.0 * (1.0 - 10.0 / CHUNK_POINTS),
            "unscaled_throughput_per_s": self.count / (self.raw_ns / 1e9),
            **_speed_info(self.factors),
        }


class Calls:
    """Scaled wall times of CLI calls and the work items they carried."""

    def __init__(self):
        self.scaled = []
        self.items = 0
        self.raw_ns = 0
        self.factors = []

    def add(self, ns, factor, items):
        self.scaled.append(ns * factor)
        self.items += items
        self.raw_ns += ns
        self.factors.append(factor)

    def metrics(self):
        ordered = sorted(self.scaled)
        # The tail has ten calls beyond it; below eleven calls the slowest
        # stands in.
        tail = ordered[-11] if len(ordered) > 10 else ordered[-1]
        return {
            "throughput_per_s": self.items / (sum(ordered) / 1e9),
            "latency_p50_us": median(ordered) / 1e3,
            "latency_tail_us": tail / 1e3,
        }, {
            "samples": len(ordered),
            "tail_percentile": 100.0 * (1.0 - 10.0 / max(len(ordered), 10)),
            "unscaled_throughput_per_s": self.items / (self.raw_ns / 1e9),
            **_speed_info(self.factors),
        }


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Trajectory workloads


class Trajectory:
    """Seeded flights and the model they are flown through."""

    def __init__(self, seed, use_grid):
        import insa

        self.insa = insa
        self.seed = seed
        self.use_grid = use_grid
        if use_grid:
            self.grid_text, grid = inputs.grid(seed)
            self.offsets_at = grid.evaluate
        else:
            dT, dp = inputs.CONST_OFFSETS
            self.offsets_at = lambda t, lon, lat: (np.full(len(t), dT), np.full(len(t), dp))
        self.points_made = self.stratosphere = self.seam = 0
        # Checked against peak_rss_mb: the inputs must stay well below it.
        self.inputs_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)

    def build_model(self):
        insa = self.insa
        if self.use_grid:
            field_ = insa.GridField(insa.load_grid(self.grid_text))
        else:
            field_ = insa.ConstantField(insa.Offsets(*inputs.CONST_OFFSETS))
        return insa.QuasiStaticModel(field=field_)

    def points(self, index):
        """Flight ``index`` as (t, position, h_dot, expected values) tuples."""
        f = inputs.flight(self.seed, index)
        dT, dp = self.offsets_at(f.t, f.lon, f.lat)
        self.points_made += len(f)
        self.stratosphere += int(inputs.stratosphere_mask(f, dT, dp).sum())
        self.seam += int(f.seam.sum())
        H = ref.geodetic_to_geopotential(f.h)
        H_dot = (ref.RE / (ref.RE + f.h)) ** 2 * f.h_dot
        position = self.insa.GeodeticPosition
        return [
            (t, position(lon, lat, h), h_dot, a, b, c, d)
            for t, lon, lat, h, h_dot, a, b, c, d in zip(
                *(x.tolist() for x in (f.t, f.lon, f.lat, f.h, f.h_dot, dT, dp, H, H_dot))
            )
        ]

    def shares(self):
        n = max(self.points_made, 1)
        return {
            "stratosphere_share": self.stratosphere / n,
            "seam_share": self.seam / n,
            "peak_rss_mb_after_inputs": self.inputs_rss_mb,
        }


def fly(model, points, latencies, deadline_ns=None):
    """Query every point, appending its latency [ns]; returns items failed."""
    query, rates_of = model.query, model.property_rates
    failed = 0
    for t, position, h_dot, dT, dp, H, H_dot in points:
        start = perf_counter_ns()
        try:
            state = query(t, position)
            rates = rates_of(t, position, h_dot)
        except Exception:
            state = None
        end = perf_counter_ns()
        latencies.append(end - start)
        if state is None or not ref.check_point(state, rates, dT, dp, H, H_dot):
            failed += 1
        if deadline_ns is not None and end >= deadline_ns:
            break
    return failed


def _fly_flight(model, points, chunks, speed, result, deadline_ns=None):
    """One flight in interleaved passes of about CHUNK_POINTS points each,
    so every chunk has the flight's mix of climb, cruise and descent and
    the chunk medians compare like with like.  Each pass is one chunk."""
    passes = max(len(points) // CHUNK_POINTS, 1)
    for first in range(passes):
        latencies = array("q")
        result.failed += fly(model, points[first::passes], latencies, deadline_ns)
        result.attempted += len(latencies)
        chunks.add(latencies, speed.factor())
        if deadline_ns is not None and perf_counter_ns() >= deadline_ns:
            return


def _fly_for(traj, model, seconds, result):
    """Untraced flights, from flight 1 on, until ``seconds`` pass."""
    chunks = Chunks()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    index = 1
    speed = clock.Speed()
    while perf_counter_ns() < deadline:
        _fly_flight(model, traj.points(index), chunks, speed, result, deadline)
        index += 1
    return chunks.metrics()


def run_traj(name, seed, seconds):
    traj = Trajectory(seed, use_grid=name == "traj_grid")
    samples, per_sample = SETUP_REPEATS[name]
    setup = []
    for _ in range(samples):
        model = None  # so that the peak RSS holds one model, not two
        gc.collect()
        speed = clock.Speed()
        start = perf_counter_ns()
        for _ in range(per_sample):
            model = traj.build_model()
        elapsed = perf_counter_ns() - start
        setup.append(elapsed * speed.factor() / per_sample / 1e9)
    fly(model, traj.points(0)[:WARMUP_POINTS], array("q"))

    result = Result()
    metrics, info = _fly_for(traj, model, seconds, result)
    result.metrics = {
        "setup_s": median(setup),
        **metrics,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    result.info = {**info, **traj.shares()}
    return result


def trace_traj(name, seed, seconds):
    """Set-up and flight 0 traced, then untraced flights for the overhead."""
    traj = Trajectory(seed, use_grid=name == "traj_grid")
    points = traj.points(0)
    tracer = spans.Tracer()
    traced = Chunks()
    result = Result()
    with spans.traced(tracer):
        model = traj.build_model()
        _fly_flight(model, points, traced, clock.Speed(), result)
    _assert_restored()
    traced_metrics, _ = traced.metrics()
    metrics, _ = _fly_for(traj, model, seconds, result)
    result.metrics = layers.layer_metrics(
        tracer.summary(),
        points=len(points),
        items=len(points),
        overhead_ratio=traced_metrics["throughput_per_s"] / metrics["throughput_per_s"],
    )
    result.info = traj.shares()
    return result


def _assert_restored():
    leftover = spans.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")


# --------------------------------------------------------------------------
# CLI workloads


@dataclass
class Job:
    """One CLI call, the work items it carries and how to check its output."""

    argv: list[str]
    items: int
    check: Callable[[int, bytes], int]  # (exit code, stdout) -> items failed


class Cli:
    """Runs one ``insa`` process at a time from the checkout's sources,
    through the launcher (see ``launcher.py``)."""

    def __init__(self, launcher, workdir):
        self.launcher = launcher
        self.stdout_path = workdir / "stdout"
        self.launcher_rss_mb = 0.0

    def _run(self, argv):
        """(exit code, stdout, wall time [ns], the child's peak RSS [MB])."""
        reply = self.launcher.run([sys.executable, *argv], self.stdout_path)
        self.launcher_rss_mb = reply["launcher_maxrss_kb"] / 1024.0
        stdout = self.stdout_path.read_bytes()
        return reply["code"], stdout, reply["ns"], reply["maxrss_kb"] / 1024.0

    def call(self, argv, trace_file=None):
        if trace_file is None:
            return self._run(["-m", "insa.cli", *argv])
        return self._run([str(HERE / "cli_child.py"), str(trace_file), *argv])

    def calibrate(self):
        """Wall time of the child calibration task of ``clock`` [ns]."""
        code, _, ns, _ = self._run(["-c", clock.CHILD_TASK])
        if code != 0:
            raise RuntimeError("the calibration child failed")
        return ns

    def speed(self):
        return clock.Speed(self.calibrate, clock.CHILD_REFERENCE_NS)

    def warm_up(self, jobs, trace_file=None):
        """Fill the bytecode cache and the file cache before timing."""
        self.calibrate()
        self._run(["-c", "import insa.cli"])
        for job in jobs:
            self.call(job.argv, trace_file)

    def startup_s(self, samples):
        """Median scaled wall time of a fresh interpreter importing the CLI [s]."""
        speed, times = self.speed(), []
        for _ in range(samples):
            code, _, ns, _ = self._run(["-c", "import insa.cli"])
            if code != 0:
                raise RuntimeError("python -c 'import insa.cli' failed")
            times.append(ns * speed.factor() / 1e9)
        return median(times)


def identify_jobs(seed, root, workdir):
    import insa

    obs = inputs.observations(seed)
    path = workdir / "observations.csv"
    path.write_text(obs.text, encoding="utf-8")
    # The library call behind every planted row, for the message to expect.
    expected_error = {}
    for i in np.flatnonzero(obs.planted).tolist():
        t, lon, lat, h, p, T = obs.rows[i]
        try:
            insa.identify_offsets(
                insa.Observation(t, math.radians(lon), math.radians(lat), h, p, T)
            )
            expected_error[i] = None
        except insa.NotInTroposphere as err:
            expected_error[i] = str(err)
    times = [row[0] for row in obs.rows]
    dT, dp = obs.delta_T.tolist(), obs.delta_p.tolist()

    def row_ok(i, row):
        if float(row["t_s"]) != times[i]:
            return False
        if i in expected_error:
            return (
                row["delta_t_k"] == row["delta_p_pa"] == ""
                and expected_error[i] is not None
                and row["error"] == expected_error[i]
                and row.get("error_class", "NotInTroposphere") == "NotInTroposphere"
            )
        return (
            row["error"] == ""
            and abs(float(row["delta_t_k"]) - dT[i]) <= ref.DT_TOL_K
            and abs(float(row["delta_p_pa"]) - dp[i]) <= ref.DP_TOL_PA
        )

    def check(code, stdout):
        n = len(times)
        if code != 0:
            return n
        try:
            rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))
            if len(rows) != n:
                return n
            return sum(1 for i, row in enumerate(rows) if not row_ok(i, row))
        except (KeyError, ValueError, TypeError, UnicodeDecodeError):
            return n

    argv = ["identify", "--obs", str(path.relative_to(root)), "--format", "csv"]
    info = {"stratosphere_share": float(obs.planted.mean()), "rows_per_call": len(times)}
    return [Job(argv, len(times), check)], info


def _state_row(insa, state):
    h = insa.geopotential_to_geodetic(state.H)
    values = (state.Hp, state.H, h, state.p, state.T, state.T_isa, state.rho)
    return ",".join(repr(v) for v in values) + "\n"


def point_jobs(seed, root, workdir):
    """The five short calls, each with stdout from the same library call."""
    import insa

    calls = inputs.point_calls(seed)
    grid_path = workdir / "tiny_grid.csv"
    grid_path.write_text(calls.tiny_grid, encoding="utf-8")

    hp, dT, dp = calls.props
    props = (
        ["props", f"--hp={hp!r}", f"--dt={dT!r}", f"--dp={dp!r}", "--format", "csv"],
        _state_row(insa, insa.state_at_pressure_altitude(hp, insa.Offsets(dT, dp))),
    )
    Hp, dT, dp = calls.convert
    convert = (
        ["convert", f"--value={Hp!r}", "--from", "Hp", "--to", "H",
         f"--dt={dT!r}", f"--dp={dp!r}", "--format", "csv"],
        repr(insa.geopotential_from_hp(Hp, insa.Offsets(dT, dp))) + "\n",
    )
    h, p, T = calls.identify
    offsets = insa.identify_offsets(insa.Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=p, T=T))
    identify = (
        ["identify", f"--h={h!r}", f"--p={p!r}", f"--t={T!r}", "--format", "csv"],
        f"{offsets.delta_T!r},{offsets.delta_p!r}\n",
    )
    figure = (["figure", "H_dTdp", "-"], insa.render_table(insa.build_figure("H_dTdp")))
    t, lon, lat, hp = calls.grid_query
    grid_offsets = insa.GridField(insa.load_grid(calls.tiny_grid)).evaluate(
        t, math.radians(lon), math.radians(lat)
    )
    grid = (
        ["props", "--grid", str(grid_path.relative_to(root)), f"--time={t!r}",
         f"--lon={lon!r}", f"--lat={lat!r}", f"--hp={hp!r}", "--format", "csv"],
        _state_row(insa, insa.state_at_pressure_altitude(hp, grid_offsets)),
    )

    def job(argv, expected):
        expected = expected.encode("utf-8")
        return Job(argv, 1, lambda code, stdout: int(code != 0 or stdout != expected))

    return [job(*call) for call in (props, convert, identify, figure, grid)], {}


CLI_JOBS = {"cli_identify": identify_jobs, "cli_point": point_jobs}


def _call_for(cli, jobs, seconds, result):
    """Untraced calls in a fixed cycle until ``seconds`` pass; returns the
    metrics, the timing details and the largest child's peak RSS [MB]."""
    calls = Calls()
    deadline = perf_counter() + seconds
    speed = cli.speed()
    peak_rss_mb = 0.0
    k = 0
    while perf_counter() < deadline or not calls.items:
        job = jobs[k % len(jobs)]
        k += 1
        code, stdout, ns, rss_mb = cli.call(job.argv)
        calls.add(ns, speed.factor(), job.items)
        peak_rss_mb = max(peak_rss_mb, rss_mb)
        result.failed += job.check(code, stdout)
    result.attempted += calls.items
    return *calls.metrics(), peak_rss_mb


def run_cli(name, seed, seconds, root, workdir, launcher):
    cli = Cli(launcher, workdir)
    jobs, info = CLI_JOBS[name](seed, root, workdir)
    cli.warm_up(jobs)
    setup = cli.startup_s(CLI_START_SAMPLES)
    result = Result()
    metrics, timing, peak_rss_mb = _call_for(cli, jobs, seconds, result)
    result.metrics = {"setup_s": setup, **metrics, "peak_rss_mb": peak_rss_mb}
    # Every child carries the launcher's peak in its own; peak_rss_mb is
    # the package's only while it is well above this floor.
    result.info = {**info, **timing, "launcher_rss_mb": cli.launcher_rss_mb}
    return result


def trace_cli(name, seed, seconds, root, workdir, launcher):
    cli = Cli(launcher, workdir)
    jobs, info = CLI_JOBS[name](seed, root, workdir)
    cli.warm_up(jobs, workdir / "trace-warm-up.json")
    result = Result()
    summaries, import_s = [], []
    traced_ns = items = output_bytes = 0
    speed = cli.speed()
    for k in range(TRACED_CLI_CYCLES[name] * len(jobs)):
        job = jobs[k % len(jobs)]
        trace_file = workdir / f"trace-{k}.json"
        code, stdout, ns, _ = cli.call(job.argv, trace_file)
        traced_ns += ns * speed.factor()
        result.failed += job.check(code, stdout)
        items += job.items
        output_bytes += len(stdout)
        if trace_file.exists():
            traced = json.loads(trace_file.read_text(encoding="utf-8"))
            summaries.append(traced["summary"])
            import_s.append(traced["import_s"])
    result.attempted += items
    metrics, _, _ = _call_for(cli, jobs, seconds, result)
    result.metrics = layers.layer_metrics(
        layers.merge(summaries),
        points=0,
        items=items,
        overhead_ratio=items / (traced_ns / 1e9) / metrics["throughput_per_s"],
        output_bytes=output_bytes,
        import_s=import_s,
    )
    result.info = info
    return result


def run(name, seed, seconds, trace, root, workdir, launcher):
    if name in CLI_JOBS:
        cli_run = trace_cli if trace else run_cli
        return cli_run(name, seed, seconds, root, workdir, launcher)
    return (trace_traj if trace else run_traj)(name, seed, seconds)
