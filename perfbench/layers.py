"""Per-layer metrics derived from span summaries.

A layer is a module of the ``insa`` package; spans are named
``<module>.<function>`` or ``<module>.<Class>.<method>``.  A metric whose
function no longer exists (for instance ``solvers.newton`` once the solver
is replaced, or the cache on ``anchors``) is left out of the result
instead of failing the run.
"""

from __future__ import annotations

from statistics import median

# Name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "static_atmosphere.calls": "count",
    "static_atmosphere.self_s": "s",
    "static_atmosphere.anchors.hit_ratio": "ratio",
    "static_atmosphere.anchors.misses": "count",
    "solvers.newton.calls": "count",
    "solvers.newton.self_s": "s",
    "solvers.newton.iters_mean": "iterations",
    "solvers.newton.iters_max": "iterations",
    "solvers.newton.iters_1": "count",
    "solvers.newton.iters_2": "count",
    "solvers.newton.iters_3": "count",
    "solvers.newton.iters_ge4": "count",
    "offset_field.evaluate.calls": "count",
    "offset_field.evaluate.self_s": "s",
    "offset_field.load_grid.self_s": "s",
    "offset_field.grid_build.self_s": "s",
    "offset_field.load_observations.self_s": "s",
    "offset_field.rows_parsed": "count",
    "identification.calls": "count",
    "identification.self_s": "s",
    "identification.failed.NotInTroposphere": "count",
    "identification.failed.other": "count",
    "engine.calls": "count",
    "engine.self_s": "s",
    "engine.field_evals_per_point": "calls/point",
    "engine.state_calls_per_point": "calls/point",
    "geodesy.calls": "count",
    "geodesy.self_s": "s",
    "constants.validate_offsets.calls": "count",
    "constants.validate_offsets.self_s": "s",
    "figures.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "cli.import_s": "s",
    "trace.items": "count",
    "trace.overhead_ratio": "ratio",
}

NEWTON = "solvers.newton"
ANCHORS = "static_atmosphere.anchors"
IDENTIFY = "identification.identify_offsets"
LOAD_GRID = "offset_field.load_grid"
LOAD_OBSERVATIONS = "offset_field.load_observations"
GRID_BUILD = "offset_field.OffsetGrid3D.__post_init__"
STATE_CALLS = (
    "static_atmosphere.state_at_geopotential",
    "static_atmosphere.state_at_pressure_altitude",
)


def _newton_iterations(result):
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return result[1]
    return None


# Span name -> function of the call's result kept by the tracer.
EXTRACT = {
    NEWTON: _newton_iterations,
    LOAD_GRID: lambda grid: getattr(grid, "n_nodes", None),
    LOAD_OBSERVATIONS: len,
}


def merge(summaries):
    """Sum span summaries of several traced processes."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0, "errors": {}, "values": []}
            )
            for key in ("calls", "total_ns", "self_ns"):
                acc[key] += row[key]
            for cls, n in row["errors"].items():
                acc["errors"][cls] = acc["errors"].get(cls, 0) + n
            acc["values"].extend(row["values"])
            if "cache" in row:
                cache = acc.setdefault("cache", {"hits": 0, "misses": 0})
                cache["hits"] += row["cache"]["hits"]
                cache["misses"] += row["cache"]["misses"]
    return out


def layer_metrics(summary, *, points, items, overhead_ratio, output_bytes=0, import_s=()):
    """Every per-layer metric the summary supports, as name -> value.

    ``points`` is the number of trajectory points traced (0 on the CLI
    workloads, whose per-point ratios then read 0); ``items`` the work
    items traced, the base of ``trace.overhead_ratio``.
    """
    m: dict[str, float] = {}

    def rows(match):
        return [row for name, row in summary.items() if match(name)]

    def put_layer(prefix, selected, with_calls=True):
        if selected:
            if with_calls:
                m[f"{prefix}.calls"] = sum(r["calls"] for r in selected)
            m[f"{prefix}.self_s"] = sum(r["self_ns"] for r in selected) / 1e9

    for layer in ("static_atmosphere", "engine", "geodesy", "identification", "figures"):
        put_layer(layer, rows(lambda name: name.startswith(layer + ".")), layer != "figures")
    put_layer("offset_field.evaluate", rows(
        lambda name: name.startswith("offset_field.") and name.endswith(".evaluate")
    ))
    put_layer("constants.validate_offsets", rows(lambda name: name == "constants.validate_offsets"))
    # The CLI has no public functions; its span is the benchmark's own
    # ``cli.main`` around each traced call, absent outside the CLI workloads.
    m["cli.self_s"] = sum(r["self_ns"] for r in rows(lambda name: name.startswith("cli."))) / 1e9

    anchors = summary.get(ANCHORS, {}).get("cache")
    if anchors is not None:
        base = anchors["hits"] + anchors["misses"]
        m["static_atmosphere.anchors.hit_ratio"] = anchors["hits"] / base if base else 0.0
        m["static_atmosphere.anchors.misses"] = anchors["misses"]

    newton = summary.get(NEWTON)
    if newton is not None:
        m[f"{NEWTON}.calls"] = newton["calls"]
        m[f"{NEWTON}.self_s"] = newton["self_ns"] / 1e9
        iters = newton["values"]
        # No kept values although calls were made: the solver no longer
        # reports its iteration count, so the iteration metrics are absent.
        if iters or not newton["calls"]:
            m[f"{NEWTON}.iters_mean"] = sum(iters) / len(iters) if iters else 0.0
            m[f"{NEWTON}.iters_max"] = max(iters, default=0)
            for k in (1, 2, 3):
                m[f"{NEWTON}.iters_{k}"] = iters.count(k)
            m[f"{NEWTON}.iters_ge4"] = sum(1 for i in iters if i >= 4)

    for name, metric in (
        (LOAD_GRID, "offset_field.load_grid.self_s"),
        (GRID_BUILD, "offset_field.grid_build.self_s"),
        (LOAD_OBSERVATIONS, "offset_field.load_observations.self_s"),
    ):
        if name in summary:
            m[metric] = summary[name]["self_ns"] / 1e9
    loaders = [summary[name] for name in (LOAD_GRID, LOAD_OBSERVATIONS) if name in summary]
    if loaders:
        m["offset_field.rows_parsed"] = sum(sum(r["values"]) for r in loaders)

    if IDENTIFY in summary:
        errors = dict(summary[IDENTIFY]["errors"])
        m["identification.failed.NotInTroposphere"] = errors.pop("NotInTroposphere", 0)
        m["identification.failed.other"] = sum(errors.values())

    if "engine.calls" in m:
        evals = m.get("offset_field.evaluate.calls", 0)
        states = sum(summary[name]["calls"] for name in STATE_CALLS if name in summary)
        m["engine.field_evals_per_point"] = evals / points if points else 0.0
        m["engine.state_calls_per_point"] = states / points if points else 0.0

    m["cli.output_bytes"] = output_bytes
    m["cli.import_s"] = median(import_s) if import_s else 0.0
    m["trace.items"] = items
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: m[name] for name in PER_LAYER if name in m}
