"""``fleet_64``: ``run_fleet`` on an 8x8 capped fleet with a hot-aisle fault.

One operation is one ``run_fleet(spec, shards=TIMED_SHARDS)`` call;
every round repeats the same seed-derived spec.  The result at
``shards=nproc`` is checked against it, and the traced run measures
the sharding efficiency at ``nproc``.
"""

from __future__ import annotations

import time
import traceback
from typing import List

import common
from common import Checks

RACKS = 8
NODES_PER_RACK = 8
HORIZON_S = 300.0
WATTS_PER_NODE = 45.0
#: Shards of the timed runs (see the README: two busy processes make the
#: host's CPU steal show in every figure).
TIMED_SHARDS = 1


def build_spec(seed: int):
    from repro.fleet import FleetFaultSpec, FleetSpec, run_fleet  # noqa: F401

    return FleetSpec(
        racks=RACKS,
        nodes_per_rack=NODES_PER_RACK,
        horizon=HORIZON_S,
        seed=common.derive_seed(seed, "fleet_64"),
        workload="imbalance",
        power_budget=WATTS_PER_NODE * RACKS * NODES_PER_RACK,
        fault=FleetFaultSpec(rack=0, at=HORIZON_S / 3.0),
    )


def _timed_run(spec, shards: int):
    from repro.fleet import run_fleet

    t0 = time.perf_counter()
    result = run_fleet(spec, shards=shards)
    return time.perf_counter() - t0, result


def check_result(result, checks: Checks) -> None:
    """Energy balance against the per-epoch power series, and the
    faulted rack ending with the hottest inlet."""
    node_energy = sum(node.energy_j for node in result.nodes)
    integral, t_prev = 0.0, 0.0
    for t_end, total_power_w, _max_die, _pp in result.series:
        integral += total_power_w * (t_end - t_prev)
        t_prev = t_end
    checks.require(
        abs(node_energy - integral) <= 1e-9 * node_energy,
        f"node energies sum to {node_energy} J but the per-epoch power "
        f"integrates to {integral} J",
    )
    checks.require(
        abs(t_prev - result.spec.horizon) <= result.spec.dt,
        f"the power series ends at {t_prev} s, not at the horizon",
    )
    inlets = [rack.inlet_c for rack in result.racks]
    checks.require(
        inlets[0] > max(inlets[1:]),
        f"faulted rack 0 inlet {inlets[0]:.2f} C is not the hottest "
        f"(others up to {max(inlets[1:]):.2f} C)",
    )


def run(seed: int, seconds: float, trace: bool) -> int:
    common.use_program_sources()
    setup = common.measure_setup("fleet_64", seed)
    spec = build_spec(seed)
    shards = common.nproc()
    checks = Checks()
    if trace:
        return _run_traced(spec, shards, checks)

    # The sharded reference runs first: its burst on every CPU then
    # precedes this run's timed phase, not the next run's set-up.
    _, sharded = _timed_run(spec, shards)
    expected = sharded.canonical_bytes()
    check_result(sharded, checks)
    walls: List[float] = []
    failed = 0
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        try:
            wall, result = _timed_run(spec, TIMED_SHARDS)
        except Exception:  # count the failed operation, keep going
            common.log(f"fleet_64: run failed\n{traceback.format_exc()}")
            failed += 1
            walls.append(0.0)
            continue
        walls.append(wall)
        checks.require(
            result.canonical_bytes() == expected,
            f"shards={TIMED_SHARDS} result differs from shards={shards}",
        )
    peak = common.rusage_peak_mb()
    done = [w for w in walls if w > 0.0]
    common.log(f"fleet_64: {len(done)} runs, " + " ".join(f"{w:.2f}" for w in walls))
    return common.emit(
        checks.ok,
        len(walls),
        failed,
        common.end_to_end(setup, peak, spec.total_nodes * spec.horizon / common.median(done)),
    )


def _run_traced(spec, shards: int, checks: Checks) -> int:
    import tracer as tracing

    sharded_wall, sharded = _timed_run(spec, shards)
    check_result(sharded, checks)
    single_wall, single = _timed_run(spec, 1)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        traced_wall, traced = _timed_run(spec, 1)
    finally:
        tracer.uninstall()
    expected = sharded.canonical_bytes()
    checks.require(single.canonical_bytes() == expected, "shards=1 differs")
    checks.require(traced.canonical_bytes() == expected, "traced run differs")
    tracer.write(common.WORK / "spans-fleet_64.npz")
    layers = tracing.layer_metrics(tracer.totals())
    layers["fleet.shard_efficiency"] = single_wall / (shards * sharded_wall)
    layers["fleet.shards"] = shards
    layers["trace.overhead_s"] = traced_wall - single_wall
    layers["trace.untraced_wall_s"] = single_wall
    return common.emit(checks.ok, 3, 0, tracing.report(layers))
