"""``paper_sweep``: the paper's evaluation at full length.

Each round runs fig2, fig5–fig10 and table1 through the experiment's
``run()`` + ``render()`` on a default ``RunExecutor()`` (serial, no
cache, reference engine).  One operation is one experiment.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Tuple

import numpy as np

import common
from common import Checks

EXPERIMENTS = ("fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1")

#: Sensor read noise bound below ambient: four noise sigmas plus one
#: quantization step of the default lm-sensors model.
_SENSOR_SLACK_SIGMAS = 4.0
#: Multiple of the root-sum-square of the per-interval trapezoid error
#: bounds allowed between the meter and the power-trace integral.
_INTERVAL_SIGMAS = 4.0


def spec_seed(seed: int) -> int:
    return common.derive_seed(seed, "paper_sweep")


def generate_specs(seed: int) -> list:
    """Every spec of one round (what the set-up probe generates)."""
    from repro.experiments import REGISTRY
    from repro.runtime import RunExecutor  # noqa: F401  (imported by the timed phase)

    specs = []
    for name in EXPERIMENTS:
        specs.extend(REGISTRY[name][0].specs(seed=spec_seed(seed)))
    return specs


def _capturing_executor():
    """A default ``RunExecutor`` that also keeps each ``(spec, result)``
    it hands back, so the checks can read the raw runs."""
    from repro.runtime import RunExecutor

    class CapturingExecutor(RunExecutor):
        def __init__(self) -> None:
            super().__init__()
            self.captured: List[Tuple[object, object]] = []

        def map(self, specs, batch=None):
            specs = list(specs)
            results = super().map(specs, batch=batch)
            self.captured.extend(zip(specs, results))
            return results

    return CapturingExecutor()


class Op:
    """One experiment run: its wall time, outputs and raw runs."""

    def __init__(self, name, wall, result, text, captured) -> None:
        self.name = name
        self.wall = wall
        self.result = result
        self.text = text
        self.captured = captured

    def sim_node_seconds(self) -> float:
        return sum(r.execution_time * s.n_nodes for s, r in self.captured)

    def output_bytes(self) -> List[bytes]:
        """Rendered table plus the canonical bytes of every run."""
        from repro.serve.payloads import summary_bytes

        return [self.text.encode()] + [summary_bytes(s, r) for s, r in self.captured]


def run_experiment(name: str, seed: int, tracer=None) -> Op:
    from repro.experiments import REGISTRY

    module = REGISTRY[name][0]
    executor = _capturing_executor()
    t0 = time.perf_counter()
    if tracer is None:
        result = module.run(seed=spec_seed(seed), executor=executor)
        text = module.render(result)
    else:
        with tracer.span("experiments.run"):
            result = module.run(seed=spec_seed(seed), executor=executor)
        with tracer.span("experiments.render"):
            text = module.render(result)
    wall = time.perf_counter() - t0
    executor.close()
    return Op(name, wall, result, text, executor.captured)


# -- output checks ------------------------------------------------------------


def check_runs(op: Op, checks: Checks, worst: Dict[str, float]) -> None:
    """Energy balance, power-time identity and temperature range of
    every run and node."""
    from repro.config import NodeConfig

    node = NodeConfig()
    low = node.ambient_celsius - (
        _SENSOR_SLACK_SIGMAS * node.sensor.noise_sigma + node.sensor.quantum
    )
    for spec, result in op.captured:
        where = f"{op.name} seed={spec.seed} {spec.describe()}"
        checks.require(not any(result.node_shutdown), f"{where}: a node shut down")
        for i in range(spec.n_nodes):
            energy = result.energy_joules[i]
            power = result.average_power[i]
            checks.require(
                abs(energy - power * result.execution_time) <= 1e-9 * energy,
                f"{where} node{i}: energy {energy} != average power x time",
            )
            trace = result.traces[f"node{i}.power"]
            t, p = trace.times, trace.values
            step = np.diff(t)
            integral = float(np.sum((p[1:] + p[:-1]) * step) / 2.0)
            # The trace misses the metered time before its first and
            # after its last sample; inside, a power step anywhere in a
            # sampling interval moves the trapezoid by at most half the
            # interval times the step, independently per interval.
            metered_time = energy / power
            uncovered = t[0] + max(0.0, metered_time - t[-1])
            per_interval = step * np.abs(np.diff(p)) / 2.0
            tolerance = float(p.max()) * uncovered + _INTERVAL_SIGMAS * float(
                np.sqrt(np.sum(per_interval * per_interval))
            )
            gap = abs(energy - integral)
            worst["energy_gap_over_tolerance"] = max(
                worst.get("energy_gap_over_tolerance", 0.0), gap / tolerance
            )
            checks.require(
                gap <= tolerance,
                f"{where} node{i}: meter {energy:.1f} J vs trace integral "
                f"{integral:.1f} J, gap {gap:.1f} > {tolerance:.1f} J",
            )
            temp = result.traces[f"node{i}.temp"].values
            checks.require(
                float(temp.min()) >= low and float(temp.max()) < node.shutdown_temp,
                f"{where} node{i}: temperature {temp.min():.2f}..{temp.max():.2f} "
                f"outside [{low:.2f}, {node.shutdown_temp})",
            )


def check_shape(name: str, r, checks: Checks) -> None:
    """The paper's shape claims that EXPERIMENTS.md marks reproduced,
    written as inequalities.

    Claims marked reproduced there that fail or tie within noise on
    some seeds are left out; the README lists them.
    """

    def need(ok: bool, claim: str) -> None:
        checks.require(ok, f"{name}: {claim}")

    if name == "fig2":
        from repro.core.classify import ThermalBehavior

        for kind in ThermalBehavior:
            need(r.fractions[kind] > 0.0, f"{kind.name} behaviour never seen")
    elif name == "fig5":
        need(r.row(25).mean_temp < r.row(75).mean_temp, "P_p=25 is not cooler than 75")
        need(r.row(25).mean_duty > r.row(75).mean_duty, "P_p=25 does not run more fan")
    elif name == "fig6":
        dyn, trad = r.row("dynamic"), r.row("traditional")
        need(dyn.final_temp < trad.final_temp, "dynamic does not end cooler than traditional")
        need(dyn.late_duty > trad.late_duty, "dynamic does not settle at a higher duty")
    elif name == "fig7":
        t = {cap: r.row(cap).final_temp for cap in (0.25, 0.5, 0.75, 1.0)}
        need(t[1.0] < t[0.25], "the 100% cap does not end cooler than the 25% cap")
        need(
            t[0.75] - t[1.0] < t[0.25] - t[0.5],
            "the last 25 points of cap buy no less than the first 25",
        )
        need(r.row(0.25).cap_bound, "the 25% cap does not pin the fan")
    elif name == "fig8":
        need(r.trigger_time is not None, "tDVFS never scales down")
        need(
            r.restore_time is not None
            and r.trigger_time is not None
            and r.restore_time > r.trigger_time,
            "tDVFS does not restore after scaling down",
        )
        need(2 <= r.freq_changes <= 4, "spikes are not ignored (changes not in 2..4)")
    elif name == "fig9":
        cs, td = r.row("cpuspeed"), r.row("tdvfs")
        need(td.end_temp < cs.end_temp, "tDVFS does not end cooler than CPUSPEED")
        need(
            cs.freq_changes > 10 * max(1, td.freq_changes),
            "CPUSPEED does not change frequency 10x more often",
        )
        path = td.scaling_path
        need(
            len(path) >= 1 and all(a > b for a, b in zip(path, path[1:])),
            "the tDVFS scaling path is not a descent",
        )
    elif name == "table1":
        from repro.experiments.table1_tdvfs_cpuspeed import CAPS

        for cap in CAPS:
            cs, td = r.cell("cpuspeed", cap), r.cell("tdvfs", cap)
            need(
                cs.freq_changes > 10 * max(1, td.freq_changes),
                f"cap {cap}: CPUSPEED does not change 10x more often",
            )
        cs, td = r.cell("cpuspeed", 0.25), r.cell("tdvfs", 0.25)
        need(td.avg_power < cs.avg_power, "cap 0.25: tDVFS does not save power")
        need(r.pdp_winner(0.25) == "tdvfs", "cap 0.25: tDVFS does not win the PDP")
    elif name == "fig10":
        low, high = r.row(25).first_trigger, r.row(75).first_trigger
        need(
            low is not None and high is not None and low > high,
            "P_p=25 does not trigger later than 75",
        )


# -- the workload -------------------------------------------------------------


def _round(seed: int, checks: Checks, worst: Dict[str, float], tracer=None):
    """One round; checks run between experiments, outside the timing.

    Returns the completed operations and the number that raised.
    """
    ops, failed = [], 0
    for name in EXPERIMENTS:
        try:
            op = run_experiment(name, seed, tracer)
        except Exception:  # count the failed operation, keep the round whole
            common.log(f"paper_sweep: {name} failed\n{traceback.format_exc()}")
            failed += 1
            continue
        check_runs(op, checks, worst)
        check_shape(name, op.result, checks)
        ops.append(op)
    return ops, failed


def _outputs(ops) -> Dict[str, List[bytes]]:
    return {op.name: op.output_bytes() for op in ops}


def run(seed: int, seconds: float, trace: bool) -> int:
    common.use_program_sources()
    setup = common.measure_setup("paper_sweep", seed)
    checks = Checks()
    worst: Dict[str, float] = {}
    if trace:
        return _run_traced(seed, checks, worst)

    rounds: List[list] = []
    failed = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        ops, lost = _round(seed, checks, worst)
        failed += lost
        if rounds:
            checks.require(
                _outputs(ops) == _outputs(rounds[0]),
                "a repeated round produced different outputs",
            )
            for op in ops:
                op.captured = []  # keep the first round's runs only
        rounds.append(ops)
    peak = common.rusage_peak_mb()
    wall = sum(op.wall for ops in rounds for op in ops)
    common.log(
        "paper_sweep: "
        + " ".join(f"{op.name}={op.wall:.2f}s" for op in rounds[0])
        + f" worst energy gap/tolerance={worst.get('energy_gap_over_tolerance', 0):.3f}"
    )
    node_s = sum(op.sim_node_seconds() for op in rounds[0]) * len(rounds)
    return common.emit(
        checks.ok,
        len(rounds) * len(EXPERIMENTS),
        failed,
        common.end_to_end(setup, peak, node_s / wall),
    )


def _run_traced(seed: int, checks: Checks, worst: Dict[str, float]) -> int:
    import tracer as tracing
    from repro.experiments import REGISTRY

    plain, failed = _round(seed, checks, worst)
    plain_wall = sum(op.wall for op in plain)
    expected = _outputs(plain)
    del plain

    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    for name in EXPERIMENTS:
        tracer.install(REGISTRY[name][0], "specs", "experiments.specs")
    try:
        traced, lost = _round(seed, checks, worst, tracer)
        failed += lost
    finally:
        tracer.uninstall()
    traced_wall = sum(op.wall for op in traced)
    checks.require(
        _outputs(traced) == expected,
        "traced outputs differ from untraced outputs",
    )
    tracer.write(common.WORK / "spans-paper_sweep.npz")
    totals = tracer.totals()
    layers = tracing.layer_metrics(totals)
    run_self = totals.get("experiments.run", {}).get("self_s", 0.0)
    render = totals.get("experiments.render", {}).get("wall_s", 0.0)
    layers["experiments.specs_s"] = totals["experiments.specs"]["self_s"]
    layers["experiments.reduce_s"] = run_self + render
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.untraced_wall_s"] = plain_wall
    return common.emit(checks.ok, 2 * len(EXPERIMENTS), failed, tracing.report(layers))
