"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` replaces public functions and methods of the program
with wrappers that record one span per call — name, start, end and
the enclosing span — into flat in-memory arrays.  Nothing inside the
program is changed on disk or traced by the program itself; removing
the wrappers (:meth:`Tracer.uninstall`) restores the originals.

Self time of a span is its duration minus the durations of its direct
child spans; per-name totals of calls, wall and self time are derived
from the arrays after the run, and :meth:`Tracer.write` stores the raw
spans when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np


class Tracer:
    """Records spans of wrapped calls and of explicit :meth:`span` blocks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._installed: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        nid = self._id(name)
        name_append = self.name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of benchmark code."""
        idx = len(self.end)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def install(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        recording wrapper named ``name``."""
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``wall_s`` and ``self_s``."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        wall = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_time, minlength=n)
        return {
            name: {
                "calls": float(calls[i]),
                "wall_s": float(wall[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Store the raw spans (``.npz``: name ids, parents, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


#: Layer functions wrapped in traced in-process runs, as
#: ``(module, owner, attribute, span name)``.  Every in-process workload
#: installs all of them, so a layer a workload bypasses reads zero calls.
LAYER_TARGETS = (
    ("repro.runtime.executor", "RunExecutor", "map", "runtime.map"),
    ("repro.thermal.rc", "RCNetwork", "step", "thermal.rc_step"),
    ("repro.thermal.sensor", "ThermalSensor", "sample", "thermal.sensor_sample"),
    ("repro.fan.adt7467", "ADT7467", "update", "fan.chip_update"),
    ("repro.fan.motor", "FanMotor", "step", "fan.motor_step"),
    ("repro.i2c.bus", "I2cBus", "read_byte_data", "i2c.bus"),
    ("repro.i2c.bus", "I2cBus", "write_byte_data", "i2c.bus"),
    ("repro.cpu.core", "CpuCore", "step", "cpu.core_step"),
    ("repro.cpu.power", "CpuPowerModel", "power", "cpu.power"),
    ("repro.cluster.power_meter", "PowerMeter", "record", "cluster.meter_record"),
    (
        "repro.core.controller",
        "UnifiedThermalController",
        "push_sample",
        "core.controller",
    ),
    ("repro.governors.tdvfs", "TDvfs", "on_sample", "governors.tdvfs"),
    ("repro.governors.tdvfs", "TDvfs", "on_interval", "governors.tdvfs"),
    ("repro.governors.cpuspeed", "CpuSpeed", "start", "governors.cpuspeed"),
    ("repro.governors.cpuspeed", "CpuSpeed", "on_sample", "governors.cpuspeed"),
    ("repro.governors.cpuspeed", "CpuSpeed", "on_interval", "governors.cpuspeed"),
    ("repro.fleet.shard", "ShardRunner", "run_epoch", "fleet.shard_epoch"),
    ("repro.fleet.coordinator", "FleetCoordinator", "begin_epoch", "fleet.coordinator"),
    ("repro.fleet.coordinator", "FleetCoordinator", "end_epoch", "fleet.coordinator"),
    ("repro.fastpath.batch", "BatchedRC", "step", "fastpath.batched_rc_step"),
)


def install_layers(tracer: Tracer) -> None:
    import importlib

    for module, owner, attr, name in LAYER_TARGETS:
        tracer.install(getattr(importlib.import_module(module), owner), attr, name)


#: Every per-layer metric with its unit, in ``BENCHMARK.json``'s order.
#: Every traced run reports all of them; a layer the workload bypasses
#: (or that runs in another process, out of the wrappers' reach) reads 0.
PER_LAYER = {
    "experiments.specs_s": "s",
    "runtime.map_s": "s",
    "experiments.reduce_s": "s",
    "thermal.rc_step_s": "s",
    "thermal.rc_steps": "count",
    "thermal.sensor_sample_s": "s",
    "fan.chip_update_s": "s",
    "fan.chip_updates": "count",
    "fan.motor_step_s": "s",
    "i2c.bus_s": "s",
    "i2c.transactions": "count",
    "cpu.core_step_s": "s",
    "cpu.power_s": "s",
    "cluster.meter_record_s": "s",
    "core.controller_s": "s",
    "core.window_pushes": "count",
    "governors.tdvfs_s": "s",
    "governors.cpuspeed_s": "s",
    "serve.post_wait_ms_p50": "ms",
    "serve.result_get_ms_p50": "ms",
    "serve.cold_latency_p50_ms": "ms",
    "serve.warm_latency_p50_ms": "ms",
    "serve.hot_latency_p50_ms": "ms",
    "serve.hot_latency_p99_ms": "ms",
    "serve.http_requests": "count",
    "serve.http_server_s": "s",
    "serve.cache_hits": "count",
    "runtime.cache_misses": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "runtime.executed": "count",
    "runtime.spec_wall_s": "s",
    "fleet.shard_epoch_s": "s",
    "fleet.coordinator_s": "s",
    "fleet.epochs": "count",
    "fastpath.batched_rc_step_s": "s",
    "fastpath.batched_rc_steps": "count",
    "fleet.shard_efficiency": "ratio",
    "fleet.shards": "count",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
}


def report(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The result line's metrics of a traced run: every per-layer metric,
    0 for those ``values`` does not give."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer figures of the wrapped layer functions."""

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0.0)

    return {
        "runtime.map_s": self_s("runtime.map"),
        "thermal.rc_step_s": self_s("thermal.rc_step"),
        "thermal.rc_steps": calls("thermal.rc_step"),
        "thermal.sensor_sample_s": self_s("thermal.sensor_sample"),
        "fan.chip_update_s": self_s("fan.chip_update"),
        "fan.chip_updates": calls("fan.chip_update"),
        "fan.motor_step_s": self_s("fan.motor_step"),
        "i2c.bus_s": self_s("i2c.bus"),
        "i2c.transactions": calls("i2c.bus"),
        "cpu.core_step_s": self_s("cpu.core_step"),
        "cpu.power_s": self_s("cpu.power"),
        "cluster.meter_record_s": self_s("cluster.meter_record"),
        "core.controller_s": self_s("core.controller"),
        "core.window_pushes": calls("core.controller"),
        "governors.tdvfs_s": self_s("governors.tdvfs"),
        "governors.cpuspeed_s": self_s("governors.cpuspeed"),
        "fleet.shard_epoch_s": self_s("fleet.shard_epoch"),
        "fleet.coordinator_s": self_s("fleet.coordinator"),
        "fleet.epochs": calls("fleet.shard_epoch"),
        "fastpath.batched_rc_step_s": self_s("fastpath.batched_rc_step"),
        "fastpath.batched_rc_steps": calls("fastpath.batched_rc_step"),
    }
