"""Shared plumbing for the benchmark workloads.

Nothing here imports the program: the set-up probe imports this module
before it starts timing the program's own imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's sources live in the checkout.
SRC = ROOT / "src"
#: Scratch space inside the checkout (temporary caches, span files).
WORK = ROOT / ".perfbench"
BENCH_DIR = Path(__file__).resolve().parent

#: Set-up repeats per run; the median is reported.
SETUP_REPEATS = 9


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def program_env() -> Dict[str, str]:
    """Environment for a child that runs the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_program_sources() -> None:
    """Make ``import repro`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed that is a pure function of the workload seed and
    ``parts`` (so every input the program receives follows from
    ``--seed``)."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# -- memory -------------------------------------------------------------------


def rusage_peak_mb() -> float:
    """Largest resident set of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), MB; 0 if gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- set-up -------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """One fresh-interpreter set-up: spawn to specs generated, seconds.

    The probe reports ``time.perf_counter()`` once its imports and spec
    generation are done; the clock is system-wide monotonic, so the
    difference with the spawn time covers interpreter start as well.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        env=program_env(),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1]) - t0


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median of ``repeats`` set-ups.  One untimed probe runs first so
    byte-compiled files exist, as they do for any user after a first run."""
    probe_setup(workload, seed)
    return median([probe_setup(workload, seed) for _ in range(repeats)])


# -- output -------------------------------------------------------------------


def end_to_end(setup_s: float, peak_rss_mb: float, sim_node_s_per_s: float) -> Dict[str, dict]:
    """The result line's metrics of an untraced run: every end-to-end
    metric of ``BENCHMARK.json``, which every workload reports."""
    return {
        "setup_s": {"value": float(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": float(peak_rss_mb), "unit": "MB"},
        "sim_node_s_per_s": {"value": float(sim_node_s_per_s), "unit": "node-s/s"},
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> int:
    """Print the result line (last line of stdout); return the exit code."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


class Checks:
    """Collects output-check failures; a run is correct iff none fail."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)

    @property
    def ok(self) -> bool:
        return not self.failures


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
