"""Steadiness check: two interleaved sets of runs per workload.

For every workload the command makes ``--runs`` runs in set A and as
many in set B, alternating A and B, each run with its own seed.  For
every end-to-end metric of ``BENCHMARK.json`` it prints, per set and
over both sets, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), and whether set B's
median is worse than set A's by more than the metric's bound.  Every
run must report exactly the end-to-end metrics, in their units::

    python3 perfbench/steady.py --runs 5             # every workload
    python3 perfbench/steady.py --runs 3 --workloads serve_mixed

The raw results go to ``.perfbench/steady.json``.  The exit code is 0
when every spread (``setup_s`` excepted) and every drift is within its
bound and every run was correct.

``--drift SECONDS`` instead times one fixed full-length fig07 spec over
and over for that long and prints the range of its wall and CPU times:
how much the host itself drifts while nothing changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

import common


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(common.BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=str(common.ROOT),
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{out.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["exit"] = out.returncode
    result["log"] = out.stderr.strip().splitlines()[-3:]
    return result


def host_drift(seconds: float) -> int:
    import time

    common.use_program_sources()
    from repro.experiments import fig07_max_pwm
    from repro.runtime import execute_spec

    spec = fig07_max_pwm.specs()[0]
    walls, cpus = [], []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        execute_spec(spec)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    for name, values in (("wall", walls), ("cpu", cpus)):
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(
            f"{name}: n={len(values)} min={min(values):.3f}s q1={q1:.3f}s "
            f"median={med:.3f}s q3={q3:.3f}s max={max(values):.3f}s"
        )
    return 0


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench["workloads"]),
    )
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--drift", type=float, metavar="SECONDS")
    args = parser.parse_args(argv)
    if args.drift:
        return host_drift(args.drift)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    record: Dict[str, Dict[str, List[dict]]] = {}
    seed = args.seed_base
    for i in range(args.runs):
        for workload in args.workloads.split(","):
            for side in ("A", "B"):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                record.setdefault(workload, {"A": [], "B": []})[side].append(result)
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(
                    f"[{i + 1}/{args.runs}] {workload} {side} seed={result['seed']} "
                    f"correct={result['correct']} {shown}",
                    file=sys.stderr,
                    flush=True,
                )
    common.WORK.mkdir(parents=True, exist_ok=True)
    (common.WORK / "steady.json").write_text(json.dumps(record, indent=1))

    ok = True
    header = (
        f"{'workload':<12} {'metric':<22} {'median':>11} {'q1':>11} {'q3':>11} "
        f"{'spread':>7} {'bound':>6} {'A med':>11} {'B med':>11} {'B-A':>7} verdict"
    )
    print(header)
    for workload, sides in record.items():
        runs = sides["A"] + sides["B"]
        shares = {
            side: sorted({r["failed"] / r["attempted"] for r in rs})
            for side, rs in sides.items()
        }
        for name in sorted({k for r in runs for k in r["metrics"]}):
            m = metrics.get(name)
            if m is None:
                continue
            both = spread([r["metrics"][name]["value"] for r in runs])
            a = statistics.median(r["metrics"][name]["value"] for r in sides["A"])
            b = statistics.median(r["metrics"][name]["value"] for r in sides["B"])
            drift = (b - a) / a
            worse = drift if m["better"] == "lower" else -drift
            verdicts = []
            if name != "setup_s" and both["spread"] > m["bound"]:
                verdicts.append("SPREAD>BOUND")
            elif name != "setup_s" and both["spread"] > m["bound"] / 3:
                verdicts.append("spread>bound/3")
            if worse > m["bound"]:
                verdicts.append("DRIFT>BOUND")
            ok = ok and not any(v.isupper() for v in verdicts)
            print(
                f"{workload:<12} {name:<22} {both['median']:>11.4g} {both['q1']:>11.4g} "
                f"{both['q3']:>11.4g} {both['spread']:>7.3f} {m['bound']:>6.2f} "
                f"{a:>11.4g} {b:>11.4g} {drift:>+7.3f} {' '.join(verdicts) or 'ok'}"
            )
        complete = all(
            {name: m["unit"] for name, m in metrics.items()}
            == {k: v["unit"] for k, v in r["metrics"].items()}
            for r in runs
        )
        correct = complete and all(r["correct"] and r["exit"] == 0 for r in runs)
        same_share = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok = ok and correct and same_share
        print(
            f"{workload:<12} runs={len(runs)} every-metric={complete} correct={correct} "
            f"failed-share A={shares['A']} B={shares['B']}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
