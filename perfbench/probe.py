"""Set-up probe: import the program, generate one workload's specs, and
print ``time.perf_counter()`` at that point.

Run by :func:`common.probe_setup` in a fresh interpreter::

    PYTHONPATH=src python3 perfbench/probe.py paper_sweep 1
"""

import sys
import time

import common


def main(workload: str, seed: int) -> None:
    if workload == "paper_sweep":
        import paper_sweep

        paper_sweep.generate_specs(seed)
    elif workload == "fleet_64":
        import fleet_64

        fleet_64.build_spec(seed)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    print(time.perf_counter())


if __name__ == "__main__":
    common.use_program_sources()
    main(sys.argv[1], int(sys.argv[2]))
