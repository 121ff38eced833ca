"""Run one benchmark workload and print its metrics as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
repeats the same operations untraced and then traced, checks that the
simulated outputs agree byte for byte, and reports the per-layer
metrics.  The result line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
program's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("paper_sweep", "serve_mixed", "fleet_64")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {common.SRC}; run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2

    if args.workload == "paper_sweep":
        import paper_sweep as workload
    elif args.workload == "serve_mixed":
        import serve_mixed as workload
    else:
        import fleet_64 as workload
    return workload.run(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
