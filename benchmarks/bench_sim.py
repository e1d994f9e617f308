#!/usr/bin/env python
"""Standalone simulator benchmark harness.

Equivalent to ``catt bench`` but runnable without installing the package::

    python benchmarks/bench_sim.py --scale test --jobs 2 \
        --baseline benchmarks/BENCH_baseline.json

Times engine throughput (warp-instructions/sec for the AST-walk
interpreter vs the launch-wide tape engine) and the full ``catt all``
sweep wall-clock,
writes ``benchmarks/BENCH_sim.json`` (next to the committed baseline), and
— when ``--baseline`` is given — exits non-zero on a >2x regression
against the committed baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running straight from a checkout: benchmarks/ sits next to src/.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="test", choices=["bench", "test"])
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep")
    parser.add_argument("-o", "--output", default="benchmarks/BENCH_sim.json",
                        help="result JSON path "
                             "(default: benchmarks/BENCH_sim.json)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="fail on >FACTOR regression vs this baseline")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="regression tolerance ratio (default: 2.0)")
    args = parser.parse_args(argv)

    from repro.experiments.bench import (
        check_regression,
        format_bench,
        run_bench,
    )

    payload = run_bench(scale=args.scale, jobs=args.jobs, out=args.output)
    print(format_bench(payload))
    if args.baseline:
        failures = check_regression(payload, args.baseline,
                                    factor=args.factor)
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
