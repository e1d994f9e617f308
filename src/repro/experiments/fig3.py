"""Figure 3 — performance impact of TLP vs. cache footprints.

Three microbenchmark curves (``L1D-full-with-{4,8,16}-warps``) over TLPs
1..32 warps; each curve should bottom out at its fill point: below it TLP is
wasted, above it the L1D thrashes (§3.3).

The (fill, tlp) points are independent launches, so with ``jobs > 1`` they
fan out over the sweep supervisor's worker processes.  They are not result
cache cells: nothing is written to the store.
"""

from __future__ import annotations

from functools import partial

from ..options import current_options
from ..sim.arch import TITAN_V_SIM
from ..workloads.microbench import run_microbench
from .sweep import map_supervised

FILL_POINTS = (4, 8, 16)
TLPS = (1, 2, 4, 8, 16, 32)


def build_fig3(
    fill_points: tuple[int, ...] = FILL_POINTS,
    tlps: tuple[int, ...] = TLPS,
    iters: int = 4,
    spec=TITAN_V_SIM,
    l1d_lines: int | None = None,
) -> dict[int, dict[int, int]]:
    """fill_warps -> {tlp_warps: cycles}.

    Runs on ``current_options().jobs`` supervised workers.  A point that
    fails every attempt there raises :class:`~repro.experiments.sweep.
    TaskFailed`; in-process (one job or one point) its error propagates.
    """
    points = [(fill, tlp) for fill in fill_points for tlp in tlps]
    run_point = partial(_run_point, spec=spec, iters=iters,
                        l1d_lines=l1d_lines)
    jobs = current_options().jobs
    if jobs > 1 and len(points) > 1:
        # Fewer concurrent warps take longer; start the low TLPs first so
        # the slowest points do not start last.
        cycles = map_supervised(run_point, points, jobs, key=lambda p: p[1])
    else:
        cycles = [run_point(p) for p in points]
    out: dict[int, dict[int, int]] = {fill: {} for fill in fill_points}
    for (fill, tlp), c in zip(points, cycles):
        out[fill][tlp] = c
    return out


def _run_point(point: tuple[int, int], spec, iters: int,
               l1d_lines: int | None) -> int:
    fill, tlp = point
    return run_microbench(fill, tlp, spec=spec, iters=iters,
                          l1d_lines=l1d_lines)


def best_tlp(curve: dict[int, int]) -> int:
    return min(curve, key=curve.get)


def format_fig3(data: dict[int, dict[int, int]]) -> str:
    tlps = sorted(next(iter(data.values())))
    lines = [
        "Fig. 3 — microbenchmark execution time (cycles) vs TLP",
        f"{'curve':24s} " + " ".join(f"{t:>9d}" for t in tlps) + "   best",
        "-" * (28 + 10 * len(tlps)),
    ]
    for fill, curve in data.items():
        lines.append(
            f"L1D-full-with-{fill:<2d}-warps   "
            + " ".join(f"{curve[t]:9d}" for t in tlps)
            + f"   {best_tlp(curve)}"
        )
    return "\n".join(lines)
