"""Figure-3 microbenchmarks: ``L1D-full-with-K-warps``.

A fixed workload — 32 warps, each repeatedly sweeping a private region of
``SPAN = L1D_lines / K`` cache lines — run at different TLP levels.  TLP is
limited exactly the way CATT limits it (warp-group splitting, Fig. 4), so
the total work is constant across the curve and only the *concurrency*
varies: ``K`` concurrent warps fill the L1D; more thrash it; fewer
under-utilize the SM (§3.3's trade-off).
"""

from __future__ import annotations

import numpy as np

from ..frontend import parse
from ..runtime import Device
from ..sim.arch import TITAN_V_SIM, GPUSpec
from ..transform import force_throttle

TOTAL_WARPS = 32


def microbench_source(span_lines: int, iters: int) -> str:
    return f"""
#define SPAN {span_lines}
#define ITERS {iters}

__global__ void microbench(float *data, float *out) {{
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    int warp = tid / 32;
    int lane = tid % 32;
    float acc = 0.0f;
    for (int t = 0; t < ITERS; t++) {{
        for (int s = 0; s < SPAN; s++) {{
            acc += data[(warp * SPAN + s) * 32 + lane];
        }}
    }}
    out[tid] = acc;
}}
"""


def run_microbench(
    fill_warps: int,
    tlp_warps: int,
    spec: GPUSpec = TITAN_V_SIM,
    iters: int = 2,
    l1d_lines: int | None = None,
    total_warps: int = TOTAL_WARPS,
) -> int:
    """Cycles for the fixed 32-warp microbenchmark throttled to ``tlp_warps``
    concurrent warps, with per-warp footprint sized so ``fill_warps`` warps
    fill the L1D."""
    if total_warps % tlp_warps != 0:
        raise ValueError(f"TLP {tlp_warps} must divide {total_warps} warps")
    if l1d_lines is None:
        l1d_lines = spec.l1d_bytes_for_carveout(0) // spec.cache_line
    span = max(l1d_lines // fill_warps, 1)
    nthreads = total_warps * spec.warp_size
    unit = parse(microbench_source(span, iters))
    n = total_warps // tlp_warps
    if n > 1:
        unit = force_throttle(unit, "microbench", nthreads, spec, n, 0, grid=1)
    dev = Device(spec)
    data_host = np.arange(total_warps * span * 32, dtype=np.float32)
    data = dev.to_device(data_host)
    out = dev.zeros(nthreads)
    res = dev.launch(unit, "microbench", grid=1, block=nthreads,
                     args=[data, out])
    expected = (
        data_host.reshape(total_warps, span, 32).sum(axis=1) * iters
    ).reshape(-1)
    np.testing.assert_allclose(out.to_host(), expected, rtol=1e-3)
    return res.cycles
