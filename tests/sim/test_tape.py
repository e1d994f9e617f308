"""Divergence-mask execution on the tape engine: hypothesis differentials.

The tape engine executes every resident slot of a launch at once, driving
structured control flow with per-slot divergence masks.  The hardest cases
are the mask-maintenance corners: a ``break`` taken under a nested guard,
``if``/``else`` partitions nested inside each other, and ``do``/``while``
loops whose bottom-tested condition gives every thread at least one trip.
Hypothesis generates kernels with data-dependent per-thread trip counts and
branch choices; for each one, the tape engine must bit-match the AST-walk
interpreter on both the device buffers and the cycle/cache metrics (which
embed the per-statement event stream through the timing model).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM

N = 128


def _run(src: str, x: np.ndarray, engine: str):
    with use_options(SimOptions(engine=engine)):
        dev = Device(TITAN_V_SIM)
        dx = dev.to_device(x)
        dout = dev.zeros(N, np.int32)
        res = dev.launch(src, "k", N // 32, 32, [dx, dout])
    sig = tuple(sorted(res.metrics.summary().items()))
    return dout.to_host(), sig, res.engine


def _assert_tape_matches_interp(src: str, x: np.ndarray):
    ref_out, ref_sig, ref_engine = _run(src, x, "interp")
    assert ref_engine == "interp"
    out, sig, engine = _run(src, x, "tape")
    assert engine == "tape", "tape launch silently fell back"
    np.testing.assert_array_equal(out, ref_out)
    assert sig == ref_sig, "tape event stream diverges from interp"


@settings(max_examples=20, deadline=None)
@given(
    cut=st.integers(-50, 50),
    limit=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_guarded_break_divergence(cut, limit, seed):
    """Data-dependent ``break`` under an ``if``: per-thread trip counts."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < {limit}; j++) {{
        if (x[(i + j) % {N}] > {cut}) {{
            acc += 1000;
            break;
        }}
        acc += x[(i * 7 + j) % {N}];
    }}
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    seed=st.integers(0, 2**16),
)
def test_nested_if_divergence(a, b, seed):
    """Nested if/else partitions: four-way mask split per warp."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int v = x[i];
    int r = 0;
    if (v > {a}) {{
        if ((i & 3) == 0) {{
            r = v * 2;
        }} else {{
            r = v - {b};
        }}
    }} else {{
        if (v < {b}) {{
            r = -v;
        }} else {{
            r = v * v;
        }}
    }}
    out[i] = r;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=20, deadline=None)
@given(
    modulo=st.integers(2, 9),
    thresh=st.integers(-3, 3),
    seed=st.integers(0, 2**16),
)
def test_do_while_divergence(modulo, thresh, seed):
    """Bottom-tested loop with per-thread trip counts (>= 1 for all)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 20, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = x[i] % {modulo};
    int acc = 0;
    do {{
        acc += j * j + 1;
        j = j - 1;
    }} while (j > {thresh});
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


@settings(max_examples=15, deadline=None)
@given(
    cut=st.integers(-30, 30),
    limit=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_continue_in_nested_if(cut, limit, seed):
    """``continue`` under a nested guard re-merges at the loop step."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, N).astype(np.int32)
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < {limit}; j++) {{
        int v = x[(i + 3 * j) % {N}];
        if (v > {cut}) {{
            if ((j & 1) == 0) {{
                continue;
            }}
            acc -= v;
        }}
        acc += v;
    }}
    out[i] = acc;
}}
"""
    _assert_tape_matches_interp(src, x)


RECURSIVE = """
__device__ int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = fact(x[i] % 5);
}
"""


def test_unlowerable_kernel_falls_back_to_interp():
    """The lowerer rejects recursive device calls; such a launch runs on the
    interpreter and says so, with the interpreter's own results."""
    x = np.arange(N, dtype=np.int32)
    out, sig, engine = _run(RECURSIVE, x, "tape")
    assert engine == "interp"
    ref_out, ref_sig, _ = _run(RECURSIVE, x, "interp")
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(out[:5], [1, 1, 2, 6, 24])
    assert sig == ref_sig
