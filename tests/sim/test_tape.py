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

from repro.frontend import parse
from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM
from repro.sim.events import ComputeEvent, MemEvent
from repro.sim.interp import KernelArgs, SharedBlock, WarpInterpreter
from repro.sim.launch import resolve_args, shared_layout_of
from repro.sim.tape import lower_kernel, record_tape_streams
from repro.transform import force_throttle

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


def test_do_while_side_effecting_condition():
    """A condition with a side effect runs once per trip, after the body:
    per-thread trips ``1 + x[i] % 5`` leave acc == n == that trip count,
    and both engines agree on every metric, instructions included."""
    x = np.arange(N, dtype=np.int32)
    src = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int lim = 1 + x[i] % 5;
    int acc = 0;
    int n = 0;
    do {
        acc += 1;
    } while (++n < lim);
    out[i] = acc * 100 + n;
}
"""
    _assert_tape_matches_interp(src, x)
    trips = 1 + x % 5
    np.testing.assert_array_equal(_run(src, x, "tape")[0], trips * 100 + trips)


def test_while_exited_lanes_do_not_retest():
    """A plain ``while`` tests its condition only for lanes still in the
    loop: with a side-effecting test, ``n`` stops at 2 on even lanes and 3
    on odd ones, on both engines."""
    x = np.zeros(N, dtype=np.int32)
    src = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int n = 0;
    while (++n < 2 + (threadIdx.x & 1)) {}
    out[i] = n + x[i];
}
"""
    _assert_tape_matches_interp(src, x)
    expected = 2 + (np.arange(N) & 1)
    for engine in ("interp", "tape"):
        np.testing.assert_array_equal(_run(src, x, engine)[0], expected)


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


# ---------------------------------------------------------------------------
# Per-slot event streams under shrinking loop masks
# ---------------------------------------------------------------------------
# The tape keeps a loop's mask object across iterations (and an ``if``'s
# partition across executions) only while the recomputed mask is equal, so
# the cached per-mask data stays right.  These kernels shrink the active set
# at a different iteration in each lane and each warp; every slot's event
# stream must match the interpreter's warp, event by event.

GRID, BLOCK = 2, 64


def _canon(ev):
    if isinstance(ev, ComputeEvent):
        return ("C", ev.ops, ev.sfu_ops)
    if isinstance(ev, MemEvent):
        return ("M", ev.addresses.tolist(), ev.access_size, ev.write,
                ev.space)
    return ("S",)


def _slot_streams(unit, x, engine, grid, block):
    dev = Device(TITAN_V_SIM)
    dx = dev.to_device(x)
    dout = dev.zeros(N, np.int32)
    kernel = unit.kernel("k")
    args = KernelArgs(tuple(resolve_args(kernel, [dx.address,
                                                  dout.address])))
    layout = shared_layout_of(kernel)
    warps = block // 32
    if engine == "tape":
        streams, _ = record_tape_streams(
            lower_kernel(unit, "k"), dev.memory, layout, 1, args,
            (grid, 1, 1), (block, 1, 1), warps, set(range(grid)))
    else:
        # No shared memory and no cross-warp data flow: each warp runs to
        # completion in turn, passing its SYNC markers.
        streams = [
            [list(WarpInterpreter(unit, kernel, dev.memory, SharedBlock(1),
                                  layout, args, (tb, 0, 0), (block, 1, 1),
                                  (grid, 1, 1), w).run())
             for w in range(warps)]
            for tb in range(grid)
        ]
    return ([[[_canon(e) for e in warp] for warp in tb] for tb in streams],
            dout.to_host())


def _assert_slot_streams_match(src, x, grid=GRID, block=BLOCK, split=1):
    unit = parse(src)
    if split > 1:
        unit = force_throttle(unit, "k", block, TITAN_V_SIM, split, 0,
                              grid=grid)
    ref, ref_out = _slot_streams(unit, x, "interp", grid, block)
    got, out = _slot_streams(unit, x, "tape", grid, block)
    np.testing.assert_array_equal(out, ref_out)
    for tb in range(grid):
        for w in range(block // 32):
            assert got[tb][w] == ref[tb][w], \
                f"TB {tb} warp {w}: tape event stream diverges from interp"


def _random_x(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 64, N).astype(np.int32)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_slot_streams_data_dependent_trip_count(seed):
    """Per-lane and per-warp trip counts: the clean ``for`` mask shrinks at
    a different iteration in every lane."""
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < (x[i] & 15) + (i / 32) * 3; j++) {{
        acc += x[(i + j) % {N}];
    }}
    out[i] = acc;
}}
"""
    _assert_slot_streams_match(src, _random_x(seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.integers(20, 63))
def test_slot_streams_guarded_break(seed, cut):
    """``break`` inside an ``if`` inside a ``for`` with a per-lane trip
    count: the general loop's alive, passed and step masks all shrink
    mid-loop, by the test and by the break."""
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < 6 + (x[(i + 1) % {N}] & 7); j++) {{
        int v = x[(i * 5 + j) % {N}];
        if (v > {cut}) {{
            acc += 1000;
            break;
        }}
        if (j < (i & 7)) {{
            acc += v;
        }}
    }}
    out[i] = acc;
}}
"""
    _assert_slot_streams_match(src, _random_x(seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), modulo=st.integers(2, 13))
def test_slot_streams_while_and_do_while(seed, modulo):
    """Top- and bottom-tested loops with per-lane trip counts; each warp
    leaves at a different iteration."""
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = x[i] % {modulo} + (i / 32) * 2;
    int acc = 0;
    while (j > 0) {{
        acc += x[(i + j) % {N}];
        j = j - 1;
    }}
    int t = x[(i + 7) % {N}] % {modulo} + (i / 32) * 3;
    do {{
        acc += t * t + 1;
        t = t - 1;
    }} while (t > 0);
    out[i] = acc;
}}
"""
    _assert_slot_streams_match(src, _random_x(seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_slot_streams_warp_split(seed):
    """A warp-split (N=4) kernel: each warp group runs the loop under its
    own mask between ``__syncthreads()``, with per-lane trip counts."""
    src = f"""
__global__ void k(int *x, int *out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < (x[i] & 7) + 4; j++) {{
        acc += x[(i * 3 + j) % {N}];
    }}
    out[i] = acc;
}}
"""
    _assert_slot_streams_match(src, _random_x(seed), grid=1, block=128,
                               split=4)
