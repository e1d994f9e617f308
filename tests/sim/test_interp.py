"""SIMT interpreter semantics: results must match CUDA/C semantics."""

import numpy as np
import pytest

from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM
from repro.sim.interp import SimulationError


def run1(src, kernel, arrays, block=32, grid=1, scalars=()):
    """Launch and return the device copies of ``arrays`` (dict name->np)."""
    dev = Device(TITAN_V_SIM)
    bufs = {k: dev.to_device(v) for k, v in arrays.items()}
    args = [bufs[k] for k in arrays] + list(scalars)
    dev.launch(src, kernel, grid, block, args)
    return {k: b.to_host() for k, b in bufs.items()}


def test_thread_indexing():
    out = run1(
        "__global__ void k(int *a) { a[threadIdx.x] = threadIdx.x * 2; }",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], np.arange(32) * 2)


def test_block_indexing():
    out = run1(
        """__global__ void k(int *a) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            a[i] = blockIdx.x;
        }""",
        "k", {"a": np.zeros(64, np.int32)}, block=32, grid=2,
    )
    np.testing.assert_array_equal(out["a"], np.repeat([0, 1], 32))


def test_integer_division_truncates_toward_zero():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            a[i] = (i - 16) / 3;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = np.array([int((i - 16) / 3) for i in range(32)], np.int32)
    np.testing.assert_array_equal(out["a"], ref)


def test_integer_modulo_sign():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            a[i] = (i - 16) % 5;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = np.array([np.fix((i - 16) / 5) * 5 * -1 + (i - 16) for i in range(32)],
                   np.int32)
    ref = np.array([(i - 16) - int((i - 16) / 5) * 5 for i in range(32)], np.int32)
    np.testing.assert_array_equal(out["a"], ref)


def test_float_arithmetic_is_float32():
    out = run1(
        """__global__ void k(float *a) {
            a[threadIdx.x] = 0.1f + 0.2f;
        }""",
        "k", {"a": np.zeros(32, np.float32)},
    )
    assert out["a"][0] == np.float32(0.1) + np.float32(0.2)


def test_if_else_divergence():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            if (i < 10) { a[i] = 1; } else { a[i] = 2; }
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [1] * 10 + [2] * 22)


def test_divergent_loop_trip_counts():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            int s = 0;
            for (int j = 0; j < i; j++) { s += j; }
            a[i] = s;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = [sum(range(i)) for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_break_and_continue():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            int s = 0;
            for (int j = 0; j < 10; j++) {
                if (j == i) { break; }
                if (j % 2 == 0) { continue; }
                s += j;
            }
            a[i] = s;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    def ref(i):
        s = 0
        for j in range(10):
            if j == i:
                break
            if j % 2 == 0:
                continue
            s += j
        return s
    np.testing.assert_array_equal(out["a"], [ref(i) for i in range(32)])


def test_early_return_divergence():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            if (i < 5) { return; }
            a[i] = 7;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [0] * 5 + [7] * 27)


def test_while_and_do_while():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            int x = 0;
            while (x < i) { x++; }
            int y = 0;
            do { y++; } while (y < i);
            a[i] = x * 100 + y;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = [i * 100 + max(i, 1) for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_do_while_tests_its_condition_once_per_trip():
    """``do { acc += 1; } while (++n < 3);`` runs three trips in C, testing
    the side-effecting condition only after each body: acc == n == 3, with
    the same instruction count on both engines."""
    from repro.options import SimOptions, use_options

    src = """__global__ void k(int *a, int *b) {
        int i = threadIdx.x;
        int acc = 0;
        int n = 0;
        do { acc += 1; } while (++n < 3);
        a[i] = acc;
        b[i] = n;
    }"""
    instructions = {}
    for engine in ("interp", "tape"):
        with use_options(SimOptions(engine=engine)):
            dev = Device(TITAN_V_SIM)
            a, b = dev.zeros(32, np.int32), dev.zeros(32, np.int32)
            res = dev.launch(src, "k", 1, 32, [a, b])
        assert res.engine == engine
        np.testing.assert_array_equal(a.to_host(), 3)
        np.testing.assert_array_equal(b.to_host(), 3)
        instructions[engine] = res.metrics.instructions
    assert instructions["interp"] == instructions["tape"]


def test_ternary_and_short_circuit():
    out = run1(
        """__global__ void k(int *a, int *b) {
            int i = threadIdx.x;
            a[i] = (i > 15 && b[i] > 0) ? 1 : 0;
        }""",
        "k",
        {"a": np.zeros(32, np.int32),
         "b": np.array([1, -1] * 16, np.int32)},
    )
    ref = [(1 if i > 15 and (1 if i % 2 == 0 else -1) > 0 else 0)
           for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_math_intrinsics():
    x = np.linspace(0.1, 3.0, 32).astype(np.float32)
    out = run1(
        """__global__ void k(float *a, float *x) {
            int i = threadIdx.x;
            a[i] = sqrtf(x[i]) + expf(-x[i]) + fabsf(-x[i]) + fminf(x[i], 1.0f);
        }""",
        "k", {"a": np.zeros(32, np.float32), "x": x},
    )
    ref = np.sqrt(x) + np.exp(-x) + np.abs(-x) + np.minimum(x, 1.0)
    np.testing.assert_allclose(out["a"], ref, rtol=1e-5)


def test_min_max_integers():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            a[i] = min(i, 10) + max(i, 20);
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = [min(i, 10) + max(i, 20) for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_shared_memory_and_barrier():
    out = run1(
        """__global__ void k(float *a) {
            __shared__ float tile[32];
            int i = threadIdx.x;
            tile[i] = (float)i;
            __syncthreads();
            a[i] = tile[31 - i];
        }""",
        "k", {"a": np.zeros(32, np.float32)},
    )
    np.testing.assert_array_equal(out["a"], np.arange(31, -1, -1, dtype=np.float32))


def test_shared_2d_array():
    out = run1(
        """__global__ void k(float *a) {
            __shared__ float t[4][8];
            int i = threadIdx.x;
            t[i / 8][i % 8] = (float)i;
            __syncthreads();
            a[i] = t[i % 4][i / 4];
        }""",
        "k", {"a": np.zeros(32, np.float32)},
    )
    ref = [(i % 4) * 8 + i // 4 for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_cross_warp_barrier_communication():
    out = run1(
        """__global__ void k(float *a) {
            __shared__ float tile[64];
            int i = threadIdx.x;
            tile[i] = (float)(i * 10);
            __syncthreads();
            a[i] = tile[63 - i];
        }""",
        "k", {"a": np.zeros(64, np.float32)}, block=64,
    )
    np.testing.assert_array_equal(out["a"], [(63 - i) * 10 for i in range(64)])


def test_local_array_per_thread():
    out = run1(
        """__global__ void k(int *a) {
            int buf[4];
            int i = threadIdx.x;
            for (int j = 0; j < 4; j++) { buf[j] = i + j; }
            a[i] = buf[0] + buf[3];
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [2 * i + 3 for i in range(32)])


def test_device_function_call():
    out = run1(
        """
__device__ float square(float x) { return x * x; }
__global__ void k(float *a) {
    int i = threadIdx.x;
    a[i] = square((float)i) + square(2.0f);
}""",
        "k", {"a": np.zeros(32, np.float32)},
    )
    np.testing.assert_array_equal(out["a"], [i * i + 4.0 for i in range(32)])


def test_device_function_divergent_return():
    out = run1(
        """
__device__ int pick(int x) {
    if (x < 4) { return 100; }
    return 200;
}
__global__ void k(int *a) {
    int i = threadIdx.x;
    a[i] = pick(i);
}""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [100] * 4 + [200] * 28)


def test_atomic_add_collisions():
    out = run1(
        """__global__ void k(int *a) {
            atomicAdd(&a[threadIdx.x % 4], 1);
        }""",
        "k", {"a": np.zeros(4, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [8, 8, 8, 8])


def test_pre_and_post_increment():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            int x = i;
            int y = x++;
            int z = ++x;
            a[i] = y * 1000 + z;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    np.testing.assert_array_equal(out["a"], [i * 1000 + i + 2 for i in range(32)])


def test_compound_assignment_ops():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            int x = i;
            x += 3; x *= 2; x -= 1; x /= 3;
            a[i] = x;
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = [int(((i + 3) * 2 - 1) / 3) for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_bitwise_and_shift_ops():
    out = run1(
        """__global__ void k(int *a) {
            int i = threadIdx.x;
            a[i] = ((i << 2) | 1) & 63 ^ (i >> 1);
        }""",
        "k", {"a": np.zeros(32, np.int32)},
    )
    ref = [(((i << 2) | 1) & 63) ^ (i >> 1) for i in range(32)]
    np.testing.assert_array_equal(out["a"], ref)


def test_int_float_cast_semantics():
    out = run1(
        """__global__ void k(int *a, float *x) {
            int i = threadIdx.x;
            a[i] = (int)(x[i] * 10.0f);
        }""",
        "k",
        {"a": np.zeros(32, np.int32),
         "x": np.linspace(-1.55, 1.55, 32).astype(np.float32)},
    )
    x = np.linspace(-1.55, 1.55, 32).astype(np.float32)
    ref = np.trunc(x * np.float32(10.0)).astype(np.int32)
    np.testing.assert_array_equal(out["a"], ref)


def test_double_precision():
    out = run1(
        """__global__ void k(double *a) {
            int i = threadIdx.x;
            a[i] = 1.0 / (1.0 + (double)i);
        }""",
        "k", {"a": np.zeros(32, np.float64)},
    )
    np.testing.assert_allclose(out["a"], 1.0 / (1.0 + np.arange(32)), rtol=1e-12)


def test_scalar_kernel_arguments():
    dev = Device(TITAN_V_SIM)
    a = dev.zeros(32, np.int32)
    dev.launch(
        "__global__ void k(int *a, int off, float scale) {"
        " a[threadIdx.x] = off + (int)scale; }",
        "k", 1, 32, [a, 41, 1.9],
    )
    np.testing.assert_array_equal(a.to_host(), np.full(32, 42))


def test_partial_block_tail_masked():
    out = run1(
        """__global__ void k(int *a) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            a[i] = 1;
        }""",
        "k", {"a": np.zeros(48, np.int32)}, block=48, grid=1,
    )
    np.testing.assert_array_equal(out["a"], np.ones(48))


def test_undefined_variable_raises():
    with pytest.raises(SimulationError):
        run1("__global__ void k(int *a) { a[0] = nope; }",
             "k", {"a": np.zeros(4, np.int32)})


def test_unknown_function_raises():
    with pytest.raises(SimulationError):
        run1("__global__ void k(float *a) { a[0] = frobnicate(1.0f); }",
             "k", {"a": np.zeros(4, np.float32)})


def _promote_memo_sizes():
    import gc

    from repro.frontend.ast_nodes import CType

    return {id(o): (o, len(getattr(o, "_promote_memo", ())))
            for o in gc.get_objects() if isinstance(o, CType)}


def test_pointee_is_memoized_and_promotion_memo_stays_bounded():
    """``CType.pointee()`` returns one instance per pointer type.  A fresh
    CType per executed load would miss the dtype/promotion memos kept on
    each instance and grow the other operand's id-keyed promotion memo by
    one entry per load (1,024 in the launch below)."""
    from repro.frontend.ast_nodes import CType
    from repro.workloads.microbench import run_microbench

    t = CType("float", 1)
    assert t.pointee() is t.pointee()
    assert t.pointee() == CType("float")

    before = _promote_memo_sizes()
    run_microbench(4, 1, iters=2, l1d_lines=64)
    after = _promote_memo_sizes()
    grown = [(str(o), n - before.get(k, (None, 0))[1])
             for k, (o, n) in after.items()]
    assert max(g for _, g in grown) <= 64, \
        sorted(grown, key=lambda g: -g[1])[:3]
