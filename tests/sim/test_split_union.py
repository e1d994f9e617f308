"""Warp splits on the tape: one union pass vs one pass per warp group.

A Fig. 4 split whose independence proof holds is tagged by the transform,
and the tape runs its loop once under the union of the group masks, moving
each slot's events to its own group's guard.  These tests hold that path to
the group-by-group one: the same AST without the tags must give the same
per-slot event streams, device memory and launch metrics, for every
registry kernel under every BFTT ``(n, 0)`` candidate.  Splits the union
must not take (shared-memory writes, barriers, atomics, stale tags,
sanitized launches) must stay on the group-by-group path and still match
the interpreter.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.bftt import apply_fixed_throttle, candidate_factors
from repro.frontend import parse
from repro.frontend.ast_nodes import (
    Block,
    DoWhileStmt,
    ForStmt,
    FunctionDef,
    IfStmt,
    TranslationUnit,
    WhileStmt,
)
from repro.frontend.codegen import emit
from repro.obs.metrics_registry import MetricsRegistry, install
from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim import launch as launch_mod
from repro.sim.arch import TITAN_V_SIM
from repro.sim.events import ComputeEvent, MemEvent
from repro.sim.tape import lower_kernel, record_tape_streams
from repro.transform import force_throttle
from repro.workloads import WORKLOADS, get_workload

SPEC = TITAN_V_SIM


def _strip(stmt):
    """``stmt`` rebuilt without any warp-group tag."""
    if isinstance(stmt, Block):
        return Block(tuple(_strip(s) for s in stmt.statements), stmt.loc)
    if isinstance(stmt, IfStmt):
        return IfStmt(stmt.cond, _strip(stmt.then),
                      None if stmt.otherwise is None
                      else _strip(stmt.otherwise), stmt.loc)
    if isinstance(stmt, (ForStmt, WhileStmt, DoWhileStmt)):
        return dataclasses.replace(stmt, body=_strip(stmt.body))
    return stmt


def _untagged(unit: TranslationUnit) -> TranslationUnit:
    funcs = tuple(
        FunctionDef(f.name, f.return_type, f.params, _strip(f.body),
                    is_kernel=f.is_kernel, is_device=f.is_device, loc=f.loc)
        for f in unit.functions)
    return TranslationUnit(funcs, dict(unit.defines))


def _tags(unit: TranslationUnit) -> list:
    from repro.frontend.ast_nodes import statements_in

    return [s.split for f in unit.functions for s in statements_in(f.body)
            if isinstance(s, IfStmt) and s.split is not None]


def _canon(ev):
    if isinstance(ev, ComputeEvent):
        return ("C", ev.ops, ev.sfu_ops)
    if isinstance(ev, MemEvent):
        return ("M", ev.addresses.tolist(), ev.access_size, ev.write,
                ev.space)
    return ("S",)


def _split_counts(reg: MetricsRegistry) -> tuple[int, int]:
    snap = reg.snapshot()["counters"]
    return (snap.get("sim.tape.splits.union", 0),
            snap.get("sim.tape.splits.npass", 0))


def _record(monkeypatch, wl, unit, sanitize=False):
    """Run every launch of ``wl`` with ``unit`` on the tape; return per-launch
    canonical slot streams, the device buffers, the launch results and the
    (union, npass) split counts."""
    recorded = []

    def spy(*args, **kw):
        streams, shadows = record_tape_streams(*args, **kw)
        recorded.append([[[_canon(e) for e in warp] for warp in tb]
                         for tb in streams])
        return streams, shadows

    monkeypatch.setattr(launch_mod, "record_tape_streams", spy)
    reg = MetricsRegistry(enabled=True)
    prev = install(reg)
    try:
        with use_options(SimOptions(engine="tape", sanitize=sanitize)):
            dev = Device(SPEC)
            buffers = wl.setup(dev)
            results = wl.execute(dev, unit, buffers)
    finally:
        install(prev)
    counts = _split_counts(reg)
    memory = {k: v.to_host() for k, v in sorted(buffers.items())
              if hasattr(v, "to_host")}
    assert {r.engine for r in results} == {"tape"}
    return recorded, memory, results, counts


def _metrics(results) -> list[dict]:
    """Every LaunchResult metric field, the memory trace by value."""
    out = []
    for r in results:
        d = {f.name: getattr(r.metrics, f.name)
             for f in dataclasses.fields(r.metrics)}
        trace = d.pop("mem_trace")
        d["mem_trace"] = (trace.stride, trace.seq, trace.points)
        out.append((r.kernel_name, r.grid, r.block, r.tbs_simulated, d))
    return out


def _assert_same(a, b):
    streams_a, mem_a, res_a, _ = a
    streams_b, mem_b, res_b, _ = b
    assert streams_a == streams_b, "per-slot event streams differ"
    assert mem_a.keys() == mem_b.keys()
    for name in mem_a:
        np.testing.assert_array_equal(mem_a[name], mem_b[name], err_msg=name)
    assert _metrics(res_a) == _metrics(res_b)
    assert [r.sanitizer for r in res_a] == [r.sanitizer for r in res_b]


def _bftt_units():
    for app in sorted(WORKLOADS):
        wl = get_workload(app, scale="test")
        for n, m in candidate_factors(wl, SPEC):
            if m == 0 and n > 1:
                yield app, n


@pytest.mark.parametrize("app,n", list(_bftt_units()))
def test_union_matches_group_passes_on_registry(monkeypatch, app, n):
    """Tagged vs untagged BFTT ``(n, 0)`` units: same streams, same memory,
    same metrics.  The untagged AST emits the same CUDA."""
    tagged = apply_fixed_throttle(get_workload(app, scale="test"), SPEC, n, 0)
    plain = _untagged(tagged)
    assert _tags(tagged) and not _tags(plain)
    assert emit(tagged) == emit(plain) and tagged == plain
    got = _record(monkeypatch, get_workload(app, scale="test"), tagged)
    ref = _record(monkeypatch, get_workload(app, scale="test"), plain)
    _assert_same(got, ref)
    assert ref[3] == (0, 0)  # no tag, no split site
    union, npass = got[3]
    assert union + npass > 0


@pytest.mark.parametrize("app", ["ATAX", "MVT", "GSMV", "SYR2K"])
def test_proved_bftt_kernels_take_the_union(monkeypatch, app):
    tagged = apply_fixed_throttle(get_workload(app, scale="test"), SPEC, 4, 0)
    union, npass = _record(monkeypatch, get_workload(app, scale="test"),
                           tagged)[3]
    assert union > 0 and npass == 0


@pytest.mark.parametrize("app", ["BP", "BFS", "2MM", "3MM"])
def test_rejected_bftt_kernels_stay_on_group_passes(monkeypatch, app):
    tagged = apply_fixed_throttle(get_workload(app, scale="test"), SPEC, 2, 0)
    union, npass = _record(monkeypatch, get_workload(app, scale="test"),
                           tagged)[3]
    assert npass > 0
    if app != "BFS":  # bfs_kernel2's loop-free twin has no split at all
        assert union == 0


# ---------------------------------------------------------------------------
# Splits that must stay on the group-by-group path
# ---------------------------------------------------------------------------

N_THREADS = 128


def _launch(unit, engine, x, grid=2, block=N_THREADS // 2, sanitize=False):
    reg = MetricsRegistry(enabled=True)
    prev = install(reg)
    try:
        with use_options(SimOptions(engine=engine, sanitize=sanitize)):
            dev = Device(SPEC)
            dx = dev.to_device(x)
            dout = dev.zeros(N_THREADS, np.int32)
            res = dev.launch(unit, "k", grid, block, [dx, dout])
    finally:
        install(prev)
    return dout.to_host(), res, _split_counts(reg)


SHARED_WRITE = """
__global__ void k(int *x, int *out) {
    __shared__ int s[64];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 4; j++) {
        s[threadIdx.x] = x[i] + j;
    }
    out[i] = s[threadIdx.x];
}
"""

BARRIER = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < 4; j++) {
        acc += x[(i + j) % 128];
        __syncthreads();
    }
    out[i] = acc;
}
"""

ATOMIC = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 3; j++) {
        atomicAdd(&out[(i + j) % 8], x[i]);
    }
}
"""

# Each element is shared by one thread of each warp group.  The
# independence half does not see these stores (it records only subscripted
# `a[i] op= v` stores), so the union proof must reject them: one lockstep
# pass would add once per element where the groups add once each.
INCREMENT = """
__global__ void k(int *x, int *out) {
    for (int j = 0; j < 4; j++) {
        out[blockIdx.x * 32 + (threadIdx.x & 31)]++;
    }
}
"""

DEREF_STORE = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int *p = out + blockIdx.x * 32 + (threadIdx.x & 31);
    for (int j = 0; j < 3; j++) {
        *p += x[i];
    }
}
"""

INDEPENDENT = """
__global__ void k(int *x, int *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int j = 0; j < (x[i] & 7) + 2; j++) {
        acc += x[(i * 5 + j) % 128];
    }
    out[i] = acc;
}
"""


@pytest.mark.parametrize(
    "src", [SHARED_WRITE, BARRIER, ATOMIC, INCREMENT, DEREF_STORE],
    ids=["shared-write", "barrier", "atomicAdd", "increment", "deref-store"])
def test_unsafe_splits_run_group_by_group(src):
    unit = force_throttle(parse(src), "k", N_THREADS // 2, SPEC, 2, 0,
                          grid=2)
    assert _tags(unit)
    x = np.arange(N_THREADS, dtype=np.int32) * 3 % 17
    ref_out, ref, _ = _launch(unit, "interp", x)
    out, res, (union, npass) = _launch(unit, "tape", x)
    assert (union, npass) == (0, 1)
    np.testing.assert_array_equal(out, ref_out)
    assert _metrics([res]) == _metrics([ref])


def test_stale_tag_falls_back_to_group_passes():
    """A tag proved for a one-block grid does not cover a two-block one."""
    unit = force_throttle(parse(INDEPENDENT), "k", 64, SPEC, 2, 0, grid=1)
    assert {t.proved for t in _tags(unit)} == {True}
    x = np.arange(N_THREADS, dtype=np.int32) * 7 % 23
    _, _, covered = _launch(unit, "tape", x, grid=1, block=64)
    assert covered == (1, 0)
    ref_out, ref, _ = _launch(unit, "interp", x, grid=2, block=64)
    out, res, counts = _launch(unit, "tape", x, grid=2, block=64)
    assert counts == (0, 1)
    np.testing.assert_array_equal(out, ref_out)
    assert _metrics([res]) == _metrics([ref])


def test_sanitized_launch_reports_match_group_passes():
    unit = force_throttle(parse(INDEPENDENT), "k", N_THREADS // 2, SPEC, 2, 0,
                          grid=2)
    x = np.arange(N_THREADS, dtype=np.int32) % 11
    out, res, counts = _launch(unit, "tape", x, sanitize=True)
    ref_out, ref, ref_counts = _launch(_untagged(unit), "tape", x,
                                       sanitize=True)
    assert counts == (0, 1) and ref_counts == (0, 0)
    np.testing.assert_array_equal(out, ref_out)
    assert res.sanitizer == ref.sanitizer
    assert res.sanitizer.accesses > 0
    assert _metrics([res]) == _metrics([ref])


def test_tag_does_not_change_lowering_shape():
    """The tagged program lowers the same guards and barriers as the plain
    one; only the guard opcode differs."""
    from repro.sim import tape

    unit = force_throttle(parse(INDEPENDENT), "k", N_THREADS, SPEC, 4, 0,
                          grid=1)
    tagged = lower_kernel(unit, "k")
    plain = lower_kernel(_untagged(unit), "k")
    assert len(tagged.splits) == 1 and not plain.splits
    ops = [u[0] for u in tagged.uops]
    assert ops.count(tape.OP_GIF) == 4 and tape.OP_IF not in ops
    assert [tape.OP_IF if o == tape.OP_GIF else o for o in ops] == \
        [u[0] for u in plain.uops]
