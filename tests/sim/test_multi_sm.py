"""Multi-SM shared-L2 engine tests.

Pins the three properties the :class:`~repro.sim.gpu.GPUEngine` is built
around: (1) the ``step``/``next_event_time`` interleave is an exact mirror
of ``SMEngine.run``'s fused loop, (2) co-resident SMs genuinely share one
L2 (hit rates move with ``sms`` while functional results stay correct),
and (3) the global interleave is deterministic — bit-identical metrics
across repeated runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.options import SimOptions, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V, TITAN_V_SIM, SMConfig
from repro.sim.events import SYNC_EVENT, ComputeEvent, MemEvent
from repro.sim.gpu import GPUEngine
from repro.sim.launch import launch_kernel, resolve_args
from repro.sim.metrics import SMMetrics, aggregate_metrics
from repro.sim.sm import SMEngine


# -- synthetic event streams -------------------------------------------------
# Drive the engines directly (no interpreter) so the differential below pins
# the timing model alone: compute bursts, divergent loads that miss L1, a
# barrier, and a store per warp.

def _stream_factory(warps_per_tb=2, insts=24):
    def factory(tb_id):
        def warp(w):
            base = (tb_id * warps_per_tb + w) * (1 << 16)
            yield ComputeEvent(6)
            for j in range(insts):
                stride = 4 * (1 + (w + j) % 3)
                addrs = base + j * 128 + np.arange(32, dtype=np.int64) * stride
                yield MemEvent(addrs, 4, False)
            yield SYNC_EVENT
            yield ComputeEvent(3)
            yield MemEvent(base + np.arange(32, dtype=np.int64) * 4, 4, True)
        return [warp(w) for w in range(warps_per_tb)]
    return factory


def test_gpu_engine_with_one_sm_matches_fused_run():
    """GPUEngine(sms=1) drives SM 0 through begin/step/finish; the result
    must be bit-identical to the fused ``SMEngine.run`` loop — the guarantee
    that ``step`` really is ``run``'s one-event mirror."""
    tb_ids = list(range(6))
    config = SMConfig(TITAN_V_SIM, 0)

    fused = SMEngine(TITAN_V_SIM, config)
    ref = fused.run(tb_ids, _stream_factory(), resident_limit=2)

    gpu = GPUEngine(TITAN_V_SIM, config, 1)
    [stepped] = gpu.run(tb_ids, _stream_factory(), resident_limit=2)

    assert stepped.summary() == ref.summary()
    assert stepped.cycles == ref.cycles
    assert stepped.l2_load.accesses == ref.l2_load.accesses
    assert stepped.l2_load.hits == ref.l2_load.hits
    assert stepped.dram_transactions == ref.dram_transactions


def test_gpu_engine_repeat_runs_bit_identical():
    config = SMConfig(TITAN_V_SIM, 0)
    runs = []
    for _ in range(2):
        gpu = GPUEngine(TITAN_V_SIM, config, 3)
        per_sm = gpu.run(list(range(9)), _stream_factory(), resident_limit=2)
        runs.append([m.summary() for m in per_sm])
    assert runs[0] == runs[1]


def test_gpu_engine_tb_deal_is_round_robin_with_overflow():
    config = SMConfig(TITAN_V_SIM, 0)
    gpu = GPUEngine(TITAN_V_SIM, config, 2)
    per_sm = gpu.run(list(range(7)), _stream_factory(), resident_limit=2)
    assert sum(m.tbs_executed for m in per_sm) == 7
    # Both SMs got work (initial deal is i % n), and every SM executed at
    # least its dealt share.
    assert all(m.tbs_executed >= 2 for m in per_sm)


def test_gpu_engine_rejects_bad_sms():
    with pytest.raises(ValueError):
        GPUEngine(TITAN_V_SIM, SMConfig(TITAN_V_SIM, 0), 0)


def test_aggregate_metrics_requires_records():
    with pytest.raises(ValueError):
        aggregate_metrics([])


# -- launch-level behaviour --------------------------------------------------

# Every TB reads the same a[] lines (the index depends on threadIdx only),
# so co-resident SMs genuinely share data: one SM's L1 compulsory misses
# prefetch the shared L2 for the others.
REUSE = """
__global__ void k(float *a, float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0f;
    for (int j = 0; j < 16; j++) {
        s += a[(j * 1024 + threadIdx.x * 4) % 4096];
    }
    out[i] = s;
}
"""


def _launch_reuse(sms, grid=16, block=256, n=4096):
    dev = Device(TITAN_V_SIM)
    a = dev.to_device(np.arange(n, dtype=np.float32))
    out = dev.zeros(grid * block)
    res = dev.launch(REUSE, "k", grid, block, [a, out], sms=sms)
    host_a = np.arange(n, dtype=np.float32)
    tid = np.arange(grid * block) % block
    ref = np.zeros(grid * block, dtype=np.float32)
    for j in range(16):
        ref += host_a[(j * 1024 + tid * 4) % n]
    np.testing.assert_allclose(out.to_host(), ref, rtol=1e-5)
    return res


def test_sms1_launch_is_the_single_sm_model():
    default = _launch_reuse(sms=None)     # resolves from SimOptions (1)
    explicit = _launch_reuse(sms=1)
    assert default.sms == explicit.sms == 1
    assert default.per_sm is None and explicit.per_sm is None
    assert explicit.metrics.summary() == default.metrics.summary()


def test_shared_l2_hit_rate_moves_with_co_residency():
    """Co-resident SMs pull each other's lines into the shared L2: the
    aggregate L2 hit rate must rise with ``sms`` on a reuse-heavy kernel —
    the inter-SM effect the single-SM slice model hides by construction."""
    by_sms = {sms: _launch_reuse(sms) for sms in (1, 2, 4)}
    rates = {sms: r.l2_hit_rate for sms, r in by_sms.items()}
    assert rates[2] > rates[1]
    assert rates[4] > rates[2]
    # Same grid split over more SMs: the critical path shrinks.
    assert by_sms[4].cycles < by_sms[1].cycles


def test_multi_sm_launch_shapes_and_aggregation():
    res = _launch_reuse(sms=4)
    assert res.sms == 4
    assert res.per_sm is not None and len(res.per_sm) == 4
    agg = res.metrics
    assert agg.cycles == max(m.cycles for m in res.per_sm)
    for counter in ("instructions", "tbs_executed", "dram_transactions",
                    "global_load_transactions", "barriers"):
        assert getattr(agg, counter) == sum(
            getattr(m, counter) for m in res.per_sm), counter
    # Per-SM shared-L2 attribution sums to the aggregate view.
    assert agg.l2_load.accesses == sum(
        m.l2_load.accesses for m in res.per_sm)
    assert agg.l2_load.hits == sum(m.l2_load.hits for m in res.per_sm)
    assert agg.l1_load.accesses == sum(
        m.l1_load.accesses for m in res.per_sm)
    assert sum(m.tbs_executed for m in res.per_sm) == res.tbs_simulated


def test_multi_sm_launch_deterministic():
    a = _launch_reuse(sms=4)
    b = _launch_reuse(sms=4)
    assert a.metrics.summary() == b.metrics.summary()
    assert [m.summary() for m in a.per_sm] == [m.summary() for m in b.per_sm]


def test_sms_resolves_from_active_options():
    with use_options(SimOptions(sms=2)):
        res = _launch_reuse(sms=None)
    assert res.sms == 2
    assert len(res.per_sm) == 2


def test_odd_sms_on_full_part_times_subset_but_runs_all():
    """TITAN_V (80 SMs), grid 160, sms=3: SMs 0-2 time their round-robin
    share (6 TBs); the rest shadow-execute so memory is complete."""
    dev = Device(TITAN_V)
    out = dev.zeros(160 * 32)
    res = dev.launch(
        """__global__ void k(float *out) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = (float)blockIdx.x;
        }""",
        "k", 160, 32, [out], sms=3,
    )
    assert res.sms == 3 and res.tbs_simulated == 6
    ref = np.repeat(np.arange(160, dtype=np.float32), 32)
    np.testing.assert_array_equal(out.to_host(), ref)


@pytest.mark.parametrize("tape", [False, True])
def test_multi_sm_functional_correctness_with_engines(tape):
    """Both functional engines (``tape`` when True, the ``interp`` oracle
    when False) produce correct buffers at sms > 1."""
    engine = "tape" if tape else "interp"
    with use_options(SimOptions(engine=engine, sms=2)):
        res = _launch_reuse(sms=None)
    assert res.sms == 2
    assert res.engine == engine


def test_dedup_replay_matches_direct_execution_at_multi_sm():
    """The tape engine replays one lowered kernel across every block of the
    launch at once (it replaced per-block dedup replay); its streams feed
    the same timing engine as directly interpreted warps, so tape and
    interp must agree bit-for-bit on every metric, per SM, at sms > 1."""
    results = {}
    for engine in ("interp", "tape"):
        with use_options(SimOptions(engine=engine, sms=2)):
            results[engine] = _launch_reuse(sms=None)
    tape, interp = results["tape"], results["interp"]
    assert tape.engine == "tape" and interp.engine == "interp"
    assert tape.sms == interp.sms == 2
    assert tape.metrics.summary() == interp.metrics.summary()
    assert [m.summary() for m in tape.per_sm] == \
        [m.summary() for m in interp.per_sm]


def test_governor_cloned_per_sm_at_multi_sm():
    """A cloneable governor is accepted at sms > 1: GPUEngine hands every SM
    its own instance, so per-SM epoch state never cross-talks."""
    from repro.baselines.dyncta import DynCtaGovernor

    dev = Device(TITAN_V_SIM)
    out = dev.zeros(4 * 256)
    res = dev.launch(
        """__global__ void k(float *o) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            o[i] = 1.0f;
        }""",
        "k", 4, 256, [out], sms=2, governor=DynCtaGovernor())
    assert res.sms == 2
    np.testing.assert_array_equal(out.to_host(),
                                  np.ones(4 * 256, dtype=np.float32))


def test_cloneless_governor_rejected_at_multi_sm():
    """Sharing one stateful governor across SMs would corrupt its epoch
    baselines; a governor without clone() must be refused up front."""
    from repro.sim.sm import GovernorProtocolError

    dev = Device(TITAN_V_SIM)
    out = dev.zeros(256)
    with pytest.raises(GovernorProtocolError, match="clone"):
        dev.launch("__global__ void k(float *o) { o[threadIdx.x] = 1.0f; }",
                   "k", 1, 256, [out], sms=2, governor=lambda eng: None)


def test_external_metrics_sink_rejected_at_multi_sm():
    dev = Device(TITAN_V_SIM)
    out = dev.zeros(256)
    src = "__global__ void k(float *o) { o[threadIdx.x] = 1.0f; }"
    unit = dev.compile(src)
    args = resolve_args(unit.kernel("k"), [int(out)])
    with pytest.raises(ValueError, match="metrics"):
        launch_kernel(unit, "k", 1, 256, args, dev.memory, TITAN_V_SIM,
                      metrics=SMMetrics(), sms=2)


# -- spec-level L2 sizing ----------------------------------------------------

def test_l2_shared_bytes_scales_and_validates():
    assert TITAN_V_SIM.l2_shared_bytes(1) == TITAN_V_SIM.l2_slice_bytes()
    assert TITAN_V_SIM.l2_shared_bytes(2) == 2 * TITAN_V_SIM.l2_shared_bytes(1)
    # TITAN_V_SIM keeps the 80-SM part's share via l2_share_sms.
    assert TITAN_V_SIM.l2_shared_bytes(80) == TITAN_V_SIM.l2_total_bytes
    for bad in (0, -1, 81):
        with pytest.raises(ValueError):
            TITAN_V_SIM.l2_shared_bytes(bad)


def test_sim_options_rejects_bad_sms():
    with pytest.raises(ValueError):
        SimOptions(sms=0)


# -- governor cadence across the fused fast path and step() -------------------

class _CountingGovernor:
    """Counts invocations; never throttles (pure cadence probe)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, engine):
        self.calls += 1

    def clone(self):
        return _CountingGovernor()


def test_governor_cadence_survives_runahead_fast_path():
    """The GTO run-ahead fast path keeps issuing inline without heap round
    trips — but it must still tick the governor counter per issued event, so
    the fused run() and the step()-driven GPUEngine(sms=1) invoke a governor
    exactly the same number of times on identical streams."""
    tb_ids = list(range(6))
    config = SMConfig(TITAN_V_SIM, 0)

    fused_gov = _CountingGovernor()
    fused = SMEngine(TITAN_V_SIM, config, governor=fused_gov,
                     governor_period=64)
    ref = fused.run(tb_ids, _stream_factory(), resident_limit=2)

    step_gov = _CountingGovernor()
    gpu = GPUEngine(TITAN_V_SIM, config, 1, governor=step_gov,
                    governor_period=64)
    [stepped] = gpu.run(tb_ids, _stream_factory(), resident_limit=2)

    assert fused_gov.calls == step_gov.calls > 0
    assert stepped.summary() == ref.summary()


def test_run_vs_step_differential_with_pausing_governor():
    """A governor that actually pauses TBs forces the fused loop off its
    fast path (pause bookkeeping is slow-path only); run() and step() must
    still agree bit-for-bit on every metric."""
    from repro.baselines.dyncta import DynCtaGovernor

    tb_ids = list(range(6))
    config = SMConfig(TITAN_V_SIM, 0)

    fused = SMEngine(TITAN_V_SIM, config, governor=DynCtaGovernor(),
                     governor_period=64)
    ref = fused.run(tb_ids, _stream_factory(), resident_limit=2)

    gpu = GPUEngine(TITAN_V_SIM, config, 1, governor=DynCtaGovernor(),
                    governor_period=64)
    [stepped] = gpu.run(tb_ids, _stream_factory(), resident_limit=2)

    assert stepped.summary() == ref.summary()
    assert stepped.cycles == ref.cycles
