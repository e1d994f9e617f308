"""Dynamic shadow-memory sanitizer: per-word last-access tracking with
barrier-epoch ordering, on both execution engines."""

import numpy as np
import pytest

from repro.options import SimOptions, current_options, use_options
from repro.runtime import Device
from repro.sim.arch import TITAN_V_SIM

ENGINES = ("interp", "tape")

RACY = """
__global__ void k(float *a) {
    __shared__ float tile[33];
    int t = threadIdx.x;
    tile[t] = a[t];
    a[t] = tile[t + 1];
}
"""

CLEAN = """
__global__ void k(float *a) {
    __shared__ float tile[33];
    int t = threadIdx.x;
    tile[t] = a[t];
    __syncthreads();
    a[t] = tile[t + 1];
}
"""


def _launch(src, block=32, grid=2, engine="interp", sanitize=True):
    with use_options(SimOptions(engine=engine, sanitize=sanitize)):
        dev = Device(TITAN_V_SIM)
        a = dev.to_device(np.arange(block + 1, dtype=np.float32))
        return dev.launch(src, "k", grid, block, [a])


@pytest.mark.parametrize("engine", ENGINES)
def test_racy_kernel_reports(engine):
    res = _launch(RACY, engine=engine)
    san = res.sanitizer
    assert san is not None and san.report_count > 0
    r = san.reports[0]
    assert r.space == "shared" and r.array == "tile"
    assert r.kind in ("write-read", "read-write", "write-write")
    # both parties are identified down to (warp, lane, kind)
    assert len(r.first) == 3 and len(r.second) == 3
    assert "tile" in san.describe()


@pytest.mark.parametrize("engine", ENGINES)
def test_barrier_clears_the_epoch(engine):
    res = _launch(CLEAN, engine=engine)
    assert res.sanitizer is not None
    assert res.sanitizer.report_count == 0
    assert res.sanitizer.accesses > 0        # it did watch the launch


def test_off_by_default():
    res = _launch(RACY, sanitize=False)
    assert res.sanitizer is None
    assert not current_options().sanitize


def test_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    assert current_options().sanitize
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "0")
    assert not current_options().sanitize


def test_atomic_pairs_not_reported():
    src = """
__global__ void k(int *out) {
    __shared__ int c[1];
    atomicAdd(&c[0], 1);
    __syncthreads();
    out[threadIdx.x] = c[0];
}
"""
    with use_options(SimOptions(sanitize=True)):
        dev = Device(TITAN_V_SIM)
        out = dev.zeros(32, dtype=np.int32)
        res = dev.launch(src, "k", 1, 32, [out])
    assert res.sanitizer.report_count == 0
    assert int(out.to_host()[0]) == 32


def test_global_race_detected():
    src = """
__global__ void k(float *a) {
    a[0] = (float) threadIdx.x;
}
"""
    with use_options(SimOptions(sanitize=True)):
        dev = Device(TITAN_V_SIM)
        a = dev.zeros(4)
        res = dev.launch(src, "k", 1, 64, [a])
    kinds = {(r.space, r.array) for r in res.sanitizer.reports}
    assert ("global", "a") in kinds


def test_reports_deduplicated_per_tb():
    # 32 conflicting words collapse to one (space, array, kind) report
    # per TB.
    res = _launch(RACY, grid=3)
    per_tb = {}
    for r in res.sanitizer.reports:
        per_tb.setdefault(r.tb, []).append(r)
    assert len(per_tb) == 3
    for reports in per_tb.values():
        assert len({(r.space, r.array, r.kind) for r in reports}) == \
            len(reports)


def test_metrics_counters():
    from repro.obs.metrics_registry import MetricsRegistry, install

    prev = install(MetricsRegistry(enabled=True))
    try:
        res = _launch(RACY)
        snap = install(prev).snapshot()
    finally:
        install(prev)
    assert snap["counters"]["sanitize.launches"] == 1
    assert snap["counters"]["sanitize.reports"] == res.sanitizer.report_count


def test_engines_agree_on_verdicts():
    for src, racy in ((RACY, True), (CLEAN, False)):
        counts = {e: _launch(src, engine=e).sanitizer.report_count
                  for e in ENGINES}
        assert (counts["interp"] > 0) == racy
        assert (counts["tape"] > 0) == racy
