"""Experiment-harness robustness: atomic store writes, memory-only degraded
cells, and figure sweeps that keep going past degraded cells.  Corrupt-shard
recovery is covered in ``test_store.py``."""

from repro.experiments.common import AppResult, ResultCache, run_app
from repro.experiments.fig7 import build_fig7
from repro.testing import FaultSpec, inject_faults


def _result(app="GSMV", scheme="baseline", cycles=100):
    return AppResult(app=app, scheme=scheme, spec="max", scale="test",
                     total_cycles=cycles, kernels={})


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


def test_cache_write_is_atomic_no_stragglers(tmp_path):
    cache = ResultCache(tmp_path / "store")
    for i in range(5):
        cache.put(f"k{i}", _result(cycles=i + 1))
    # Every put replaced its shard whole; no temp files survive.
    assert not [p.name for p in (tmp_path / "store").iterdir()
                if ".tmp" in p.name]
    reloaded = ResultCache(tmp_path / "store")
    assert reloaded.get("k4").total_cycles == 5


def test_put_transient_is_memory_only(tmp_path):
    path = tmp_path / "store"
    cache = ResultCache(path)
    cache.put_transient("temp", _result())
    assert cache.get("temp") is not None
    assert not path.exists()                  # nothing written to disk
    assert ResultCache(path).get("temp") is None


def test_degraded_result_round_trips_diagnostics(tmp_path):
    diag = {"code": "CATT-E-SIM", "stage": "sim", "message": "boom",
            "severity": "error", "elapsed_seconds": 0.1}
    res = AppResult(app="A", scheme="catt", spec="max", scale="test",
                    total_cycles=0, kernels={}, diagnostics=[diag],
                    degraded=True)
    cache = ResultCache(tmp_path / "store")
    cache.put("k", res)
    back = ResultCache(tmp_path / "store").get("k")
    assert back.degraded and back.diagnostics == [diag]


# ---------------------------------------------------------------------------
# Sweeps continue past degraded cells
# ---------------------------------------------------------------------------


def test_fig7_completes_with_degraded_cells(tmp_path):
    cache = ResultCache(tmp_path / "store")
    # Kill only the CATT cell: its compile still works under a transform
    # fault (resilient), so break the sim boundary for one scheme by
    # pre-running the others clean.
    for scheme in ("baseline", "bftt"):
        run_app("GSMV", scheme, "max", "test", cache)
    with inject_faults(FaultSpec(stage="sim")):
        degraded = run_app("GSMV", "catt", "max", "test", cache)
    assert degraded.degraded
    data = build_fig7(apps=["GSMV"], scale="test", cache=cache)
    # The figure still materializes; the dead cell contributes neutrally.
    assert data["normalized_time"]["GSMV"]["catt"] == 1.0
    assert data["normalized_time"]["GSMV"]["bftt"] < 1.0


def test_fig7_completes_with_dead_baseline(tmp_path):
    cache = ResultCache(tmp_path / "store")
    with inject_faults(FaultSpec(stage="sim")):
        for scheme in ("baseline", "bftt", "catt"):
            run_app("GSMV", scheme, "max", "test", cache)
        data = build_fig7(apps=["GSMV"], scale="test", cache=cache)
    assert set(data["normalized_time"]["GSMV"]) == {"bftt", "catt"}
    assert data["geomean_speedup"]["catt"] == 1.0
