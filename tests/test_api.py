"""Session facade tests: option resolution, env deprecation shim,
bit-identical results vs the legacy env path, and observability wiring."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import Session, SimOptions
from repro.options import (
    CACHE_ENV,
    ENGINE_ENV,
    active_options,
    current_options,
    use_options,
)

SRC = """
__global__ void scale(float* x, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = 2.0f * x[i];
}
"""


def _fresh_warnings(monkeypatch):
    """Make the once-per-process deprecation warnings observable again."""
    from repro import options as options_mod

    monkeypatch.setattr(options_mod, "_warned", set())


# -- SimOptions ------------------------------------------------------------


def test_simoptions_validation():
    with pytest.raises(ValueError):
        SimOptions(engine="vulkan")
    with pytest.raises(ValueError):
        SimOptions(jobs=0)


def test_simoptions_cache_path_semantics(tmp_path):
    assert SimOptions().cache_path() is None
    assert SimOptions(cache_dir="").cache_path() == ""
    # A .json path selects the legacy single-file cache...
    assert SimOptions(cache_dir=str(tmp_path / "r.json")).cache_path() == \
        str(tmp_path / "r.json")
    # ...while any other path is the root of the sharded store, verbatim.
    assert SimOptions(cache_dir=str(tmp_path)).cache_path() == str(tmp_path)


def test_env_resolution_with_deprecation_warning(monkeypatch):
    _fresh_warnings(monkeypatch)
    monkeypatch.setenv(ENGINE_ENV, "interp")
    monkeypatch.setenv(CACHE_ENV, "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        opts = SimOptions.from_env()
    assert (opts.engine, opts.cache_dir) == ("interp", "")
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 2
    assert any(ENGINE_ENV in str(w.message) for w in deprecations)


def test_env_deprecation_warns_once_per_var(monkeypatch):
    _fresh_warnings(monkeypatch)
    monkeypatch.setenv(CACHE_ENV, "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimOptions.from_env()
        SimOptions.from_env()
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1


def test_current_options_prefers_active_over_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "interp")
    explicit = SimOptions(engine="tape")
    with use_options(explicit):
        assert current_options() is explicit
    assert current_options().engine == "interp"
    monkeypatch.setenv(ENGINE_ENV, "tape")
    assert current_options().engine == "tape"   # memo keyed on raw env
    assert active_options() is None


# -- Session ---------------------------------------------------------------


def test_session_resolves_env_once_at_construction(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "interp")
    sess = Session("max")
    assert sess.options.engine == "interp"
    # Later env changes do not affect an existing session.
    monkeypatch.setenv(ENGINE_ENV, "tape")
    assert sess.options.engine == "interp"


def test_session_rejects_unknown_spec():
    with pytest.raises(ValueError, match="unknown spec"):
        Session("16k")


def test_session_end_to_end_launch():
    sess = Session("max", SimOptions())
    unit = sess.compile(SRC)
    x = sess.to_device(np.arange(8, dtype=np.float32))
    y = sess.zeros(8)
    res = sess.launch(unit, "scale", 1, 8, [x, y, 8])
    np.testing.assert_allclose(y.to_host(), 2.0 * np.arange(8))
    assert res.metrics.cycles > 0


def test_session_matches_env_path_bit_identical(monkeypatch):
    """The redesign contract: Session(engine=interp) reproduces the legacy
    REPRO_SIM_* env run exactly."""
    from repro.runtime import Device
    from repro.sim.arch import TITAN_V_SIM

    def run_legacy():
        monkeypatch.setenv(ENGINE_ENV, "interp")
        dev = Device(TITAN_V_SIM)
        unit = dev.compile(SRC)
        x = dev.to_device(np.arange(64, dtype=np.float32))
        y = dev.zeros(64, np.float32)
        res = dev.launch(unit, "scale", 2, 32, [x, y, 64])
        monkeypatch.delenv(ENGINE_ENV)
        return res, y.to_host().copy()

    def run_session():
        sess = Session("max", SimOptions(engine="interp"))
        unit = sess.compile(SRC)
        x = sess.to_device(np.arange(64, dtype=np.float32))
        y = sess.zeros(64)
        res = sess.launch(unit, "scale", 2, 32, [x, y, 64])
        return res, y.to_host().copy()

    legacy_res, legacy_y = run_legacy()
    sess_res, sess_y = run_session()
    assert legacy_res.metrics.cycles == sess_res.metrics.cycles
    assert legacy_res.metrics.instructions == sess_res.metrics.instructions
    np.testing.assert_array_equal(legacy_y, sess_y)


def test_session_scope_restores_ambient_state():
    from repro.obs.metrics_registry import registry
    from repro.obs.trace import tracer

    sess = Session("max", SimOptions(trace=True, metrics=True))
    assert not tracer().enabled and not registry().enabled
    sess.compile(SRC)
    assert not tracer().enabled and not registry().enabled
    assert active_options() is None


def test_session_trace_and_manifest(tmp_path):
    import json

    from repro.obs.manifest import verify_manifest

    sess = Session("max", SimOptions(trace=True, metrics=True))
    sess.reset_observability()
    unit = sess.compile(SRC)
    x = sess.to_device(np.arange(8, dtype=np.float32))
    y = sess.zeros(8)
    sess.launch(unit, "scale", 1, 8, [x, y, 8])

    names = {s.name for root in sess.spans() for s in root.walk()}
    assert "frontend.parse" in names and "sim.launch" in names
    assert sess.metrics_snapshot()["counters"]["sim.launches"] == 1
    assert "sim.launch" in sess.render_trace()

    trace_path = sess.write_trace(tmp_path / "t.json")
    payload = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])
    jsonl_path = sess.write_trace(tmp_path / "t.jsonl", fmt="jsonl")
    assert jsonl_path.read_text().strip()

    manifest_path = sess.write_manifest(tmp_path / "m.json",
                                        command="test-run")
    assert verify_manifest(manifest_path)
    sess.reset_observability()
    assert sess.spans() == []


def test_session_run_app_uses_session_cache():
    sess = Session("max", SimOptions(cache_dir=""))   # memory-only
    r1 = sess.run_app("ATAX", "baseline", scale="test")
    r2 = sess.run_app("ATAX", "baseline", scale="test")
    assert r1.total_cycles == r2.total_cycles > 0


# -- context manager / lifecycle --------------------------------------------


def test_session_is_a_context_manager(tmp_path):
    with Session("max", SimOptions(cache_dir=str(tmp_path))) as sess:
        assert not sess.closed
        result = sess.run_app("ATAX", "baseline", scale="test")
        assert result.total_cycles > 0
    assert sess.closed
    # The flushed cache is readable by a brand-new session.
    with Session("max", SimOptions(cache_dir=str(tmp_path))) as sess2:
        again = sess2.run_app("ATAX", "baseline", scale="test")
    assert again.total_cycles == result.total_cycles


def test_closed_session_refuses_pipeline_work():
    sess = Session("max", SimOptions(cache_dir=""))
    sess.close()
    sess.close()                      # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        sess.compile(SRC)
    with pytest.raises(RuntimeError, match="closed"):
        sess.run_app("ATAX", "baseline", scale="test")
    with pytest.raises(RuntimeError, match="closed"):
        with sess:
            pass


# -- SimOptions.signature ----------------------------------------------------


def test_signature_is_empty_for_default_identity():
    assert SimOptions().signature() == ""
    # Knobs that change HOW results are computed — not WHAT they are — must
    # not participate: caches stay shareable across engines and job counts.
    assert SimOptions(engine="interp", jobs=8,
                      cache_dir="x", trace=True).signature() == ""


def test_signature_reflects_result_identity_fields():
    assert SimOptions(sms=4).signature() == "sms4"
    assert SimOptions(sms=4).signature() == SimOptions(sms=4, jobs=2).signature()
    assert SimOptions(sms=2).signature() != SimOptions(sms=4).signature()


def test_cache_key_signature_matches_legacy_sms_suffix():
    from repro.experiments.common import ResultCache

    cell = ("ATAX", "baseline", "max", "test")
    assert ResultCache.key(*cell, signature="") == ResultCache.key(*cell)
    assert ResultCache.key(*cell, signature=SimOptions(sms=4).signature()) \
        == ResultCache.key(*cell, sms=4)


# -- typed requests through the Session --------------------------------------


def test_session_request_matches_direct_calls():
    from repro.service.protocol import CompileRequest, RunAppRequest

    sess = Session("max", SimOptions(cache_dir=""))
    comp = sess.request(CompileRequest(SRC))
    assert comp.kernels == ("scale",)

    resp = sess.request(RunAppRequest("ATAX", "baseline", scale="test"))
    direct = sess.run_app("ATAX", "baseline", scale="test")
    assert resp.result["total_cycles"] == direct.total_cycles
    assert resp.key == "ATAX|baseline|max|test"


def test_session_request_rejects_control_requests():
    from repro.service.protocol import PingRequest, ServiceError

    sess = Session("max", SimOptions(cache_dir=""))
    with pytest.raises(ServiceError) as exc:
        sess.request(PingRequest())
    assert exc.value.code == "unsupported"


def test_package_exports_session_api():
    import repro

    assert repro.Session is Session
    assert repro.SimOptions is SimOptions
    assert "Session" in repro.__all__
    # The service surface is part of the public, explicit API.
    for name in ("ServiceClient", "ServiceError", "CompileRequest",
                 "RunAppRequest", "RunAppResponse"):
        assert name in repro.__all__
        assert hasattr(repro, name)
