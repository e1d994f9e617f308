"""Session facade tests: option resolution, the ``REPRO_SIM_SANITIZE``
switch, the result-cache lifecycle, and observability wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session, SimOptions
from repro.options import (
    SANITIZE_ENV,
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


# -- SimOptions ------------------------------------------------------------


def test_simoptions_validation():
    with pytest.raises(ValueError):
        SimOptions(engine="vulkan")
    with pytest.raises(ValueError):
        SimOptions(jobs=0)


def test_json_cache_path_is_rejected(tmp_path):
    """A ``*.json`` cache path names the retired single-file cache: it
    raises instead of quietly creating a store directory of that name."""
    from repro.experiments.common import ResultCache

    path = tmp_path / "results.json"
    with pytest.raises(ValueError, match="sharded store"):
        ResultCache(path)
    with pytest.raises(ValueError, match="sharded store"):
        Session("max", SimOptions(cache_dir=str(path))).run_app(
            "ATAX", "baseline", scale="test")
    assert not path.exists()


def test_current_options_prefers_active_over_env(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    explicit = SimOptions()
    with use_options(explicit):
        assert current_options() is explicit
    assert current_options().sanitize
    monkeypatch.setenv(SANITIZE_ENV, "0")
    assert not current_options().sanitize   # memo keyed on raw env
    assert active_options() is None


# -- Session ---------------------------------------------------------------


def test_session_resolves_env_once_at_construction(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    sess = Session("max")
    assert sess.options.sanitize
    # Later env changes do not affect an existing session.
    monkeypatch.setenv(SANITIZE_ENV, "0")
    assert sess.options.sanitize


def test_session_rejects_unknown_spec():
    with pytest.raises(ValueError, match="unknown spec"):
        Session("16k")


def test_run_app_on_custom_spec_raises_typed_error():
    """The harness names its cells by spec: a custom GPUSpec gets a
    SpecError naming the supported specs, not a bare KeyError."""
    from repro import TITAN_V
    from repro.api import SPEC_NAMES, SpecError

    sess = Session(TITAN_V, SimOptions(cache_dir=""))
    assert sess.spec_name == "custom"
    with pytest.raises(SpecError) as info:
        sess.run_app("ATAX", "baseline", scale="test")
    for name in SPEC_NAMES:
        assert repr(name) in str(info.value)


def test_session_end_to_end_launch():
    sess = Session("max", SimOptions())
    unit = sess.compile(SRC)
    x = sess.to_device(np.arange(8, dtype=np.float32))
    y = sess.zeros(8)
    res = sess.launch(unit, "scale", 1, 8, [x, y, 8])
    np.testing.assert_allclose(y.to_host(), 2.0 * np.arange(8))
    assert res.metrics.cycles > 0


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


def test_package_exports_session_api():
    import repro

    assert repro.Session is Session
    assert repro.SimOptions is SimOptions
    assert "Session" in repro.__all__
