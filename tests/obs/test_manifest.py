"""Run-manifest tests: signing, verification, tamper detection, and
signature determinism across --jobs parallelism."""

from __future__ import annotations

import json

from repro.obs.manifest import (
    SIGNED_FIELDS,
    build_manifest,
    load_manifest,
    manifest_path_for,
    sign,
    verify_manifest,
    write_manifest,
)
from repro.obs.trace import Span


def spans_taking(seconds: float):
    s = Span("experiment.sweep", start=1.0)
    s.end = 1.0 + seconds
    return [s]


def test_build_sign_verify_round_trip(tmp_path):
    m = build_manifest("profile ATAX", {"app": "ATAX", "jobs": 1},
                       spans=spans_taking(0.25),
                       metrics={"counters": {"sim.launches": 2}})
    assert m.signature.startswith("sha256:")
    assert verify_manifest(m)
    assert m.phases == {"experiment.sweep": 0.25}
    path = write_manifest(m, tmp_path / "manifest.json")
    assert verify_manifest(path)
    loaded = load_manifest(path)
    assert loaded.command == "profile ATAX"
    assert loaded.metrics == {"counters": {"sim.launches": 2}}
    assert json.loads(path.read_text())["schema"] == m.schema


def test_signature_ignores_wall_clock_and_metrics():
    """jobs=1 and jobs=8 runs time differently but sign identically."""
    fast = build_manifest("all --scale test", {"jobs": 1},
                          spans=spans_taking(0.1),
                          metrics={"counters": {"x": 1}})
    slow = build_manifest("all --scale test", {"jobs": 1},
                          spans=spans_taking(9.9),
                          metrics={"counters": {"x": 999}})
    assert fast.signature == slow.signature
    assert "phases" not in SIGNED_FIELDS and "metrics" not in SIGNED_FIELDS


def test_signature_covers_config_and_command():
    base = build_manifest("all", {"jobs": 1})
    assert build_manifest("all", {"jobs": 2}).signature != base.signature
    assert build_manifest("bench", {"jobs": 1}).signature != base.signature


def test_tampered_manifest_fails_verification():
    m = build_manifest("profile", {"app": "ATAX"})
    m.config["app"] = "BFS"
    assert not verify_manifest(m)
    m.signature = sign(m)
    assert verify_manifest(m)


def test_config_coercion_is_deterministic():
    from pathlib import Path

    a = build_manifest("x", {"p": Path("/tmp/x"), "t": (1, 2), "b": 3})
    b = build_manifest("x", {"b": 3, "t": [1, 2], "p": "/tmp/x"})
    assert a.signature == b.signature   # key order / tuple-vs-list immaterial


def test_manifest_path_for_sits_next_to_artifact(tmp_path):
    assert manifest_path_for("BENCH_sim.json").name == \
        "BENCH_sim.json.manifest.json"


def test_sweep_manifest_deterministic_across_jobs():
    """The real thing: a traced sweep at jobs=1 and jobs=2 produces
    manifests with identical signatures (phases/metrics differ, the signed
    identity does not)."""
    from repro import SimOptions
    from repro.experiments.common import ResultCache
    from repro.experiments.sweep import run_sweep
    from repro.obs.metrics_registry import MetricsRegistry, install as im
    from repro.obs.trace import Tracer, install as it

    cells = [("ATAX", "baseline", "max", "test"),
             ("BP", "baseline", "max", "test")]
    sigs = []
    for jobs in (1, 2):
        opts = SimOptions(jobs=jobs, trace=True, metrics=True)
        prev_t = it(Tracer(enabled=True))
        prev_r = im(MetricsRegistry(enabled=True))
        try:
            run_sweep(cells, jobs=jobs, cache=ResultCache(""), options=opts)
            from repro.obs.trace import tracer
            from repro.obs.metrics_registry import registry
            m = build_manifest(
                "sweep --scale test",
                {"cells": cells, "engine": opts.engine},
                spans=tracer().roots,
                metrics=registry().snapshot(),
            )
        finally:
            it(prev_t)
            im(prev_r)
        assert m.phases    # tracing actually captured the sweep
        sigs.append(m.signature)
    assert sigs[0] == sigs[1]
