"""Bench harness unit tests: payload formatting and the regression gate.

The expensive measurement paths (``bench_engines``/``bench_sweep``) are
exercised end-to-end by the CI perf-smoke job; here we pin the pure logic
they feed.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench import (
    ENGINE_CONFIGS,
    EXIT_BASELINE_UNTRUSTED,
    check_regression,
    format_bench,
    verify_baseline_manifest,
)


def payload(sweep_s=40.0, interp=70_000, tape=300_000):
    return {
        "scale": "test",
        "jobs": 2,
        "engine_throughput": {
            "interp": {"seconds": 1.0, "warp_instructions": interp,
                       "warp_instructions_per_sec": interp},
            "tape": {"seconds": 1.0, "warp_instructions": tape,
                     "warp_instructions_per_sec": tape,
                     "speedup_vs_interp": round(tape / interp, 2)},
        },
        "sweep": {"seconds": sweep_s, "cells": 99, "computed": 99,
                  "degraded": 0, "jobs": 2,
                  "seed_baseline_seconds": 129.8,
                  "speedup_vs_seed": round(129.8 / sweep_s, 2)},
    }


@pytest.fixture
def baseline_file(tmp_path):
    path = tmp_path / "BENCH_baseline.json"
    path.write_text(json.dumps(payload()))
    return path


def test_engine_configs_cover_both_engines():
    assert ENGINE_CONFIGS == ("interp", "tape")


def test_check_regression_passes_identical(baseline_file):
    assert check_regression(payload(), baseline_file) == []


def test_check_regression_tolerates_up_to_factor(baseline_file):
    # 1.9x slower sweep and 1.9x lower throughput: within the 2x gate.
    ok = payload(sweep_s=40.0 * 1.9, interp=int(70_000 / 1.9),
                 tape=int(300_000 / 1.9))
    assert check_regression(ok, baseline_file) == []


def test_check_regression_flags_slow_sweep(baseline_file):
    bad = payload(sweep_s=40.0 * 2.5)
    failures = check_regression(bad, baseline_file)
    assert len(failures) == 1
    assert "sweep wall-clock" in failures[0]


def test_check_regression_flags_throughput_drop(baseline_file):
    bad = payload(tape=300_000 // 3)
    failures = check_regression(bad, baseline_file)
    assert any("tape throughput" in f for f in failures)


def test_check_regression_flags_missing_engine_row(baseline_file):
    """A baseline engine row the payload no longer measures must fail the
    gate instead of passing it unchecked."""
    bad = payload()
    del bad["engine_throughput"]["tape"]
    failures = check_regression(bad, baseline_file)
    assert len(failures) == 1
    assert "tape" in failures[0] and "missing" in failures[0]


def test_check_regression_custom_factor(baseline_file):
    bad = payload(sweep_s=40.0 * 1.5)
    assert check_regression(bad, baseline_file) == []
    assert check_regression(bad, baseline_file, factor=1.2)


def test_format_bench_readable():
    text = format_bench(payload())
    assert "interp" in text and "tape" in text
    assert "vs interp" in text and "4.29x" in text
    assert "compiled" not in text
    assert "3.24x" in text or "vs seed" in text
    assert "99 cells" in text


def test_verify_baseline_manifest_accepts_signed(baseline_file):
    from repro.obs.manifest import (
        build_manifest,
        manifest_path_for,
        write_manifest,
    )

    manifest = build_manifest(command="bench", config={"scale": "test"})
    write_manifest(manifest, manifest_path_for(baseline_file))
    assert verify_baseline_manifest(baseline_file) is None


def test_verify_baseline_manifest_rejects_missing(baseline_file):
    problem = verify_baseline_manifest(baseline_file)
    assert problem is not None and "missing" in problem
    assert EXIT_BASELINE_UNTRUSTED == 2


def test_verify_baseline_manifest_rejects_tampered(baseline_file):
    from repro.obs.manifest import (
        build_manifest,
        manifest_path_for,
        write_manifest,
    )

    mpath = manifest_path_for(baseline_file)
    manifest = build_manifest(command="bench", config={"scale": "test"})
    write_manifest(manifest, mpath)
    doc = json.loads(mpath.read_text())
    doc["command"] = "tampered"
    mpath.write_text(json.dumps(doc))
    problem = verify_baseline_manifest(baseline_file)
    assert problem is not None and "mismatch" in problem
