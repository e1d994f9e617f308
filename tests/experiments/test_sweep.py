"""Parallel sweep executor tests: cell enumeration, merge determinism,
cache interaction, degraded handling, and the runner CLI flags."""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import AppResult, ResultCache
from repro.experiments.runner import main
from repro.experiments.sweep import SweepReport, all_cells, run_sweep
from repro.workloads import CI_GROUP, CS_GROUP


def test_all_cells_deterministic_and_complete():
    cells = all_cells("test")
    assert cells == sorted(set(cells))          # deterministic, no dupes
    assert cells == all_cells("test")           # stable across calls
    # CS apps appear at both L1D specs, CI apps only at max.
    specs_of = {}
    for app, scheme, spec, scale in cells:
        assert scheme in ("baseline", "bftt", "catt")
        assert scale == "test"
        specs_of.setdefault(app, set()).add(spec)
    for app in CS_GROUP:
        assert specs_of[app] == {"max", "32k"}
    for app in CI_GROUP:
        assert specs_of[app] == {"max"}


def test_run_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_sweep([], jobs=0)


CELLS = [("ATAX", "baseline", "max", "test"),
         ("BP", "baseline", "max", "test")]


def test_sequential_and_parallel_merge_identically():
    seq, par = ResultCache(""), ResultCache("")
    r1 = run_sweep(CELLS, jobs=1, cache=seq)
    r2 = run_sweep(CELLS, jobs=2, cache=par)
    assert isinstance(r1, SweepReport)
    assert (r1.computed, r1.cached) == (2, 0)
    assert (r2.computed, r2.cached) == (2, 0)
    for cell in CELLS:
        key = ResultCache.key(*cell)
        a, b = seq.get(key), par.get(key)
        assert a is not None and b is not None
        assert a.total_cycles == b.total_cycles
        assert a.kernels.keys() == b.kernels.keys()


def test_cached_cells_are_not_recomputed():
    cache = ResultCache("")
    run_sweep(CELLS, jobs=1, cache=cache)
    again = run_sweep(CELLS, jobs=2, cache=cache)
    assert again.computed == 0
    assert again.cached == len(CELLS)


def test_duplicate_cells_collapse():
    cache = ResultCache("")
    report = run_sweep([CELLS[0], CELLS[0]], jobs=1, cache=cache)
    assert report.cells == 1


def test_degraded_cell_stays_transient(monkeypatch, tmp_path):
    """A degraded result must not be written to the disk cache: the next
    sweep retries it."""
    from repro.experiments import sweep as sweep_mod

    cell = ("ATAX", "baseline", "max", "test")

    def fake_run_cell(c):
        return c, AppResult(c[0], c[1], c[2], c[3], total_cycles=0,
                            kernels={}, degraded=True)

    monkeypatch.setattr(sweep_mod, "_run_cell", fake_run_cell)
    cache = ResultCache(tmp_path / "results.json")
    report = run_sweep([cell], jobs=1, cache=cache)
    assert report.degraded == 1
    # In-memory memo holds it, but nothing reached disk.
    assert cache.get(ResultCache.key(*cell)).degraded
    assert not (tmp_path / "results.json").exists()


def test_runner_engine_flag_activates_options(monkeypatch, capsys):
    """--engine resolves into the active SimOptions instead of mutating
    os.environ (the old plumbing)."""
    from repro import options as options_mod
    from repro.experiments import runner as runner_mod

    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    seen = {}

    def spy_table2():
        seen["options"] = options_mod.current_options()
        return "table2"

    monkeypatch.setattr(runner_mod, "_print_table2", spy_table2)
    assert main(["table2", "--engine", "interp"]) == 0
    assert seen["options"].engine == "interp"
    assert os.environ.get("REPRO_SIM_ENGINE") is None  # env untouched
    assert options_mod.active_options() is None        # scope restored
    capsys.readouterr()


def test_runner_jobs_flag_parses(capsys):
    # table2 is static — just proves --jobs is accepted on any invocation.
    assert main(["table2", "--jobs", "2"]) == 0
    capsys.readouterr()


# -- multi-SM cells in the result cache ---------------------------------------


def test_result_cache_key_sms_suffix():
    cell = ("ATAX", "baseline", "max", "test")
    assert ResultCache.key(*cell) == ResultCache.key(*cell, sms=1)
    assert "sms" not in ResultCache.key(*cell)      # sms=1 keys unchanged
    assert ResultCache.key(*cell, sms=4).endswith("|sms4")


def test_sweep_sms_cells_deterministic_across_jobs(tmp_path):
    """An sms=2 sweep must produce byte-identical cached results whether run
    in-process or through the worker pool (the CI determinism smoke, small)."""
    import json

    from repro.options import SimOptions

    cell = ("ATAX", "baseline", "max", "test")
    payloads = {}
    for jobs in (1, 2):
        path = tmp_path / f"cache_jobs{jobs}.json"
        run_sweep([cell], jobs=jobs, cache=ResultCache(path),
                  options=SimOptions(sms=2, jobs=jobs))
        payloads[jobs] = json.loads(path.read_text())
    assert payloads[1] == payloads[2]
    (key,) = payloads[1]["results"].keys()
    assert key.endswith("|sms2")
    cached = ResultCache(tmp_path / "cache_jobs1.json").get(key)
    assert cached.sms == 2
    # Kernel rows carry the shared-L2 hit rate alongside the L1 one.
    for stats in cached.kernels.values():
        assert 0.0 <= stats.l2_hit_rate <= 1.0
