"""Sweep supervisor tests: crash/hang/fail recovery, retries, quarantine,
checkpoint/resume via the WAL, interrupt flushing, and the CLI wiring."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.experiments.common import AppResult, ResultCache
from repro.experiments.sweep import (
    SweepPolicy,
    TaskFailed,
    format_sweep_health,
    map_supervised,
    run_sweep,
)
from repro.obs.metrics_registry import MetricsRegistry, install, registry
from repro.testing.faults import ChaosPlan, WorkerFault

CELLS = [("ATAX", "baseline", "max", "test"),
         ("BP", "baseline", "max", "test"),
         ("MVT", "baseline", "max", "test")]


def _shard_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(root.glob("shard-??.json")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# -- policy -------------------------------------------------------------------


def test_sweep_policy_validation():
    with pytest.raises(ValueError):
        SweepPolicy(cell_timeout=0)
    with pytest.raises(ValueError):
        SweepPolicy(retries=-1)
    with pytest.raises(ValueError):
        SweepPolicy(backoff=-0.1)
    with pytest.raises(ValueError):
        SweepPolicy(poll=0)


def test_format_sweep_health_mentions_only_nonzero():
    from repro.experiments.sweep import SweepReport

    text = format_sweep_health(SweepReport(
        cells=5, computed=3, cached=2, degraded=0, jobs=2, seconds=1.5,
        retried=1, crashes=2))
    assert "5 cells" in text and "3 computed" in text and "2 cached" in text
    assert "1 retried" in text and "2 crashes" in text
    assert "timeouts" not in text and "quarantined" not in text


# -- supervised recovery ------------------------------------------------------


def test_worker_crash_is_retried_to_clean_result(tmp_path):
    """An os._exit'd worker must be detected, respawned, and the cell
    recomputed — converging to the same bytes as an undisturbed run."""
    clean = ResultCache(tmp_path / "clean")
    run_sweep(CELLS, jobs=1, cache=clean)

    plan = ChaosPlan(faults=(
        WorkerFault(kind="crash", match="ATAX|baseline", attempts=1),))
    chaos = ResultCache(tmp_path / "chaos")
    report = run_sweep(CELLS, jobs=2, cache=chaos,
                       policy=SweepPolicy(retries=2, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.crashes == 1
    assert report.retried == 1
    assert report.quarantined == 0
    assert report.degraded == 0
    assert _shard_digest(tmp_path / "clean") == _shard_digest(tmp_path / "chaos")


def test_hung_worker_killed_by_deadline(tmp_path):
    plan = ChaosPlan(faults=(
        WorkerFault(kind="hang", match="BP|baseline", attempts=1,
                    hang_seconds=120.0),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(cell_timeout=3.0, retries=2,
                                          backoff=0.01, poll=0.05),
                       chaos=plan)
    assert report.timeouts == 1
    assert report.quarantined == 0
    got = cache.get(ResultCache.key("BP", "baseline", "max", "test"))
    assert got is not None and not got.degraded


def test_transient_worker_fault_is_retried(tmp_path):
    plan = ChaosPlan(faults=(
        WorkerFault(kind="fail", match="MVT|baseline", attempts=2),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(retries=3, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.retried == 2
    assert report.quarantined == 0
    assert report.degraded == 0


def test_poison_cell_quarantined_as_degraded(tmp_path):
    """A cell that fails every attempt collapses to the degraded AppResult
    path with a diagnostic — and never reaches the disk cache."""
    plan = ChaosPlan(faults=(
        WorkerFault(kind="crash", match="ATAX|baseline", attempts=99),))
    cache = ResultCache(tmp_path / "c")
    report = run_sweep(CELLS, jobs=2, cache=cache,
                       policy=SweepPolicy(retries=1, backoff=0.01, poll=0.02),
                       chaos=plan)
    assert report.quarantined == 1
    assert report.degraded == 1
    key = ResultCache.key("ATAX", "baseline", "max", "test")
    got = cache.get(key)
    assert got.degraded and got.total_cycles == 0
    assert any("quarantined" in d["message"] for d in got.diagnostics)
    # put_transient only: a fresh cache over the same directory misses.
    assert ResultCache(tmp_path / "c").get(key) is None
    # The other cells completed normally despite the poison cell.
    for cell in CELLS[1:]:
        assert ResultCache(tmp_path / "c").get(ResultCache.key(*cell))


def test_sequential_path_retries_degraded_cells(monkeypatch, tmp_path):
    """jobs=1 honours the retry policy too: a transiently degrading cell is
    re-attempted in-process before the degraded result is accepted."""
    from repro.experiments import sweep as sweep_mod

    cell = CELLS[0]
    calls = {"n": 0}

    def flaky_run_cell(c):
        calls["n"] += 1
        degraded = calls["n"] == 1
        return AppResult(c[0], c[1], c[2], c[3],
                         total_cycles=0 if degraded else 42, kernels={},
                         degraded=degraded)

    monkeypatch.setattr(sweep_mod, "_run_cell", flaky_run_cell)
    cache = ResultCache(tmp_path / "c")
    report = run_sweep([cell], jobs=1, cache=cache,
                       policy=SweepPolicy(retries=2, backoff=0.0))
    assert calls["n"] == 2
    assert report.retried == 1
    assert report.degraded == 0
    assert cache.get(ResultCache.key(*cell)).total_cycles == 42


def _square(x: int) -> int:
    return x * x


def test_non_cell_task_crash_is_retried_to_its_result():
    """The supervisor runs any picklable task: a crashed worker's int item
    is retried on a respawned worker, and results come back in caller
    order."""
    plan = ChaosPlan(faults=(WorkerFault(kind="crash", match="3",
                                         attempts=1),))
    prev = install(MetricsRegistry(enabled=True))
    try:
        got = map_supervised(_square, [1, 2, 3], jobs=2, key=lambda x: -x,
                             chaos=plan)
        counters = registry().snapshot()["counters"]
    finally:
        install(prev)
    assert got == [1, 4, 9]
    assert counters["sweep.crashes"] == 1
    assert counters["sweep.retries"] == 1


def test_non_cell_poison_item_raises_task_failed():
    """An item with no degraded fallback is raised, not quarantined."""
    plan = ChaosPlan(faults=(WorkerFault(kind="fail", match="2",
                                         attempts=99),))
    prev = install(MetricsRegistry(enabled=True))
    try:
        with pytest.raises(TaskFailed,
                           match="2 failed after 3 attempt") as info:
            map_supervised(_square, [1, 2], jobs=2, chaos=plan)
        counters = registry().snapshot()["counters"]
    finally:
        install(prev)
    assert info.value.item == 2 and info.value.kind == "fault"
    assert counters["sweep.retries"] == 2
    assert "sweep.quarantined" not in counters


def _count_then_fail_once(item: tuple) -> int:
    """Bump a counter for every attempt; the first attempt of an item whose
    marker file is absent then raises after the bump."""
    marker, n = item
    registry().counter("test.attempts").inc()
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first attempt fails")
    return n


def test_failed_attempt_metrics_do_not_leak_into_next_item(tmp_path):
    """A failed attempt's counters are discarded with the attempt: the
    parent's merged counter counts only the accepted attempts."""
    items = [(str(tmp_path / "once"), 0), ("", 1), ("", 2)]
    prev = install(MetricsRegistry(enabled=True))
    try:
        # One worker runs the retry and every later item, so a leaked
        # count would ship with one of their payloads.
        got = map_supervised(_count_then_fail_once, items, jobs=1)
        counters = registry().snapshot()["counters"]
    finally:
        install(prev)
    assert got == [0, 1, 2]
    assert counters["sweep.retries"] == 1
    assert counters["test.attempts"] == len(items)


# -- checkpoint / resume ------------------------------------------------------


class _Kill(BaseException):
    """Stands in for SIGKILL: bypasses the KeyboardInterrupt flush path."""


def test_interrupt_flushes_completed_cells_and_keeps_journal(
        monkeypatch, tmp_path):
    """Satellite contract: KeyboardInterrupt mid-sweep terminates cleanly,
    flushes every completed cell to the cache, and re-raises."""
    from repro.experiments import sweep as sweep_mod

    seen = []

    def hook(cell):
        seen.append(cell)
        if len(seen) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", hook)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(KeyboardInterrupt):
        run_sweep(CELLS, jobs=1, cache=cache)
    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", None)
    # Completed cells reached the disk cache; the journal survives for
    # --resume; nothing of the in-flight cell leaked.
    fresh = ResultCache(tmp_path / "c")
    flushed = [c for c in CELLS if fresh.get(ResultCache.key(*c))]
    assert len(flushed) == 2
    assert (tmp_path / "c" / "sweep.wal").exists()
    # Resuming completes the sweep and retires the journal.
    report = run_sweep(CELLS, jobs=1, cache=ResultCache(tmp_path / "c"),
                       resume=True)
    assert report.cached == 2
    assert not (tmp_path / "c" / "sweep.wal").exists()


def test_resume_replays_journal_after_hard_kill(monkeypatch, tmp_path):
    """After a SIGKILL-style death (no flush ran), resume must rebuild the
    completed cells from the write-ahead journal alone."""
    from repro.experiments import sweep as sweep_mod

    seen = []

    def hook(cell):
        seen.append(cell)
        if len(seen) == 2:
            raise _Kill

    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", hook)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(_Kill):
        run_sweep(CELLS, jobs=1, cache=cache)
    monkeypatch.setattr(sweep_mod, "_CHECKPOINT_HOOK", None)
    # Nothing was flushed (hard kill), but the journal has both cells.
    fresh = ResultCache(tmp_path / "c")
    assert not any(fresh.get(ResultCache.key(*c)) for c in CELLS)
    report = run_sweep(CELLS, jobs=1, cache=fresh, resume=True)
    assert report.resumed == 2
    assert report.computed == 1
    # Byte-identical to a clean uninterrupted run.
    clean = ResultCache(tmp_path / "clean")
    run_sweep(CELLS, jobs=1, cache=clean)
    assert _shard_digest(tmp_path / "c") == _shard_digest(tmp_path / "clean")


def test_fresh_sweep_discards_stale_journal(tmp_path):
    cache = ResultCache(tmp_path / "c")
    wal = cache.wal_path()
    wal.parent.mkdir(parents=True, exist_ok=True)
    wal.write_text("stale bytes from an older run\n")
    run_sweep(CELLS[:1], jobs=1, cache=cache)   # resume NOT requested
    assert not wal.exists()


def test_memory_cache_has_no_journal():
    cache = ResultCache("")
    report = run_sweep(CELLS[:1], jobs=1, cache=cache, resume=True)
    assert report.resumed == 0
    assert report.computed == 1


# -- CLI wiring ---------------------------------------------------------------


def test_runner_all_passes_supervision_flags(monkeypatch, capsys):
    from repro.experiments import sweep as sweep_mod
    from repro.experiments.runner import main

    captured = {}

    def stub_run_sweep(cells, jobs=1, cache=None, options=None, policy=None,
                       resume=False, chaos=None, wal_path=None):
        captured.update(jobs=jobs, policy=policy, resume=resume,
                        cells=len(cells))
        raise KeyboardInterrupt   # stop before the per-figure builders run

    monkeypatch.setattr(sweep_mod, "run_sweep", stub_run_sweep)
    code = main(["all", "--scale", "test", "--jobs", "2", "--resume",
                 "--cell-timeout", "45", "--retries", "5"])
    out = capsys.readouterr()
    assert code == 130                       # interrupted sweeps exit 130
    assert "--resume" in out.err             # and say how to pick up again
    assert captured["resume"] is True
    assert captured["jobs"] == 2
    assert captured["policy"].cell_timeout == 45.0
    assert captured["policy"].retries == 5
    assert captured["cells"] > 0


def test_render_tree_surfaces_sweep_health():
    from repro.obs.exporters import render_tree

    metrics = {"counters": {"sweep.crashes": 2, "sweep.retries": 3,
                            "cache.integrity_failures": 1,
                            "sim.launches": 7},
               "gauges": {}, "histograms": {}}
    text = render_tree([], metrics)
    assert "sweep health:" in text
    assert "worker crashes survived" in text
    assert "cell attempts retried" in text
    assert "cache records failing sha256" in text
    # Untroubled runs show no health section at all.
    assert "sweep health" not in render_tree(
        [], {"counters": {"sim.launches": 7}, "gauges": {}, "histograms": {}})
