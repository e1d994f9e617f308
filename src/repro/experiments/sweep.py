"""Supervised parallel sweep executor: fan (app, scheme, spec, scale) cells
across worker processes under a fault-tolerant supervisor and merge the
results into one :class:`ResultCache`.

The experiment layer is embarrassingly parallel at cell granularity — every
figure/table is a pure function of the cached :class:`AppResult` records —
so the sweep that feeds ``catt all`` fans out over worker processes.  Unlike
the previous bare ``Pool.imap_unordered``, the executor is a **supervisor**
that survives process-level faults:

* **Heartbeat/crash detection + respawn.**  Each worker owns at most one
  cell; a worker that dies (OOM kill, segfault, ``os._exit``) is detected by
  liveness polling, its cell is rescheduled, and a fresh worker is spawned
  in its place.
* **Per-cell deadlines.**  ``SweepPolicy.cell_timeout`` bounds each cell's
  wall clock; a hung worker is terminated and replaced instead of stalling
  the sweep forever.
* **Bounded retries with exponential backoff.**  A failed attempt (crash,
  timeout, raised fault, or degraded result) is retried up to
  ``SweepPolicy.retries`` times, waiting ``backoff * 2**attempt`` between
  attempts.
* **Poison-cell quarantine.**  A cell that exhausts its retries degrades to
  the PR-1 zero-cycle ``AppResult(degraded=True)`` path with a diagnostic —
  it cannot kill the sweep, and it is never written to the disk cache.
* **Checkpoint/resume.**  Every completed cell is journaled to a write-ahead
  log (:class:`~repro.experiments.store.SweepWAL`) the moment it finishes,
  so SIGKILL mid-sweep loses at most the in-flight cells; ``run_sweep(...,
  resume=True)`` (``catt all --resume``) replays the journal and recomputes
  only what is missing.
* **Clean interrupts.**  SIGINT terminates the workers (no orphans), flushes
  every already-completed cell to the cache, and re-raises.

Determinism is preserved throughout: results are merged in the caller's
cell order regardless of worker completion order, the cache serializes with
canonical (sorted-key) bytes, and chaos faults key on the *attempt index*
(:class:`~repro.testing.faults.ChaosPlan`), so a sweep with injected
crashes/hangs/retries converges to the same cache bytes as a clean
sequential run.

Degraded cells (``AppResult.degraded``) are memoized in-process only, same
as the sequential path — the next sweep retries them.

The supervisor itself is task-generic: it applies one picklable task
function to picklable items.  :func:`run_sweep` runs :func:`_run_cell` over
cells with the degraded-``AppResult`` quarantine as its fallback;
:func:`map_supervised` runs any other task (Fig. 3's microbenchmark points)
and raises :class:`TaskFailed` for an item that fails every attempt.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import pickle as _pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpc

from ..obs.metrics_registry import registry as _registry
from ..obs.trace import span as _span, tracer as _tracer
from ..options import (
    SimOptions,
    active_options,
    current_options,
    set_active_options,
)
from ..testing.faults import ChaosPlan, check_worker_fault, set_worker_chaos
from ..transform.diagnostics import E_SIM, Diagnostic
from ..workloads import CI_GROUP, CS_GROUP
from .common import (
    AppResult,
    ResultCache,
    _from_json,
    _to_json,
    default_cache,
    run_app,
)
from .store import SweepWAL

#: One simulation cell: (app, scheme, spec, scale).
Cell = tuple[str, str, str, str]

_SWEEP_SCHEMES = ("baseline", "bftt", "catt")


def all_cells(scale: str = "bench") -> list[Cell]:
    """Every simulation cell ``catt all`` consumes, in deterministic order.

    CS apps feed fig2/6/7/9/table3 at max L1D and fig10/table3 at 32 KB;
    CI apps only appear in fig8 (max L1D).
    """
    cells: list[Cell] = []
    for app in CS_GROUP:
        for scheme in _SWEEP_SCHEMES:
            for spec in ("max", "32k"):
                cells.append((app, scheme, spec, scale))
    for app in CI_GROUP:
        for scheme in _SWEEP_SCHEMES:
            cells.append((app, scheme, "max", scale))
    return sorted(set(cells))


@dataclass(frozen=True)
class SweepPolicy:
    """Supervision knobs for one sweep.

    ``cell_timeout`` — wall-clock deadline per cell attempt in seconds
    (``None`` disables deadlines); ``retries`` — extra attempts granted to a
    failing cell before it is quarantined as degraded; ``backoff`` — base of
    the exponential retry backoff (``backoff * 2**attempt`` seconds);
    ``poll`` — supervisor heartbeat interval.
    """

    cell_timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    poll: float = 0.05

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.poll <= 0:
            raise ValueError(f"poll must be positive, got {self.poll}")


DEFAULT_POLICY = SweepPolicy()

#: Test hook: called after every accepted sweep cell completion (both
#: execution paths).  Chaos tests monkeypatch this to interrupt a sweep
#: mid-flight.
_CHECKPOINT_HOOK = None


def _init_worker(options: SimOptions | None, trace_on: bool,
                 metrics_on: bool) -> None:
    """Worker initializer: carry the parent's resolved configuration over.

    This replaces the old reliance on fork-time environment inheritance —
    it works under any start method and keeps :func:`repro.options.
    current_options` the single source of truth inside workers too.
    """
    set_active_options(options)
    t = _tracer()
    t.reset()
    t.enabled = trace_on
    reg = _registry()
    reg.reset()
    reg.enabled = metrics_on


def _run_cell(cell: Cell) -> AppResult:
    """The sweep's task: simulate one cell against a memory-only cache."""
    app, scheme, spec, scale = cell
    return run_app(app, scheme, spec, scale, cache=ResultCache(""))


def _task_key(item) -> str:
    """The chaos-plan key of a task item: ``"app|scheme|spec|scale"`` for a
    cell, the ``|``-joined fields of any other tuple, else ``str(item)``."""
    if isinstance(item, tuple):
        return "|".join(map(str, item))
    return str(item)


def _drain_obs() -> dict | None:
    """This worker's observability payload for the task it just finished:
    the drained spans plus a metrics snapshot (``None`` when both are off).
    The parent adopts payloads in caller order, like the cache merge."""
    t, reg = _tracer(), _registry()
    if not (t.enabled or reg.enabled):
        return None
    obs = {
        "spans": t.drain() if t.enabled else [],
        "metrics": reg.snapshot() if reg.enabled else None,
    }
    reg.reset()
    return obs


def _worker_main(conn, task, options, trace_on, metrics_on,
                 chaos: ChaosPlan | None) -> None:
    """Supervised worker loop: apply ``task`` to one item at a time over a
    private pipe.

    Messages out: ``("start", item, attempt)`` as the heartbeat claiming an
    item, then ``("done", item, attempt, result, obs)`` or ``("fail", item,
    attempt, detail)``.  A crash between start and done is what the
    supervisor's liveness polling catches.  The pipe is private to this
    worker — there is deliberately no shared queue, so killing a worker
    (deadline, crash) can never leave a cross-process lock held and wedge
    its siblings.
    """
    _init_worker(options, trace_on, metrics_on)
    set_worker_chaos(chaos)
    t, reg = _tracer(), _registry()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):   # parent is gone
            return
        if msg is None:
            return
        item, attempt = msg
        try:
            conn.send(("start", item, attempt))
            # A failed attempt's spans and counters must not leak into the
            # next item's payload.
            t.reset()
            reg.reset()
            try:
                check_worker_fault(_task_key(item), attempt)
                result = task(item)
            except KeyboardInterrupt:
                return
            except BaseException as exc:
                conn.send(("fail", item, attempt, repr(exc)))
                continue
            conn.send(("done", item, attempt, result, _drain_obs()))
        except KeyboardInterrupt:   # parent is shutting the pool down
            return
        except OSError:             # pipe closed under us: nobody to tell
            return


def _quarantine_result(cell: Cell, kind: str, attempts: int,
                       detail: str) -> AppResult:
    """The degraded ``AppResult`` a poison cell collapses to."""
    app, scheme, spec, scale = cell
    diag = Diagnostic(
        code=E_SIM, stage="sim",
        message=f"({app}, {scheme}, {spec}, {scale}) quarantined after "
                f"{attempts} attempt(s); last failure: {kind} ({detail})",
        kernel=None, severity="error",
        elapsed_seconds=0.0,
        exception=detail,
    )
    return AppResult(app, scheme, spec, scale, total_cycles=0, kernels={},
                     diagnostics=[diag.to_dict()], degraded=True)


class TaskFailed(RuntimeError):
    """A supervised task failed every attempt and its caller gave it no
    degraded fallback (see :func:`map_supervised`)."""

    def __init__(self, item, kind: str, attempts: int, detail: str):
        super().__init__(f"{_task_key(item)} failed after {attempts} "
                         f"attempt(s); last failure: {kind} ({detail})")
        self.item = item
        self.kind = kind
        self.attempts = attempts
        self.detail = detail


class _Worker:
    """One supervised worker process plus its private pipe end."""

    __slots__ = ("proc", "conn", "item", "attempt", "started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.item = None
        self.attempt = 0
        self.started = 0.0


class _Supervisor:
    """Deadline/retry/respawn supervisor over a fleet of task workers.

    Every worker applies the same picklable ``task`` to picklable, hashable
    items.  A result with a truthy ``degraded`` attribute counts as a failed
    attempt.  An item that exhausts its retries is replaced by
    ``fallback(item, kind, attempts, detail)``, or, with no fallback,
    raises :class:`TaskFailed`.

    Each worker communicates over its own duplex pipe — deliberately no
    shared ``mp.Queue``: killing a worker mid-operation on a shared queue
    can leave its cross-process lock held forever and wedge every sibling,
    which is exactly the failure mode a supervisor that kills workers must
    not have.  With private pipes, kill damage is confined to the victim's
    own channel, which is simply closed and replaced.  The supervisor polls
    worker liveness and per-item deadlines every ``policy.poll`` seconds.
    """

    def __init__(self, ctx, jobs: int, policy: SweepPolicy, initargs,
                 chaos: ChaosPlan | None, task, fallback=None):
        self.ctx = ctx
        self.jobs = jobs
        self.policy = policy
        self.initargs = initargs
        self.chaos = chaos
        self.task = task
        self.fallback = fallback
        self.workers: list[_Worker] = []
        self.results: dict = {}
        self.obs: dict = {}
        self.retried = 0
        self.timeouts = 0
        self.crashes = 0
        self.quarantined = 0
        self.respawns = 0
        self.on_complete = None     # callback(item, result): WAL journaling
        self._wid = 0
        self._pending: deque = deque()     # (item, attempt) ready to run
        self._delayed: list = []           # heap of (ready_ts, item, attempt)

    # -- worker lifecycle ---------------------------------------------------
    def _spawn(self) -> _Worker:
        wid = self._wid
        self._wid += 1
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.task, *self.initargs, self.chaos),
            name=f"sweep-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()   # the parent reads/writes only its own end
        return _Worker(proc, parent_conn)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        """Take a worker out of service (already-dead or to-be-killed)."""
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():   # pragma: no cover - stubborn child
                worker.proc.kill()
        worker.proc.join(1.0)
        try:
            worker.conn.close()   # any torn bytes die with the pipe
        except OSError:  # pragma: no cover
            pass

    def _respawn(self, idx: int) -> None:
        self.respawns += 1
        reg = _registry()
        if reg.enabled:
            reg.counter("sweep.respawns").inc()
        self.workers[idx] = self._spawn()

    # -- scheduling ---------------------------------------------------------
    def _dispatch(self) -> None:
        for worker in self.workers:
            if worker.item is not None:
                continue
            task = self._next_task()
            if task is None:
                return
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                # Dead worker: requeue the task, let policing respawn it.
                self._pending.appendleft(task)
                continue
            worker.item, worker.attempt = task
            worker.started = time.monotonic()

    def _next_task(self):
        while self._pending:
            item, attempt = self._pending.popleft()
            if item not in self.results:    # lazily drop superseded retries
                return item, attempt
        return None

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, item, attempt = heapq.heappop(self._delayed)
            if item not in self.results:
                self._pending.append((item, attempt))

    def _record_failure(self, item, attempt: int, kind: str,
                        detail: str) -> None:
        reg = _registry()
        if attempt < self.policy.retries:
            self.retried += 1
            if reg.enabled:
                reg.counter("sweep.retries").inc()
            ready = time.monotonic() + self.policy.backoff * (2 ** attempt)
            heapq.heappush(self._delayed, (ready, item, attempt + 1))
            return
        if self.fallback is None:
            raise TaskFailed(item, kind, attempt + 1, detail)
        self.quarantined += 1
        if reg.enabled:
            reg.counter("sweep.quarantined").inc()
        self._accept(item, self.fallback(item, kind, attempt + 1, detail),
                     None)

    def _accept(self, item, result, obs) -> None:
        self.results[item] = result
        self.obs[item] = obs
        if self.on_complete is not None:
            self.on_complete(item, result)

    # -- message handling ---------------------------------------------------
    def _drain(self, worker: _Worker) -> None:
        """Handle every message already sitting in one worker's pipe."""
        while True:
            if not worker.proc.is_alive():
                # Never recv from a dead worker: its last message may be
                # torn mid-write and recv would block forever.  Liveness
                # policing retires the pipe and reschedules the item — a
                # complete-but-unread final result is recomputed, which is
                # safe because tasks are deterministic.
                return
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError, _pickle.UnpicklingError):
                return   # broken channel: policing respawns the worker
            self._handle(worker, msg)

    def _handle(self, worker: _Worker, msg) -> None:
        tag, item, attempt = msg[:3]
        if tag == "start":
            if worker.item == item:
                worker.started = time.monotonic()
            return
        if worker.item == item:
            worker.item = None
        if item in self.results:
            return   # stale duplicate of an already-accepted item
        if tag == "done":
            _, _, _, result, obs = msg
            if (getattr(result, "degraded", False)
                    and attempt < self.policy.retries):
                # A degraded result is a failed attempt: retry it before
                # accepting the degraded value.
                self._record_failure(item, attempt, "degraded",
                                     "in-process degradation")
                return
            self._accept(item, result, obs)
        elif tag == "fail":
            self._record_failure(item, attempt, "fault", msg[3])

    # -- liveness / deadlines -----------------------------------------------
    def _police(self, now: float) -> None:
        reg = _registry()
        for idx, worker in enumerate(self.workers):
            if not worker.proc.is_alive():
                item, attempt = worker.item, worker.attempt
                exitcode = worker.proc.exitcode
                self._retire(worker, kill=False)
                self._respawn(idx)
                if item is not None and item not in self.results:
                    self.crashes += 1
                    if reg.enabled:
                        reg.counter("sweep.crashes").inc()
                    self._record_failure(item, attempt, "crash",
                                         f"worker exited with {exitcode}")
                continue
            if (worker.item is not None
                    and self.policy.cell_timeout is not None
                    and now - worker.started > self.policy.cell_timeout):
                item, attempt = worker.item, worker.attempt
                self._retire(worker, kill=True)
                self._respawn(idx)
                if item not in self.results:
                    self.timeouts += 1
                    if reg.enabled:
                        reg.counter("sweep.timeouts").inc()
                    self._record_failure(
                        item, attempt, "timeout",
                        f"exceeded {self.policy.cell_timeout}s deadline")

    # -- main loop ----------------------------------------------------------
    def run(self, todo: list) -> None:
        """Run every item of ``todo``, dispatched in list order."""
        self._pending = deque((item, 0) for item in todo)
        target = len(todo)
        for _ in range(min(self.jobs, max(target, 1))):
            self.workers.append(self._spawn())
        try:
            while len(self.results) < target:
                self._dispatch()
                try:
                    ready = _mpc.wait([w.conn for w in self.workers],
                                      timeout=self.policy.poll)
                except OSError:  # pragma: no cover - closed under our feet
                    ready = []
                for conn in ready:
                    for worker in self.workers:
                        if worker.conn is conn:
                            self._drain(worker)
                            break
                now = time.monotonic()
                self._promote_delayed(now)
                self._police(now)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop every worker — no orphaned children, every pipe closed."""
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.proc.join(1.0)
            self._retire(worker, kill=True)
        self.workers = []


def _start_supervisor(task, jobs: int, options: SimOptions | None,
                      policy: SweepPolicy, chaos: ChaosPlan | None,
                      fallback=None) -> _Supervisor:
    # fork inherits the warmed import state; fall back to spawn where fork
    # is unavailable (it re-imports, only slower).
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    initargs = (options, _tracer().enabled, _registry().enabled)
    return _Supervisor(mp.get_context(method), jobs, policy, initargs, chaos,
                       task, fallback)


def _adopt_obs(obs: dict | None) -> None:
    """Fold one item's worker payload into this process's tracer/registry."""
    if not obs:
        return
    if obs.get("spans"):
        _tracer().adopt(obs["spans"])
    if obs.get("metrics"):
        _registry().merge(obs["metrics"])


def map_supervised(task, items: list, jobs: int, key=None,
                   chaos: ChaosPlan | None = None) -> list:
    """``[task(item) for item in items]`` on ``jobs`` supervised workers.

    ``task`` and every item must be picklable, and items hashable; a
    repeated item runs once.  Items are dispatched sorted by ``key``
    (default: as given), so a caller can start its longest items first.
    Results and each item's worker spans and metrics are merged in
    ``items`` order, whatever the completion order.  Workers run under the
    active :class:`SimOptions` and get :func:`run_sweep`'s crash and retry
    supervision under :data:`DEFAULT_POLICY`; an item that fails every
    attempt raises :class:`TaskFailed`.
    """
    unique = list(dict.fromkeys(items))
    sup = _start_supervisor(task, min(jobs, len(unique)), active_options(),
                            DEFAULT_POLICY, chaos)
    sup.run(sorted(unique, key=key) if key else unique)
    for item in unique:
        _adopt_obs(sup.obs[item])
    return [sup.results[item] for item in items]


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did."""

    cells: int       # cells requested
    computed: int    # cells actually simulated (not cached or resumed)
    cached: int      # cells served from the cache
    degraded: int    # computed cells that failed and degraded
    jobs: int        # worker processes used
    seconds: float
    resumed: int = 0       # cells replayed from the write-ahead log
    retried: int = 0       # failed attempts rescheduled with backoff
    timeouts: int = 0      # attempts killed by the per-cell deadline
    crashes: int = 0       # worker processes that died mid-cell
    quarantined: int = 0   # cells degraded after exhausting retries


def format_sweep_health(report: SweepReport) -> str:
    """One-line supervisor summary for the CLI (what the supervisor did)."""
    parts = [f"{report.cells} cells", f"{report.computed} computed",
             f"{report.cached} cached"]
    for label in ("resumed", "retried", "timeouts", "crashes",
                  "quarantined", "degraded"):
        value = getattr(report, label)
        if value:
            parts.append(f"{value} {label}")
    return (f"sweep health [jobs={report.jobs}]: " + ", ".join(parts)
            + f" in {report.seconds}s")


def run_sweep(
    cells: list[Cell],
    jobs: int = 1,
    cache: ResultCache | None = None,
    options: SimOptions | None = None,
    policy: SweepPolicy | None = None,
    resume: bool = False,
    chaos: ChaosPlan | None = None,
    wal_path=None,
) -> SweepReport:
    """Populate ``cache`` with every cell in ``cells``.

    ``jobs > 1`` fans the uncached cells out over supervised worker
    processes; the merge order (and therefore the cache content) is
    identical to a sequential run.  ``options`` (default: the currently
    active :class:`SimOptions`) is shipped to every worker at spawn — no
    environment mutation, so the sweep behaves identically under fork and
    spawn start methods.  Worker span/metric streams are merged back in
    caller cell order, mirroring the single-writer cache merge.

    ``policy`` configures supervision (deadlines, retries, backoff);
    ``resume=True`` replays the write-ahead journal of an interrupted sweep
    and recomputes only unfinished cells; ``chaos`` arms process-level fault
    injection in the workers (tests/CI).  ``wal_path`` overrides where the
    journal lives (default: derived from the cache; memory-only caches get
    no journal).

    On ``KeyboardInterrupt`` the workers are terminated (no orphans), every
    already-completed cell is flushed to the cache, and the interrupt is
    re-raised — rerun with ``resume=True`` to pick up where it left off.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if options is None:
        options = active_options()
    policy = policy or DEFAULT_POLICY
    cache = cache or default_cache()
    cells = list(dict.fromkeys(cells))
    # Cache keys carry the options signature (suffix only for non-default
    # configurations) so e.g. multi-SM sweeps never collide with — or
    # poison — single-SM records.
    signature = (options if options is not None
                 else current_options()).signature()
    t0 = time.perf_counter()
    stats = {"retried": 0, "timeouts": 0, "crashes": 0, "quarantined": 0}
    with _span("experiment.sweep", cells=len(cells), jobs=jobs,
               resume=resume) as sp:
        todo = [c for c in cells
                if cache.get(ResultCache.key(*c, signature=signature)) is None]
        results: dict[Cell, AppResult] = {}
        obs_by_cell: dict[Cell, dict | None] = {}

        # -- checkpoint/resume via the write-ahead journal -------------------
        wal = None
        wpath = wal_path if wal_path is not None else cache.wal_path()
        if wpath:
            wal = SweepWAL(wpath, cache_version=ResultCache.VERSION)
        resumed = 0
        todo_run = todo
        if wal is not None:
            if resume:
                journal = wal.load()
                todo_run = []
                for c in todo:
                    raw = journal.get(ResultCache.key(*c, signature=signature))
                    if raw is None:
                        todo_run.append(c)
                    else:
                        results[c] = _from_json(raw)
                        obs_by_cell[c] = None
                        resumed += 1
            else:
                wal.discard()   # a fresh sweep owns the journal
        reg = _registry()
        if reg.enabled and resumed:
            reg.counter("sweep.resumed").inc(resumed)

        def _journal(cell: Cell, result: AppResult) -> None:
            # Degraded cells are never journaled: like put_transient, they
            # must be retried by the next sweep, not resurrected by resume.
            if wal is not None and not result.degraded:
                wal.append(ResultCache.key(*cell, signature=signature),
                           _to_json(result))
            if _CHECKPOINT_HOOK is not None:
                _CHECKPOINT_HOOK(cell)

        def _merge() -> int:
            """Fold results into cache/tracer/registry in caller order."""
            degraded = 0
            for cell in cells:   # caller order, not completion order
                result = results.get(cell)
                if result is None:
                    continue   # served from cache (or still in flight)
                _adopt_obs(obs_by_cell.get(cell))
                key = ResultCache.key(*cell, signature=signature)
                if result.degraded:
                    degraded += 1
                    cache.put_transient(key, result)
                else:
                    cache.put(key, result)
            return degraded

        try:
            if jobs > 1 and len(todo_run) > 1:
                sup = _start_supervisor(_run_cell, min(jobs, len(todo_run)),
                                        options, policy, chaos,
                                        fallback=_quarantine_result)
                sup.on_complete = _journal
                try:
                    sup.run(todo_run)
                finally:
                    results.update(sup.results)
                    obs_by_cell.update(sup.obs)
                    stats = {"retried": sup.retried,
                             "timeouts": sup.timeouts,
                             "crashes": sup.crashes,
                             "quarantined": sup.quarantined}
            else:
                # Activate the resolved options for the in-process path too,
                # so an explicitly-passed ``options`` governs the cells (and
                # the signature-aware keys above) exactly like it does in
                # workers.
                from contextlib import nullcontext

                from ..options import use_options

                scope = use_options(options) if options is not None \
                    else nullcontext()
                with scope:
                    for cell in todo_run:
                        for attempt in range(policy.retries + 1):
                            result = _run_cell(cell)
                            if not result.degraded \
                                    or attempt == policy.retries:
                                break
                            stats["retried"] += 1
                            if reg.enabled:
                                reg.counter("sweep.retries").inc()
                            time.sleep(policy.backoff * (2 ** attempt))
                        results[cell] = result
                        obs_by_cell[cell] = None
                        _journal(cell, result)
        except KeyboardInterrupt:
            # Flush what finished, keep the journal for --resume, and let
            # the interrupt propagate: nothing completed is ever lost.
            _merge()
            if reg.enabled:
                reg.counter("sweep.interrupted").inc()
            if wal is not None:
                wal.close()
            sp.set(interrupted=True, computed=len(results))
            raise

        degraded = _merge()
        if wal is not None:
            wal.discard()   # results are committed; the journal is obsolete
        sp.set(computed=len(todo_run), cached=len(cells) - len(todo),
               degraded=degraded, resumed=resumed, **stats)
    return SweepReport(
        cells=len(cells),
        computed=len(todo_run),
        cached=len(cells) - len(todo),
        degraded=degraded,
        jobs=jobs,
        seconds=round(time.perf_counter() - t0, 3),
        resumed=resumed,
        **stats,
    )
