"""``repro.api`` — the unified :class:`Session` facade.

One object that ties the whole pipeline together: a resolved
:class:`~repro.options.SimOptions` (the *only* place the deprecated
environment variables are consulted — exactly once, at construction), a
simulated :class:`~repro.runtime.device.Device`, and the observability layer
(:mod:`repro.obs`).  Every Session method runs with the session's options
active, so engine/cache selection is deterministic and explicit
instead of ambient process state.

Quickstart::

    from repro import Session, SimOptions

    with Session("max", SimOptions(engine="tape", trace=True)) as sess:
        unit = sess.compile(CUDA_SOURCE)
        comp = sess.catt(unit, {"my_kernel": (grid, block)})
        result = sess.launch(comp.unit, "my_kernel", grid, block, args=[...])
        print(sess.render_trace())
        sess.write_manifest("run.manifest.json")

Sessions are context managers: ``close()`` (or leaving the ``with`` block)
flushes the result cache and releases the session; a closed session refuses
further pipeline work.  The same operations are also available as typed
requests (:mod:`repro.service.protocol`) via :meth:`Session.request` — the
exact API :class:`repro.service.ServiceClient` speaks to a remote ``catt
serve`` process, so swapping local for remote execution is a one-line
change.

Results are bit-identical to the legacy env-var path — the Session only
changes *how the knobs are carried*, never what the simulator does.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .obs import (
    build_manifest,
    metrics_registry,
    render_tree,
    to_chrome_trace,
    to_jsonl,
    trace as _trace_mod,
    write_manifest,
)
from .options import SimOptions, set_active_options
from .runtime import Device
from .sim.arch import TITAN_V_SIM, TITAN_V_SIM_32K, GPUSpec

SPEC_NAMES: dict[str, GPUSpec] = {
    "max": TITAN_V_SIM,
    "32k": TITAN_V_SIM_32K,
}


class Session:
    """A configured pipeline: spec + options + device + observability."""

    def __init__(self, spec: GPUSpec | str = "max",
                 options: SimOptions | None = None):
        if isinstance(spec, str):
            try:
                self.spec_name, self.spec = spec, SPEC_NAMES[spec]
            except KeyError:
                raise ValueError(
                    f"unknown spec {spec!r}; options: {sorted(SPEC_NAMES)}"
                ) from None
        else:
            self.spec = spec
            self.spec_name = next(
                (k for k, v in SPEC_NAMES.items() if v is spec), "custom")
        # The one and only environment read: at construction, through the
        # deprecation shim.  An explicit ``options`` skips the env entirely.
        self.options = options if options is not None else SimOptions.from_env()
        self.device = Device(self.spec)
        self._result_cache = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush the result cache and retire this session (idempotent).

        After ``close()`` every pipeline method raises — a closed session
        holds no promises about cache or observability state.  Closing
        flushes the session's :class:`~repro.experiments.common.ResultCache`
        (a durability barrier) and drops the in-process memo so a later
        session re-reads the disk.
        """
        if self._closed:
            return
        self._closed = True
        if self._result_cache is not None:
            self._result_cache.flush()
            self._result_cache = None

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError("session is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- option scoping -----------------------------------------------------
    @contextmanager
    def _scope(self):
        if self._closed:
            raise RuntimeError(
                "session is closed; construct a new Session to keep working")
        previous = set_active_options(self.options)
        tracer = _trace_mod.tracer()
        registry = metrics_registry.registry()
        prev_trace, prev_metrics = tracer.enabled, registry.enabled
        if self.options.trace:
            tracer.enabled = True
        if self.options.metrics:
            registry.enabled = True
        try:
            yield
        finally:
            tracer.enabled, registry.enabled = prev_trace, prev_metrics
            set_active_options(previous)

    # -- pipeline stages ----------------------------------------------------
    def compile(self, source: str):
        """Parse a CUDA-subset source into a TranslationUnit."""
        with self._scope():
            return self.device.compile(source)

    def analyze(self, unit, kernel_name: str, block, grid=None):
        """CATT static analysis (Eqs. 1–9) for one kernel."""
        from .analysis import analyze_kernel

        with self._scope():
            return analyze_kernel(unit, kernel_name, block, self.spec,
                                  grid=grid)

    def catt(self, unit, launches: dict, **kwargs):
        """Run the CATT transform pipeline on ``unit``."""
        from .transform import catt_compile

        with self._scope():
            return catt_compile(unit, launches, self.spec, **kwargs)

    def launch(self, module, kernel_name: str, grid, block, args: list,
               **launch_kw):
        """Simulate one kernel launch under this session's options."""
        with self._scope():
            return self.device.launch(module, kernel_name, grid, block, args,
                                      **launch_kw)

    # -- device memory passthrough ------------------------------------------
    def to_device(self, host):
        return self.device.to_device(host)

    def zeros(self, shape, dtype=None):
        import numpy as np

        return self.device.zeros(shape, dtype or np.float32)

    def empty_like(self, host):
        return self.device.empty_like(host)

    # -- experiment harness --------------------------------------------------
    def _cache(self):
        if self._result_cache is None:
            from .experiments.common import ResultCache

            self._result_cache = ResultCache(self.options.cache_path())
        return self._result_cache

    def run_app(self, app: str, scheme: str, scale: str = "bench",
                verify: bool = False, on_error: str = "degrade",
                spec: str | None = None):
        """One (app, scheme) simulation cell via the experiment harness.

        ``spec`` overrides the session's spec *name* for this cell (the
        harness resolves it independently), which is what lets one service
        session serve requests against any spec.
        """
        from .experiments.common import run_app

        with self._scope():
            return run_app(app, scheme, spec or self.spec_name, scale,
                           cache=self._cache(), verify=verify,
                           on_error=on_error)

    def request(self, req):
        """Execute one typed protocol request in-process.

        Accepts the :mod:`repro.service.protocol` compute requests
        (:class:`~repro.service.protocol.CompileRequest`,
        :class:`~repro.service.protocol.AnalyzeRequest`,
        :class:`~repro.service.protocol.CattRequest`,
        :class:`~repro.service.protocol.RunAppRequest`) and returns the
        matching typed Response — the same objects a
        :class:`~repro.service.client.ServiceClient` returns for the same
        request, so local and remote execution swap freely.
        """
        from .service.handlers import execute_request

        return execute_request(self, req)

    def sweep(self, cells=None, scale: str = "bench", policy=None,
              resume: bool = False):
        """Populate this session's cache with simulation cells.

        ``cells=None`` sweeps everything ``catt all`` consumes; jobs come
        from the session options.  ``policy`` is a
        :class:`~repro.experiments.sweep.SweepPolicy` (deadlines/retries);
        ``resume=True`` replays the write-ahead journal of an interrupted
        sweep and recomputes only what is missing.
        """
        from .experiments.sweep import all_cells, run_sweep

        with self._scope():
            return run_sweep(cells if cells is not None else all_cells(scale),
                             jobs=self.options.jobs, cache=self._cache(),
                             options=self.options, policy=policy,
                             resume=resume)

    # -- observability ------------------------------------------------------
    def spans(self):
        """Root spans collected so far (tracing must be enabled)."""
        return _trace_mod.tracer().roots

    def metrics_snapshot(self) -> dict:
        return metrics_registry.registry().snapshot()

    def render_trace(self) -> str:
        return render_tree(self.spans(), self.metrics_snapshot()
                           if self.options.metrics else None)

    def write_trace(self, path: str | Path, fmt: str = "chrome") -> Path:
        """Dump collected spans: ``fmt`` is ``"chrome"`` or ``"jsonl"``."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "chrome":
            payload = to_chrome_trace(self.spans(), self.metrics_snapshot())
            path.write_text(json.dumps(payload, indent=1) + "\n")
        elif fmt == "jsonl":
            path.write_text(to_jsonl(self.spans()))
        else:
            raise ValueError(f"unknown trace format {fmt!r}")
        return path

    def write_manifest(self, path: str | Path, command: str = "session",
                       extra_config: dict | None = None) -> Path:
        config = {"spec": self.spec_name, **self.options.summary()}
        if extra_config:
            config.update(extra_config)
        manifest = build_manifest(
            command, config, spans=self.spans(),
            metrics=self.metrics_snapshot() if self.options.metrics else None,
        )
        return write_manifest(manifest, path)

    def reset_observability(self) -> None:
        _trace_mod.tracer().reset()
        metrics_registry.registry().reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Session(spec={self.spec_name!r}, options={self.options})"
