"""Zero-dependency tracing: nested spans with near-zero disabled overhead.

The repo-wide instrumentation (frontend parse, PTX lowering, every analysis
equation stage, the transform pipeline, simulator launch/lowering/timing, the
sweep executor) calls :func:`span` at phase granularity — never per
instruction — so an *enabled* tracer costs a couple of microseconds per
phase and a *disabled* one costs one attribute check plus returning a shared
no-op context manager.  ``catt bench`` measures that disabled cost
explicitly (``obs_overhead``) and CI gates it at 3%.

Usage::

    from repro.obs import span, tracer

    tracer().enabled = True
    with span("analysis.footprint", kernel="atax_kernel1", loop=0) as sp:
        ...
        sp.set(size_req_lines=412)

Spans nest via a per-tracer stack; exceptions close the span (recording the
error) and propagate.  Worker processes drain their spans to plain dicts and
ship them back so the parent can :meth:`Tracer.adopt` them in deterministic
(caller) order — mirroring the ResultCache single-writer merge.
"""

from __future__ import annotations

import time


class Span:
    """One timed, attributed, possibly-nested phase of work."""

    __slots__ = ("name", "attrs", "start", "end", "children", "error")

    def __init__(self, name: str, attrs: dict | None = None,
                 start: float = 0.0):
        self.name = name
        self.attrs = attrs or {}
        self.start = start
        self.end = start
        self.children: list[Span] = []
        self.error: str | None = None

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 0.0)

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    # -- serialization (workers ship dicts; exporters consume either) ------
    def to_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        if self.error:
            d["error"] = self.error
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        s = cls(d["name"], dict(d.get("attrs", {})), d.get("start", 0.0))
        s.end = d.get("end", s.start)
        s.error = d.get("error")
        s.children = [cls.from_dict(c) for c in d.get("children", [])]
        return s

    def walk(self):
        """Yield this span and every descendant, pre-order."""
        yield self
        for c in self.children:
            yield from c.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._span = Span(name, attrs, tracer._clock())

    def __enter__(self) -> Span:
        t = self._tracer
        s = self._span
        if t._stack:
            t._stack[-1].children.append(s)
        else:
            t.roots.append(s)
        t._stack.append(s)
        return s

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer
        s = self._span
        s.end = t._clock()
        if exc_type is not None:
            s.error = f"{exc_type.__name__}: {exc}"
        # Exception-safe unwind even if inner spans leaked (never popped):
        # drop everything above (and including) this span.
        stack = t._stack
        if s in stack:
            del stack[stack.index(s):]
        return False


class Tracer:
    """Collects a forest of :class:`Span` trees for one process."""

    def __init__(self, enabled: bool = False, clock=time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> "_ActiveSpan | _NullSpan":
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        self.roots = []
        self._stack = []

    def drain(self) -> list[dict]:
        """Detach and return all finished root spans as plain dicts.

        Used by sweep workers: the dicts are picklable and the parent
        re-attaches them with :meth:`adopt`.
        """
        out = [s.to_dict() for s in self.roots]
        self.reset()
        return out

    def adopt(self, span_dicts: list[dict]) -> None:
        """Attach worker-exported spans under the current span (or as roots).

        Call in deterministic (caller cell) order — never completion order —
        so merged traces are reproducible under ``--jobs > 1``.
        """
        spans = [Span.from_dict(d) for d in span_dicts]
        parent = self.current()
        if parent is not None:
            parent.children.extend(spans)
        else:
            self.roots.extend(spans)


_GLOBAL = Tracer(enabled=False)


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _GLOBAL


def install(new: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests, overhead probes); returns the
    previous one."""
    global _GLOBAL
    prev = _GLOBAL
    _GLOBAL = new
    return prev


def span(name: str, **attrs):
    """Open a span on the global tracer (no-op when tracing is disabled)."""
    t = _GLOBAL
    if not t.enabled:
        return NULL_SPAN
    return _ActiveSpan(t, name, attrs)


def enabled() -> bool:
    return _GLOBAL.enabled
