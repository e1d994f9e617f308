"""Simulation options: the single source of truth for engine/cache/jobs.

Historically environment variables steered the simulator and the
experiment harness from different call sites:

* ``REPRO_SIM_ENGINE`` — ``"tape"`` (default) | ``"interp"``;
* ``REPRO_CACHE`` — result-cache location (``""`` = memory-only).

They still work, but are **deprecated**: reading one emits a
:class:`DeprecationWarning` (once per variable per process) pointing at
:class:`SimOptions` / :class:`repro.api.Session`.  New code constructs a
``SimOptions`` and either passes it explicitly (``run_sweep(...,
options=...)``) or activates it process-wide via :func:`use_options` — which
is exactly what ``Session`` does, resolving the environment *once* at
construction instead of at every launch.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

ENGINE_ENV = "REPRO_SIM_ENGINE"   # "tape" (default) | "interp"
CACHE_ENV = "REPRO_CACHE"         # result-cache path ("" = memory-only)
SANITIZE_ENV = "REPRO_SIM_SANITIZE"   # "" / "0" (default off) | anything else

#: Functional engines: the launch-wide uop tape (the fast path) and the
#: AST-walk interpreter it is checked against.
ENGINES = ("interp", "tape")


@dataclass(frozen=True)
class SimOptions:
    """Resolved simulation/experiment configuration.

    ``cache_dir`` semantics: ``None`` keeps the harness default (the
    sharded store under ``.bench_cache/`` in the working directory), ``""``
    means memory-only (no disk cache), a ``*.json`` path selects the legacy
    single-file JSON cache at that path, and any other path is the root
    directory of a sharded result store.
    """

    engine: str = "tape"
    cache_dir: str | None = None
    jobs: int = 1
    trace: bool = False
    metrics: bool = False
    # Co-simulated SMs sharing one L2 (the multi-SM model); 1 = the classic
    # single-SM simulation, bit-identical to the pre-multi-SM substrate.
    sms: int = 1
    # Shadow-memory race sanitizer: record per-word last accessors and report
    # conflicting same-barrier-epoch accesses from distinct threads of a TB.
    sanitize: bool = False
    # ATA-Cache mode: run every launch's L1(s) behind one aggregated tag
    # array (allocate-on-second-touch; peer-L1 remote hits at sms > 1).
    # Changes simulated timing, so it participates in the cache signature.
    l1_ata: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.sms < 1:
            raise ValueError(f"sms must be >= 1, got {self.sms}")

    # -- env shim -----------------------------------------------------------
    @classmethod
    def from_env(cls, warn: bool = True, **overrides) -> "SimOptions":
        """Resolve the deprecated environment variables into options.

        ``warn=True`` emits one :class:`DeprecationWarning` per variable per
        process when the variable is actually set.  Keyword ``overrides``
        win over the environment.
        """
        kw: dict = {}
        raw = os.environ.get(ENGINE_ENV)
        if raw is not None:
            if warn:
                _deprecate(ENGINE_ENV, "SimOptions(engine=...)")
            value = raw.strip().lower()
            if value not in ENGINES:
                # Fail loudly at resolution time instead of silently coercing
                # to the default and misattributing every downstream result.
                raise ValueError(
                    f"{ENGINE_ENV}={raw!r} is not a valid engine; choose one "
                    f"of {ENGINES}")
            kw["engine"] = value
        raw = os.environ.get(CACHE_ENV)
        if raw is not None:
            if warn:
                _deprecate(CACHE_ENV, "SimOptions(cache_dir=...)")
            kw["cache_dir"] = raw
        raw = os.environ.get(SANITIZE_ENV)
        if raw is not None:
            # Not deprecated: REPRO_SIM_SANITIZE is the supported CI switch.
            kw["sanitize"] = raw.strip() not in ("", "0")
        kw.update(overrides)
        return cls(**kw)

    def replace(self, **changes) -> "SimOptions":
        return replace(self, **changes)

    def cache_path(self) -> str | None:
        """The result-cache location this configuration implies: a ``.json``
        file (legacy single-file cache) or a sharded-store root directory."""
        if self.cache_dir is None:
            return None
        return self.cache_dir

    #: Fields that change *simulation results* (not how they are computed or
    #: where they are stored).  Only these participate in :meth:`signature`;
    #: engine/jobs are deliberately excluded because CI asserts cache
    #: byte-identity across engines and job counts.
    IDENTITY_FIELDS = ("sms", "l1_ata")

    def signature(self) -> str:
        """Canonical configuration identity for cache keys and coalescing.

        The empty string for the default configuration (so every key the
        pre-signature substrate wrote stays valid), and a stable
        ``field{value}`` suffix otherwise — e.g. ``SimOptions(sms=4)`` →
        ``"sms4"``.  Two options with equal signatures are interchangeable
        for result-identity purposes: same signature ⇒ same simulation
        outcome for any request.
        """
        default = type(self)()
        parts = [f"{f}{getattr(self, f)}" for f in self.IDENTITY_FIELDS
                 if getattr(self, f) != getattr(default, f)]
        return ",".join(parts)

    def summary(self) -> dict:
        """Deterministic dict view (manifest / trace attributes)."""
        return {
            "engine": self.engine,
            "cache_dir": self.cache_dir,
            "jobs": self.jobs,
            "trace": self.trace,
            "metrics": self.metrics,
            "sms": self.sms,
            "sanitize": self.sanitize,
            "l1_ata": self.l1_ata,
        }


_warned: set[str] = set()


def _deprecate(var: str, instead: str) -> None:
    if var in _warned:
        return
    _warned.add(var)
    warnings.warn(
        f"environment variable {var} is deprecated; construct "
        f"repro.SimOptions ({instead}) and pass it through "
        f"repro.Session / use_options() instead",
        DeprecationWarning,
        stacklevel=3,
    )


_ACTIVE: SimOptions | None = None

# Memoized env resolution so per-launch option reads stay O(getenv).
_env_memo: tuple[tuple, SimOptions] | None
_env_memo = None


def active_options() -> SimOptions | None:
    """The explicitly-activated options, or None when running off the env."""
    return _ACTIVE


def set_active_options(options: SimOptions | None) -> SimOptions | None:
    """Install ``options`` process-wide; returns the previous value."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = options
    return previous


@contextmanager
def use_options(options: SimOptions | None):
    """Scope ``options`` as the active configuration for a block."""
    previous = set_active_options(options)
    try:
        yield options
    finally:
        set_active_options(previous)


def current_options() -> SimOptions:
    """What the simulator should use *right now*.

    Explicitly-activated options win; otherwise the (deprecated) environment
    is resolved — memoized on the raw variable values, so monkeypatched
    environments in tests still take effect immediately.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    global _env_memo
    key = (os.environ.get(ENGINE_ENV), os.environ.get(CACHE_ENV),
           os.environ.get(SANITIZE_ENV))
    if _env_memo is None or _env_memo[0] != key:
        _env_memo = (key, SimOptions.from_env())
    return _env_memo[1]


def resolve_cache_path(default: str) -> str:
    """Cache location for :class:`~repro.experiments.common.ResultCache`.

    Active options win, then the deprecated ``REPRO_CACHE`` variable, then
    ``default``.
    """
    opts = _ACTIVE
    if opts is not None and opts.cache_dir is not None:
        return opts.cache_path()
    raw = os.environ.get(CACHE_ENV)
    if raw is not None:
        _deprecate(CACHE_ENV, "SimOptions(cache_dir=...)")
        return raw
    return default
