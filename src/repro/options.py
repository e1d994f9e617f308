"""Simulation options: the single source of truth for engine/cache/jobs.

Code constructs a :class:`SimOptions` and either passes it explicitly
(``run_sweep(..., options=...)``) or activates it process-wide via
:func:`use_options` — which is exactly what :class:`repro.api.Session` and
the ``catt`` CLI do.  The one environment variable still read is
``REPRO_SIM_SANITIZE``, the CI switch that attaches the race sanitizer to
every launch.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

SANITIZE_ENV = "REPRO_SIM_SANITIZE"   # "" / "0" (default off) | anything else

#: Functional engines: the launch-wide uop tape (the fast path) and the
#: AST-walk interpreter it is checked against.
ENGINES = ("interp", "tape")


@dataclass(frozen=True)
class SimOptions:
    """Resolved simulation/experiment configuration.

    ``cache_dir`` semantics: ``None`` keeps the harness default (the
    sharded store under ``.bench_cache/`` in the working directory), ``""``
    means memory-only (no disk cache), and any other path is the root
    directory of a sharded result store.  A ``*.json`` path is rejected by
    :class:`~repro.experiments.common.ResultCache`.
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

    @classmethod
    def from_env(cls, **overrides) -> "SimOptions":
        """Options with ``REPRO_SIM_SANITIZE`` folded in; keyword
        ``overrides`` win over the environment."""
        kw: dict = {}
        raw = os.environ.get(SANITIZE_ENV)
        if raw is not None:
            kw["sanitize"] = raw.strip() not in ("", "0")
        kw.update(overrides)
        return cls(**kw)

    def replace(self, **changes) -> "SimOptions":
        return replace(self, **changes)

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


_ACTIVE: SimOptions | None = None

# Memoized env resolution so per-launch option reads stay O(getenv).
_env_memo: tuple[str | None, SimOptions] | None
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

    Explicitly-activated options win; otherwise the environment is
    resolved — memoized on the raw variable value, so monkeypatched
    environments in tests still take effect immediately.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    global _env_memo
    key = os.environ.get(SANITIZE_ENV)
    if _env_memo is None or _env_memo[0] != key:
        _env_memo = (key, SimOptions.from_env())
    return _env_memo[1]


def resolve_cache_path(default: str) -> str:
    """Cache location for :class:`~repro.experiments.common.ResultCache`:
    the active options' ``cache_dir`` if set, else ``default``."""
    opts = _ACTIVE
    if opts is not None and opts.cache_dir is not None:
        return opts.cache_dir
    return default
