"""Differential gate: the tape engine vs the AST-walk interpreter.

For every workload in the registry at test scale, the launch-wide
vectorized tape engine must produce bit-identical functional results
(``verify`` recomputes the kernel on the host and compares the device
buffers) and identical cache/IPC metrics to the reference AST-walk
interpreter.  This is the acceptance gate for the fast engine: any
divergence in cycles, hit rates, transaction counts or verified output
fails the corresponding app's test.
"""

from __future__ import annotations

import pytest

from repro.options import SimOptions, use_options
from repro.sim import tape
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.base import run_workload


def _run(app: str, engine: str):
    with use_options(SimOptions(engine=engine)):
        run = run_workload(get_workload(app, scale="test"))
    signature = [
        (r.kernel_name, tuple(sorted(r.metrics.summary().items())))
        for r in run.results
    ]
    engines = {r.engine for r in run.results}
    return signature, run.verified, engines


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_engines_match_interpreter(app):
    """Two-way differential: interp vs tape."""
    ref_sig, ref_verified, ref_engines = _run(app, "interp")
    assert ref_verified is True
    assert ref_engines == {"interp"}

    sig, verified, engines = _run(app, "tape")
    assert sig == ref_sig, f"{app}: tape metrics diverge from interp"
    assert verified is True, f"{app}: tape functional results diverge"
    # The tape must actually lower every kernel — a silent fallback to the
    # interpreter would let the fast path rot while this gate stays green.
    assert engines == {"tape"}, f"{app}: tape fell back to {sorted(engines)}"


def test_tape_engine_label():
    """The tape engine labels every launch it records."""
    _, _, engines = _run("ATAX", "tape")
    assert engines == {"tape"}


def test_chunking_is_invisible(monkeypatch):
    """Forcing tiny chunks (one BP TB per wide pass instead of one pass for
    the whole launch) must not change metrics or results: chunk boundaries
    are a perf knob, not a semantic one."""
    baseline = _run("BP", "tape")
    # ``max_slots`` is a keyword default bound at def time, and the launch
    # path calls ``record_tape_streams`` without it: patch the defaults.
    defaults = tape.record_tape_streams.__defaults__
    monkeypatch.setattr(tape.record_tape_streams, "__defaults__",
                        defaults[:-1] + (8,))
    chunked = _run("BP", "tape")
    assert chunked == baseline
    assert chunked[1:] == (True, {"tape"})
