"""One operation of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per operation, so every operation pays
the same cold in-process caches a user's ``catt`` invocation pays, and its
peak RSS is its own.  The script imports the program from ``src/`` of the
working directory, runs one pass of the named workload through the
program's public functions only, and prints one JSON object as its last
stdout line: wall time, work counts, per-item fidelity digests, failures,
the metrics-registry counters and, with ``--trace 1``, per-layer self times
computed from the spans.

Every call passes an explicit :class:`SimOptions` that names no engine and
no dedup setting, so the default configuration is what gets measured, and
``run.py`` strips every ``REPRO_*`` variable from the environment first.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

from repro import SimOptions, catt_compile, use_options  # noqa: E402
from repro.experiments.common import ResultCache, run_app  # noqa: E402
from repro.experiments.fig2 import build_fig2  # noqa: E402
from repro.experiments.fig3 import build_fig3  # noqa: E402
from repro.experiments.fig6 import build_fig6  # noqa: E402
from repro.experiments.fig7 import build_fig7  # noqa: E402
from repro.experiments.fig8 import build_fig8  # noqa: E402
from repro.experiments.fig9 import build_fig9  # noqa: E402
from repro.experiments.fig10 import build_fig10  # noqa: E402
from repro.experiments.overhead import build_overhead  # noqa: E402
from repro.experiments.sweep import all_cells, run_sweep  # noqa: E402
from repro.experiments.table3 import build_table3  # noqa: E402
from repro.obs import registry, span, tracer  # noqa: E402
from repro.sim import TITAN_V_SIM  # noqa: E402
from repro.workloads import (  # noqa: E402
    WORKLOADS,
    get_workload,
    run_workload,
    table2_rows,
)

#: Sweep worker processes for ``reproduce``: fixed, not read from the
#: machine, so the benchmark does the same work everywhere.
SWEEP_JOBS = 2

#: ``contention`` configurations: (scheme, co-simulated SMs).  ATA needs
#: peers to show remote hits, so it runs on the shared-L2 multi-SM engine.
CONTENTION = (("dyncta", 1), ("ciao", 1), ("bypass", 1), ("ata", 4))
#: ``contention`` apps: the CS apps on which a run-time governor (DynCTA or
#: CIAO) acts at bench scale.  SYR2K and CORR, where none does, are left
#: out so that one operation fits the run budget.
CONTENTION_APPS = ("GSMV", "ATAX", "BICG", "MVT", "BFS", "CFD", "KM", "PF")

#: Launch counters that make up a fidelity digest: cycles plus the cache,
#: coalescer and DRAM counters (and the scheme mechanisms' own counters).
#: Engine labels are left out on purpose: which engine ran may change, the
#: simulated statistics may not.
FIDELITY_COUNTERS = (
    "sim.cycles", "sim.instructions", "sim.barriers",
    "sim.coalescer.requests", "sim.coalescer.transactions",
    "sim.l1.load.hits", "sim.l1.load.misses", "sim.l1.load.evictions",
    "sim.l1.store.hits", "sim.l1.store.misses", "sim.l1.store.evictions",
    "sim.l2.load.hits", "sim.l2.load.misses", "sim.l2.load.evictions",
    "sim.dram.transactions",
    "sim.governor.pauses", "sim.governor.resumes",
    "sim.governor.warps_bypassed",
    "sim.ata.remote_hits", "sim.ata.second_touches",
    "sim.ata.first_touch_bypasses",
)

#: SMMetrics fields hashed per launch in ``registry-launch``.
LAUNCH_FIELDS = (
    "cycles", "instructions", "coalescer_requests",
    "global_load_transactions", "global_store_transactions",
    "l1_store_hits", "l1_store_misses", "dram_transactions", "barriers",
)
CACHE_FIELDS = ("accesses", "hits", "misses", "evictions")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode()).hexdigest()


def counters() -> dict[str, int]:
    return registry().snapshot()["counters"]


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0) for k in FIDELITY_COUNTERS}


def cell_record(result) -> dict:
    """An AppResult without its diagnostics, whose messages may carry
    timings; a degraded cell is counted as a failure on its own."""
    record = dataclasses.asdict(result)
    record.pop("diagnostics", None)
    return record


class Op:
    """State of one operation: its id, issued items and their outcomes."""

    def __init__(self, op_id: str):
        self.id = op_id
        self.digests: dict[str, str] = {}
        self.failed: set[str] = set()
        self.notes: dict = {}
        self.cells = 0

    def call(self, fn, *args, labels: dict | None = None, **kwargs):
        """Call a public function of the program inside a benchmark span
        named after it and labelled with the operation id and ``labels``."""
        with span("bench." + fn.__name__, op=self.id, **(labels or {})):
            return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def reproduce(op: Op, rng: random.Random) -> None:
    """``catt all --scale test`` from a cold on-disk sharded store."""
    store = OUT / f"store-{op.id}"
    shutil.rmtree(store, ignore_errors=True)
    opts = SimOptions(cache_dir=str(store), jobs=SWEEP_JOBS)
    try:
        with use_options(opts):
            cache = ResultCache(str(store))
            op.notes["options"] = [opts.summary()]
            cells = all_cells("test")
            rng.shuffle(cells)
            report = op.call(run_sweep, cells, jobs=SWEEP_JOBS,
                             cache=cache, options=opts)
            op.notes["sweep"] = dataclasses.asdict(report)
            op.cells = report.computed
            configs = 0
            for cell in cells:
                key = ResultCache.key(*cell)
                result = cache.get(key)
                if result is None or result.degraded:
                    op.failed.add(key)
                    continue
                op.digests[key] = digest(cell_record(result))
                if result.scheme in ("bftt", "swl"):
                    configs += len(result.sweep or {})
            op.notes["bftt_configs"] = configs

            before = counters()
            op.call(table2_rows)
            for build in (build_table3, build_fig2, build_fig6, build_fig7,
                          build_fig8, build_fig9, build_fig10):
                data = op.call(build, scale="test", cache=cache)
                if build in (build_fig7, build_fig10):
                    op.notes[build.__name__] = (
                        data["improvement_pct"].get("catt"))
            op.call(build_fig3)
            op.call(build_overhead, scale="test")
            after = counters()
            served = (after.get("experiment.cells.cached", 0)
                      - before.get("experiment.cells.cached", 0))
            computed = (after.get("experiment.cells", 0)
                        - before.get("experiment.cells", 0))
            op.notes["figure_calls"] = served + computed
            op.notes["figure_calls_cached"] = served
            cache.flush()
            op.digests["store"] = cache.digest()
    finally:
        shutil.rmtree(store, ignore_errors=True)


def launch_digest(run) -> list:
    out = []
    for r in run.results:
        m = r.metrics
        row = {f: getattr(m, f) for f in LAUNCH_FIELDS}
        for level in ("l1_load", "l2_load"):
            stats = getattr(m, level)
            row[level] = {f: getattr(stats, f) for f in CACHE_FIELDS}
        out.append((r.kernel_name, row))
    return out


def registry_launch(op: Op, rng: random.Random) -> None:
    """Every registry app: baseline launch, then CATT compile and launch,
    both verified against NumPy, in one process with no result cache."""
    apps = list(WORKLOADS)
    rng.shuffle(apps)
    throttled = {"kernels": 0, "loops": 0}
    opts = SimOptions(cache_dir="")
    op.notes["options"] = [opts.summary()]
    with use_options(opts):
        for app in apps:
            wl = op.call(get_workload, app, "test", labels={"app": app})
            for scheme in ("baseline", "catt"):
                item = f"{app}|{scheme}"
                unit = None
                if scheme == "catt":
                    src = op.call(wl.unit, labels={"app": app})
                    comp = op.call(catt_compile, src,
                                   dict(wl.launch_configs()), TITAN_V_SIM,
                                   labels={"app": app})
                    unit = comp.unit
                    for t in comp.transforms.values():
                        throttled["kernels"] += int(t.transformed)
                        throttled["loops"] += len(t.warp_splits)
                    # A fresh instance: the baseline run consumed this one's
                    # random draws, and both runs must see the same inputs.
                    wl = op.call(get_workload, app, "test",
                                 labels={"app": app})
                try:
                    run = op.call(run_workload, wl, TITAN_V_SIM, unit=unit,
                                  verify=True,
                                  labels={"app": app, "scheme": scheme})
                except Exception:
                    # A failed verification or launch is one failed item;
                    # the other apps still run.
                    print(f"{item} failed:", file=sys.stderr)
                    traceback.print_exc()
                    op.failed.add(item)
                    continue
                op.cells += 1
                op.digests[item] = digest(launch_digest(run))
    op.notes["throttled"] = throttled


def contention(op: Op, rng: random.Random) -> None:
    """CS apps at bench scale under the contention-aware baselines."""
    cache = ResultCache("")
    items = [(app, scheme, sms) for app in CONTENTION_APPS
             for scheme, sms in CONTENTION]
    rng.shuffle(items)
    options = {sms: SimOptions(cache_dir="", sms=sms)
               for _scheme, sms in CONTENTION}
    op.notes["options"] = [o.summary() for _sms, o in sorted(options.items())]
    for app, scheme, sms in items:
        item = f"{app}|{scheme}|sms{sms}"
        with use_options(options[sms]):
            before = counters()
            result = op.call(run_app, app, scheme, "max", "bench", cache,
                             verify=True,
                             labels={"app": app, "scheme": scheme})
            delta = counter_delta(before, counters())
        if result.degraded:
            print(f"{item}: degraded: {result.diagnostics}", file=sys.stderr)
            op.failed.add(item)
            continue
        op.cells += 1
        op.digests[item] = digest({"cell": cell_record(result),
                                   "launches": delta})


WORKLOAD_FNS = {
    "reproduce": reproduce,
    "registry-launch": registry_launch,
    "contention": contention,
}


# ---------------------------------------------------------------------------
# Trace accounting
# ---------------------------------------------------------------------------


def layer_of(name: str) -> str:
    """The layer a span's self time belongs to, named after the modules."""
    if name.startswith("bench."):
        fn = name[len("bench."):]
        if fn in ("get_workload", "run_workload", "table2_rows"):
            return "workloads"
        if fn == "unit":
            return "frontend"
        if fn == "catt_compile":
            return "transform"
        if fn == "op":
            return "unattributed"
        return "experiments"
    if name.startswith("frontend."):
        return "frontend"
    if name.startswith(("analysis.", "ptx.")) or name == "transform.analysis":
        return "analysis"
    if name.startswith("transform."):
        return "transform"
    if name in ("sim.compile", "sim.compile.lower", "sim.tape.lower"):
        return "sim.lower"
    if name.startswith(("sim.tape.", "sim.dedup.")) \
            or name == "sim.shadow_exec":
        return "sim.functional"
    if name == "sim.engine":
        return "sim.engine"
    if name.startswith("sim."):
        return "sim.launch"
    if name.startswith("experiment."):
        return "experiments"
    return name.split(".", 1)[0]


def covered(parent, children) -> float:
    """Seconds of ``parent``'s interval covered by the union of children.

    Sweep workers run in parallel, so adopted child spans can overlap.
    """
    spans = sorted((max(c.start, parent.start), min(c.end, parent.end))
                   for c in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in spans:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def account(roots) -> dict:
    """Self time per layer plus the spans the per-layer metrics need."""
    layers: dict[str, float] = {}
    cell_s: list[float] = []
    cell_by_scheme: dict[str, float] = {}
    calls: dict[str, float] = {}
    run_app_by_scheme: dict[str, float] = {}
    stack = [(root, False) for root in roots]
    while stack:
        s, in_sweep = stack.pop()
        in_sweep = in_sweep or s.name == "experiment.sweep"
        stack.extend((c, in_sweep) for c in s.children)
        layer = layer_of(s.name)
        layers[layer] = (layers.get(layer, 0.0) + s.seconds
                         - covered(s, s.children))
        if (s.name == "experiment.cell" and in_sweep
                and not s.attrs.get("cached")):
            cell_s.append(s.seconds)
            scheme = s.attrs.get("scheme", "?")
            cell_by_scheme[scheme] = cell_by_scheme.get(scheme, 0.0) + s.seconds
        if s.name.startswith("bench."):
            fn = s.name[len("bench."):]
            calls[fn] = calls.get(fn, 0.0) + s.seconds
            if fn == "run_app":
                scheme = s.attrs["scheme"]
                run_app_by_scheme[scheme] = (run_app_by_scheme.get(scheme, 0.0)
                                             + s.seconds)
    return {
        "layers": layers,
        "cell_s": cell_s,
        "cell_s_by_scheme": cell_by_scheme,
        "calls": calls,
        "run_app_s_by_scheme": run_app_by_scheme,
    }


def write_trace(roots, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in roots], fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0,
                    help="operation number within the run (labels spans)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    # Counters feed the fidelity digests, so the registry is on in every
    # operation (one update per counter per launch); spans only when traced.
    registry().enabled = True
    registry().reset()
    tracer().enabled = bool(args.trace)
    tracer().reset()
    op = Op(f"{args.workload}-s{args.seed}-{args.index}")
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    with span("bench.op", op=op.id, workload=args.workload):
        WORKLOAD_FNS[args.workload](op, rng)
    wall = time.perf_counter() - t0

    snapshot = registry().snapshot()
    result = {
        "wall_s": wall,
        "cells": op.cells,
        "items": sorted(set(op.digests) | op.failed),
        "failed": sorted(op.failed),
        "digests": op.digests,
        "counters": snapshot["counters"],
        "notes": op.notes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if args.trace:
        roots = list(tracer().roots)
        result["trace"] = account(roots)
        path = OUT / f"trace-{args.workload}-seed{args.seed}-{args.index}.json"
        write_trace(roots, path)
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
