"""perfbench — the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Runs operations of one workload in a closed loop for ``--seconds`` seconds
(at least one), each in a fresh interpreter (``perfbench/op.py``), then
times the program's set-up in fresh interpreters.  It checks every
operation's outputs (NumPy verification, degraded cells, and the simulated
statistics against ``perfbench/reference.json``), prints every metric by
name with its unit, and prints one JSON object as its last stdout line.
With ``--trace 0`` that object carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken from traced
operations that alternate with untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0
#: Fresh interpreters timed per run for ``setup_s``: half before the
#: operations and half after, so a short slow spell of the machine cannot
#: move all of them.
SETUP_SAMPLES = 8

#: What ``setup_s`` covers: importing the package, loading the workload
#: registry and creating a result store.
SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import repro
from repro.experiments.common import ResultCache
from repro.workloads import WORKLOADS
ResultCache(sys.argv[1])
print("ready", flush=True)
"""

#: The paper's CATT geomean improvements (Figs. 7 and 10).
PAPER_PCT = {"build_fig7": 42.96, "build_fig10": 89.23}

END_TO_END = (
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_kinst_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

ENGINES = ("interp", "compiled", "compiled+dedup", "tape")
FAST_ENGINES = ("compiled+dedup", "tape")

PER_LAYER = (
    ("frontend.parse_s", "s"),
    ("analysis.analyze_s", "s"),
    ("transform.catt_compile_s", "s"),
    ("transform.kernels_throttled", "count"),
    ("transform.loops_throttled", "count"),
    ("workloads.setup_verify_s", "s"),
    ("sim.lower_s", "s"),
    ("sim.functional_s", "s"),
    ("sim.functional_ns_per_inst", "ns"),
    ("sim.engine_s", "s"),
    ("sim.engine_ns_per_inst", "ns"),
    ("sim.launch_s", "s"),
    ("sim.launches", "count"),
    *((f"sim.launches.{e.replace('+', '_')}", "count") for e in ENGINES),
    ("sim.fastpath_ratio", "ratio"),
    ("sim.warp_instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.coalescer.requests", "count"),
    ("sim.coalescer.transactions", "count"),
    ("sim.l1.load.accesses", "count"),
    ("sim.l1.load.hits", "count"),
    ("sim.l1.load.misses", "count"),
    ("sim.l1.load.evictions", "count"),
    ("sim.l2.load.accesses", "count"),
    ("sim.l2.load.misses", "count"),
    ("sim.dram.transactions", "count"),
    ("sim.barriers", "count"),
    ("sim.governor.pauses", "count"),
    ("sim.governor.resumes", "count"),
    ("sim.governor.warps_bypassed", "count"),
    ("sim.ata.remote_hits", "count"),
    ("sim.ata.second_touches", "count"),
    ("baselines.bftt.configs", "count"),
    ("baselines.dyncta_s", "s"),
    ("baselines.ciao_s", "s"),
    ("baselines.bypass_s", "s"),
    ("baselines.ata_s", "s"),
    ("experiments.sweep_s", "s"),
    ("experiments.cells", "count"),
    ("experiments.cells_computed", "count"),
    ("experiments.cells_cached", "count"),
    ("experiments.cells_degraded", "count"),
    ("experiments.retries", "count"),
    ("experiments.cell_s.p50", "s"),
    ("experiments.cell_s.max", "s"),
    ("experiments.cell_s.baseline", "s"),
    ("experiments.cell_s.bftt", "s"),
    ("experiments.cell_s.catt", "s"),
    ("experiments.figures_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.overhead_s", "s"),
    ("experiments.cache_hit_ratio", "ratio"),
    ("experiments.worker_peak_rss_mb", "MB"),
    ("obs.unattributed_s", "s"),
    ("obs.trace_overhead_pct", "%"),
)

#: Layers of the self-time accounting table, in pipeline order.
LAYERS = ("frontend", "analysis", "transform", "workloads", "sim.lower",
          "sim.functional", "sim.launch", "sim.engine", "experiments",
          "unattributed")


class BenchError(RuntimeError):
    """A run that cannot produce a result (the program is missing, an
    operation crashed or the deadline passed)."""


def child_env() -> dict[str, str]:
    """The environment for every child: no ``REPRO_*`` variable can change
    what runs, and temporary files stay inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd: list[str], deadline: float) -> str:
    """Run ``cmd`` in its own process group; kill the group at ``deadline``."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:]} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited with code {proc.returncode}")
    return out


def run_ops(args, deadline: float) -> tuple[list[dict], list[dict]]:
    """Closed loop: start the next operation when the previous one ends.

    Returns (untraced, traced) operations.  With ``--trace 1`` the two
    kinds alternate for twice ``--seconds``, so a machine that speeds up or
    slows down during the run biases neither side of the overhead.
    """
    ops: tuple[list[dict], list[dict]] = ([], [])
    budget = args.seconds * (1 + args.trace)
    t0 = time.monotonic()
    while (not ops[0] or len(ops[1]) < args.trace
           or time.monotonic() - t0 < budget):
        trace = int(len(ops[1]) < len(ops[0]) and args.trace)
        cmd = [sys.executable, str(HERE / "op.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--index", str(len(ops[0]) + len(ops[1])),
               "--trace", str(trace)]
        out = run_child(cmd, deadline)
        ops[trace].append(json.loads(out.strip().splitlines()[-1]))
    return ops


def time_setup(count: int, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until the program is ready,
    for ``count`` interpreters one after another."""
    samples = []
    for i in range(count):
        store = OUT / f"setup-store-{os.getpid()}-{i}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(store)],
            stdout=subprocess.PIPE, text=True, env=child_env())
        try:
            ready = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if ready != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        shutil.rmtree(store, ignore_errors=True)
    return samples


def check(workload: str, ops: list[dict], reference: dict) -> tuple[int, int]:
    """(attempted, failed) over every item of every operation.

    An item fails when the program reported it failed (verification error,
    degraded cell) or its simulated statistics differ from the reference.
    """
    ref = reference.get(workload, {})
    attempted = failed = 0
    for op in ops:
        items = set(op["items"]) | set(ref)
        bad = set(op["failed"])
        for item in items:
            if op["digests"].get(item) != ref.get(item):
                bad.add(item)
                print(f"fidelity: {item} differs from the reference",
                      file=sys.stderr)
        attempted += len(items)
        failed += len(bad)
    return attempted, failed


def med(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[dict], setup: list[float], attempted: int,
               failed: int) -> dict[str, float]:
    return {
        "wall_s": med([op["wall_s"] for op in ops]),
        "cells_per_s": med([op["cells"] / op["wall_s"] for op in ops]),
        "sim_kinst_per_s": med([
            op["counters"].get("sim.instructions", 0) / op["wall_s"] / 1e3
            for op in ops]),
        "setup_s": med(setup),
        "peak_rss_mb": med([op["rss_mb"] for op in ops]),
        "ok_ratio": 1.0 - failed / attempted,
    }


def layer_metrics(op: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    c = op["counters"]
    tr = op["trace"]
    layers, calls, notes = tr["layers"], tr["calls"], op["notes"]
    sweep = notes.get("sweep", {})
    inst = c.get("sim.instructions", 0)
    launches = c.get("sim.launches", 0)
    cells = sorted(tr["cell_s"])
    figure_calls = notes.get("figure_calls", 0)

    def ns_per_inst(seconds):
        return seconds / inst * 1e9 if inst else 0.0

    m = {
        "frontend.parse_s": layers.get("frontend", 0.0),
        "analysis.analyze_s": layers.get("analysis", 0.0),
        "transform.catt_compile_s": layers.get("transform", 0.0),
        "transform.kernels_throttled":
            notes.get("throttled", {}).get("kernels", 0),
        "transform.loops_throttled":
            notes.get("throttled", {}).get("loops", 0),
        "workloads.setup_verify_s": layers.get("workloads", 0.0),
        "sim.lower_s": layers.get("sim.lower", 0.0),
        "sim.functional_s": layers.get("sim.functional", 0.0),
        "sim.functional_ns_per_inst":
            ns_per_inst(layers.get("sim.functional", 0.0)),
        "sim.engine_s": layers.get("sim.engine", 0.0),
        "sim.engine_ns_per_inst": ns_per_inst(layers.get("sim.engine", 0.0)),
        "sim.launch_s": layers.get("sim.launch", 0.0),
        "sim.launches": launches,
        "sim.fastpath_ratio":
            (sum(c.get(f"sim.engine.{e}", 0) for e in FAST_ENGINES)
             / launches if launches else 0.0),
        "sim.warp_instructions": inst,
        "sim.l1.load.accesses":
            c.get("sim.l1.load.hits", 0) + c.get("sim.l1.load.misses", 0),
        "sim.l2.load.accesses":
            c.get("sim.l2.load.hits", 0) + c.get("sim.l2.load.misses", 0),
        "baselines.bftt.configs": notes.get("bftt_configs", 0),
        "experiments.sweep_s": calls.get("run_sweep", 0.0),
        "experiments.cells": sweep.get("cells", 0),
        "experiments.cells_computed": sweep.get("computed", 0),
        "experiments.cells_cached": sweep.get("cached", 0),
        "experiments.cells_degraded": sweep.get("degraded", 0),
        "experiments.retries": sweep.get("retried", 0),
        "experiments.cell_s.p50": med(cells),
        "experiments.cell_s.max": cells[-1] if cells else 0.0,
        "experiments.figures_s": sum(
            s for fn, s in calls.items()
            if fn.startswith("build_") or fn == "table2_rows"),
        "experiments.fig3_s": calls.get("build_fig3", 0.0),
        "experiments.overhead_s": calls.get("build_overhead", 0.0),
        "experiments.cache_hit_ratio":
            (notes.get("figure_calls_cached", 0) / figure_calls
             if figure_calls else 0.0),
        "experiments.worker_peak_rss_mb": op["worker_rss_mb"],
        "obs.unattributed_s": layers.get("unattributed", 0.0),
    }
    for e in ENGINES:
        m[f"sim.launches.{e.replace('+', '_')}"] = c.get(f"sim.engine.{e}", 0)
    for name in ("sim.cycles", "sim.coalescer.requests",
                 "sim.coalescer.transactions", "sim.l1.load.hits",
                 "sim.l1.load.misses", "sim.l1.load.evictions",
                 "sim.l2.load.misses", "sim.dram.transactions",
                 "sim.barriers", "sim.governor.pauses",
                 "sim.governor.resumes", "sim.governor.warps_bypassed",
                 "sim.ata.remote_hits", "sim.ata.second_touches"):
        m[name] = c.get(name, 0)
    for scheme in ("dyncta", "ciao", "bypass", "ata"):
        m[f"baselines.{scheme}_s"] = tr["run_app_s_by_scheme"].get(scheme, 0.0)
    for scheme in ("baseline", "bftt", "catt"):
        m[f"experiments.cell_s.{scheme}"] = (
            tr["cell_s_by_scheme"].get(scheme, 0.0))
    return m


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    rows = [layer_metrics(op) for op in traced]
    out = {name: med([r[name] for r in rows]) for name, _ in PER_LAYER
           if name != "obs.trace_overhead_pct"}
    base = med([op["wall_s"] for op in untraced])
    out["obs.trace_overhead_pct"] = (
        (med([op["wall_s"] for op in traced]) - base) / base * 100)
    return out


def print_accounting(traced: list[dict]) -> None:
    """Self time per layer of the median traced operation, and the share of
    the operation's wall clock each one takes."""
    op = sorted(traced, key=lambda o: o["wall_s"])[len(traced) // 2]
    layers = op["trace"]["layers"]
    wall = op["wall_s"]
    print(f"self time by layer (operation of {wall:.3f} s; sweep workers "
          f"run in parallel, so in reproduce the sum can exceed it):")
    total = 0.0
    for layer in LAYERS + tuple(sorted(set(layers) - set(LAYERS))):
        seconds = layers.get(layer, 0.0)
        total += seconds
        print(f"  {layer:16s} {seconds:10.4f} s {seconds / wall * 100:6.1f} %")
    print(f"  {'sum':16s} {total:10.4f} s; remainder (wall - sum) "
          f"{wall - total:+.4f} s")


def print_notes(workload: str, ops: list[dict]) -> None:
    op = ops[0]
    engines = {e: op["counters"].get(f"sim.engine.{e}", 0) for e in ENGINES}
    print(f"engines per operation: {engines}")
    for summary in op["notes"].get("options", []):
        print(f"SimOptions: {json.dumps(summary, sort_keys=True)}")
    walls = sorted(o["wall_s"] for o in ops)
    print(f"operations: {len(ops)}; wall_s min {walls[0]:.4f} "
          f"max {walls[-1]:.4f} (fewer than 11 samples: the median is the "
          f"highest percentile reported)")
    if workload == "reproduce":
        sweep = op["notes"]["sweep"]
        print(f"sweep (run_sweep's report, first operation): "
              f"{sweep['computed']} cells in {sweep['seconds']} s at "
              f"jobs={sweep['jobs']}")
        print(f"largest sweep worker peak RSS: "
              f"{max(o['worker_rss_mb'] for o in ops):.1f} MB")
        for fig, paper in PAPER_PCT.items():
            pct = op["notes"].get(fig)
            if pct is None:
                continue
            print(f"{fig[6:]} CATT geomean improvement at test scale: "
                  f"{pct:+.2f}% (paper: +{paper}%). Not comparable: the "
                  f"inputs are scaled and synthetic and the model is not "
                  f"validated for them (EXPERIMENTS.md).")


def write_reference(workload: str, ops: list[dict]) -> None:
    digests = [op["digests"] for op in ops]
    if any(op["failed"] for op in ops) or any(d != digests[0]
                                              for d in digests):
        raise BenchError("operations failed or disagree; reference not written")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[workload] = dict(sorted(digests[0].items()))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests[0])} digests for {workload} to {REFERENCE}",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("reproduce", "registry-launch", "contention"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's simulated statistics as the "
                         "fidelity reference for the workload")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {ROOT / 'src'}; run from the "
                         f"root of a checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [m["name"] for m in declared[key]] != [n for n, _ in names]:
            raise BenchError(f"BENCHMARK.json {key} differs from run.py")
    OUT.mkdir(exist_ok=True)
    half = 0 if args.trace else SETUP_SAMPLES // 2
    setup = time_setup(half, deadline)
    untraced, traced = run_ops(args, deadline)
    ops = untraced + traced
    setup += time_setup(half, deadline)
    if args.write_reference:
        write_reference(args.workload, ops)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    attempted, failed = check(args.workload, ops, reference)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print_notes(args.workload, ops)
    print(f"fail_ratio {failed / attempted:.4f} "
          f"({failed} of {attempted} checked items failed)")
    if args.trace:
        print_accounting(traced)
        print("spans: " + " ".join(op["trace_file"] for op in traced))
        metrics, units = per_layer(untraced, traced), dict(PER_LAYER)
    else:
        metrics = end_to_end(untraced, setup, attempted, failed)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
