#!/usr/bin/env python3
"""mazenca benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 25 --trace 0

Untraced (``--trace 0``) it prints the end-to-end metrics: ``mazes_per_s``
(mazes carried per second of timed wall time, over every round of the run),
``setup_s`` (median of fresh-process set-ups) and ``peak_rss_mb``.  Traced
(``--trace 1``) it prints the per-layer metrics, taken by wrapping mazenca's
public functions from outside (see tracer.py), plus the tracing overhead.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
provenance goes to ``perfbench/results/``.

mazenca is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the benchmark exits 2 and prints no
result.  ``--smoke`` runs the same code on tiny inputs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from tracer import Tracer, install
from workloads import WORKLOADS, Diameter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5


def load_mazenca():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mazenca
    except ImportError as exc:
        print(f"perfbench: cannot import mazenca from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(mazenca.__file__).resolve().is_relative_to(src):
        print(f"perfbench: mazenca was imported from {mazenca.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return mazenca


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories when the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # operations whose output failed its check


def run_round(ops, tally: Tally, tracer=None) -> float:
    """Run every operation once; return the seconds spent inside them.
    Checks run outside the timed region (and outside tracing)."""
    busy = 0.0
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            busy += perf_counter() - t0
            tally.attempted += op.attempts
            tally.failed += op.attempts
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        busy += perf_counter() - t0
        tally.attempted += op.attempts
        if tracer is not None:
            tracer.paused = True
        msg = op.check(out)
        if tracer is not None:
            tracer.paused = False
        if msg is not None:
            tally.wrong.append(msg)
    return busy


def run_for(workload, seconds: float, tally: Tally, rounds: int | None = None,
            tracer=None) -> list[float]:
    """Whole rounds: exactly ``rounds`` of them, or else as many as are
    predicted to end within ``seconds`` of wall time (at least one)."""
    busy: list[float] = []
    start = perf_counter()
    while True:
        busy.append(run_round(workload.round(), tally, tracer))
        if rounds is not None:
            if len(busy) >= rounds:
                return busy
            continue
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(busy) > seconds:
            return busy


def peak_rss_mb(workers: int) -> float:
    """Peak of this process plus, when a pool ran, ``workers`` times the largest
    worker's peak (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def setup_probe_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    mazenca, built the workload's inputs and run one warm-up operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def end_to_end(mz, args, tally: Tally) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload](mz, args.seed, args.smoke)
    wl.warm_up()
    mazes = sum(op.mazes for op in wl.round())
    busy = run_for(wl, args.seconds, tally)
    workers = getattr(wl, "workers", 0)
    rss = peak_rss_mb(workers if workers > 1 else 0)
    probes = 1 if args.smoke else SETUP_PROBES
    setup = [setup_probe_seconds(args) for _ in range(probes)]
    metrics = {
        "mazes_per_s": (mazes * len(busy) / sum(busy), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"rounds": len(busy), "round_busy_s": busy, "mazes_per_round": mazes,
              "setup_samples_s": setup}
    return metrics, detail


def traced(mz, args, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics, each per traced round of the workload (a round is
    identical work every time, so counts repeat exactly), except
    ``grid.generate_s``, which covers building the inputs."""
    tr = Tracer()
    install(tr, mz)
    wl = WORKLOADS[args.workload](mz, args.seed, args.smoke)
    generate_s = tr.incl["grid.generate_maze"]
    wl.warm_up()
    tr.uninstall()

    share = args.seconds / 2
    pool_round = None
    if isinstance(wl, Diameter):
        # timed pool first, then the same rounds in-process so every span
        # lives in this process
        share = args.seconds / 3
        pool_round = statistics.median(run_for(wl, share, tally))
        wl.workers = 1
    untraced = run_for(wl, share, tally)
    k = len(untraced)

    tr = Tracer()  # spans of the traced rounds only
    install(tr, mz)
    try:
        traced_busy = run_for(wl, 0, tally, rounds=k, tracer=tr)
    finally:
        tr.uninstall()
    tr.write(spans_path)

    u, t = sum(untraced), sum(traced_busy)
    metrics = layer_metrics(tr, k, generate_s)
    metrics["verify.pool_speedup"] = ((t / k) / pool_round if pool_round else 0.0, "ratio")
    metrics["trace.overhead_s"] = ((t - u) / k, "s")
    metrics["trace.overhead_fraction"] = (t / u - 1.0, "ratio")
    detail = {"rounds_untraced": k, "untraced_busy_s": untraced, "traced_busy_s": traced_busy,
              "pool_round_s": pool_round, "spans": len(tr.starts)}
    return metrics, detail


def layer_metrics(tr, k: int, generate_s: float) -> dict:
    c, inc, slf, tl = tr.count, tr.incl, tr.self_s, tr.tally

    def per(x):
        return x / k

    def ratio(a, b):
        return a / b if b else 0.0

    bfs_runs = c["bfs.run_bfs"] + c["bfs.run_bfs.single"]
    bfs_incl = inc["bfs.run_bfs"] + inc["bfs.run_bfs.single"]
    offspring = c["evolve.score_offspring"]
    m = {
        "tensor.conv2d.calls": (per(c["tensor.conv2d"]), "count"),
        "tensor.conv2d.busy_s": (per(inc["tensor.conv2d"]), "s"),
        "tensor.conv2d.us_per_call": (1e6 * ratio(inc["tensor.conv2d"], c["tensor.conv2d"]), "us"),
        "tensor.conv2d.tap_cells": (per(tl["conv2d.tap_cells"]), "count"),
        "tensor.conv2d.bytes_computed": (per(tl["conv2d.bytes"]), "B"),
        "tensor.activation.calls": (per(c["tensor.activation"]), "count"),
        "tensor.activation.busy_s": (per(inc["tensor.activation"]), "s"),
        "bfs.runs": (per(bfs_runs), "count"),
        "bfs.steps": (per(tl["bfs.steps"]), "count"),
        "bfs.self_s": (per(slf["bfs.run_bfs"] + slf["bfs.run_bfs.single"]), "s"),
        "bfs.us_per_step": (1e6 * ratio(bfs_incl, tl["bfs.steps"]), "us"),
        "bfs.live_fraction": (ratio(tl["bfs.changed"], tl["bfs.cells"]), "ratio"),
        "extract.runs": (per(c["extract.run_extract"]), "count"),
        "extract.steps": (per(tl["extract.steps"]), "count"),
        "extract.self_s": (per(slf["extract.run_extract"]), "s"),
        "extract.us_per_step": (1e6 * ratio(inc["extract.run_extract"], tl["extract.steps"]), "us"),
        "dfs.runs": (per(c["dfs.run_dfs"]), "count"),
        "dfs.steps": (per(tl["dfs.steps"]), "count"),
        "dfs.self_s": (per(slf["dfs.run_dfs"]), "s"),
        "dfs.us_per_step": (1e6 * ratio(inc["dfs.run_dfs"], tl["dfs.steps"]), "us"),
        "dfs.live_fraction": (ratio(tl["dfs.changed"], tl["dfs.cells"]), "ratio"),
        "diameter.floods": (per(c["bfs.run_bfs.single@diameter"]), "count"),
        "diameter.dfs_runs": (per(c["dfs.run_dfs@diameter"]), "count"),
        "diameter.flood_s": (per(inc["bfs.run_bfs.single@diameter"]), "s"),
        "diameter.dfs_s": (per(inc["dfs.run_dfs@diameter"]), "s"),
        "diameter.witness_s": (per(inc["bfs.run_bfs@diameter"]
                                   + inc["extract.run_extract@diameter"]), "s"),
        "diameter.schedule_s": (per(inc["diameter.schedule"]), "s"),
        "oracle.calls": (per(c["oracle"]), "count"),
        "oracle.busy_s": (per(inc["oracle"]), "s"),
        "solvers.solve.calls": (per(c["solvers.solve"]), "count"),
        "solvers.solve.us_per_call": (1e6 * ratio(inc["solvers.solve"], c["solvers.solve"]), "us"),
        "solvers.budget_exhausted": (per(tl["solvers.budget_exhausted"]), "count"),
        "evolve.score_incumbents_s": (per(inc["evolve.score_incumbent"]), "s"),
        "evolve.mutate_label_s": (per(inc["evolve.mutate_label"]), "s"),
        "evolve.score_offspring_s": (per(inc["evolve.score_offspring"]), "s"),
        "evolve.solver_calls": (per(c["evolve.score_incumbent"] + offspring), "count"),
        "evolve.rescored_unchanged": (per(tl["evolve.rescored_unchanged"]), "count"),
        "evolve.replacement_ratio": (ratio(tl["evolve.replacements"], offspring), "ratio"),
        "verify.checks": (per(c["verify.check"]), "count"),
        "verify.check_s": (per(inc["verify.check"]), "s"),
        "grid.generate_s": (generate_s, "s"),
        "grid.one_hot.calls": (per(c["grid.one_hot"]), "count"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    mz = load_mazenca()
    if args.setup_probe:
        WORKLOADS[args.workload](mz, args.seed, args.smoke).warm_up()
        print("ready", flush=True)
        return 0

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    tally = Tally()
    if args.trace:
        metrics, detail = traced(mz, args, tally, RESULTS / f"spans-{tag}.npz")
    else:
        metrics, detail = end_to_end(mz, args, tally)
    for msg in tally.errors + tally.wrong:
        print(f"perfbench: {msg}", file=sys.stderr)

    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "provenance": provenance, "detail": detail,
              "errors": tally.errors[:20], "wrong": tally.wrong[:20]}
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
