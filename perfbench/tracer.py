"""Span tracer that wraps mazenca's public functions from outside.

Every wrapped call records a span: name, start, end, parent span and the
operation id the benchmark set before the call.  Spans stay in memory (in
compact arrays) and are written out once, when the run ends.  Self time is a
span's duration minus the time its child spans cover; work the tracer does
for its own probes (live-cell counts, tap counts) is charged to the parent as
child time, so it never shows up as a layer's self time.

Wrapping replaces the function object wherever a mazenca module holds it
(``from .tensor import conv2d`` binds a second name), so the program is
traced without editing it.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ORACLE_FUNCS = (
    "distance_map",
    "shortest_path_union",
    "canonical_shortest_path",
    "dfs_order",
    "diameter_oracle",
)
ACTIVATIONS = ("step", "relu", "sawtooth")
DIAMETER = "diameter.diameter_nca"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_idx = array("i")
        self.op_ids = array("i")
        self.op = -1
        self.paused = False  # set while the benchmark checks outputs
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._depth: Counter = Counter()  # open spans per name
        self.count: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()  # counts taken by probes
        self._patches: list = []  # (owner, key, original, is_item)

    # spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.name_idx.append(nid)
        self.op_ids.append(self.op)
        self.ends.append(float("nan"))
        self._stack.append([idx, name, 0.0])
        self._depth[name] += 1
        self.starts.append(perf_counter())

    def _close(self) -> None:
        t = perf_counter()
        idx, name, child = self._stack.pop()
        self.ends[idx] = t
        dur = t - self.starts[idx]
        self._depth[name] -= 1
        self.count[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        if self._depth[DIAMETER]:
            self.count[name + "@diameter"] += 1
            self.incl[name + "@diameter"] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _charge(self, t0: float) -> None:
        """Charge probe time since ``t0`` to the enclosing span."""
        if self._stack:
            self._stack[-1][2] += perf_counter() - t0

    def inside(self, name: str) -> bool:
        return self._depth[name] > 0

    def wrap(self, name, fn, before=None, after=None):
        """``before(args, kwargs)`` may return a more specific span name;
        ``after(args, kwargs, out)`` takes counts.  Both run as probes."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = name
            if before is not None:
                t0 = perf_counter()
                span = before(args, kwargs) or name
                tracer._charge(t0)
            tracer._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                t0 = perf_counter()
                after(args, kwargs, out)
                tracer._charge(t0)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # patching ----------------------------------------------------------

    def patch(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every loaded mazenca module,
        including values of module-level dicts (``verify.CHECKS``)."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mazenca" or modname.startswith("mazenca.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, False))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original, True))
                            value[k] = wrapper

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr], False))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            op=np.frombuffer(self.op_ids, dtype=np.int32),
        )


def _changed_cells(before: np.ndarray, after: np.ndarray) -> int:
    return int(np.count_nonzero(np.any(before != after, axis=0)))


def install(tracer: Tracer, mz) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    t = tracer
    tensor, bfs, extract, dfs = mz.tensor, mz.bfs, mz.extract, mz.dfs

    def conv_after(args, kwargs, out):
        x, kernels = args[0], args[1]
        _, H, W = x.shape
        taps = len(kernels.taps())
        pad = (kernels.k - 1) // 2
        padded = x.shape[0] * (H + 2 * pad) * (W + 2 * pad) * x.itemsize
        t.tally["conv2d.tap_cells"] += taps * H * W
        # input, padded copy and output once, then per tap cell one read of
        # the input slice plus one read and one write of the output plane
        t.tally["conv2d.bytes"] += x.nbytes + padded + out.nbytes + 3 * taps * H * W * 8

    t.patch(tensor.conv2d, t.wrap("tensor.conv2d", tensor.conv2d, after=conv_after))
    for act in ACTIVATIONS:
        fn = getattr(tensor, act)
        t.patch(fn, t.wrap("tensor.activation", fn))

    def step_probe(layer):
        def after(args, kwargs, out):
            before = args[0].hidden
            t.tally[layer + ".steps"] += 1
            t.tally[layer + ".changed"] += _changed_cells(before, out.hidden)
            t.tally[layer + ".cells"] += before.shape[1] * before.shape[2]
        return after

    t.patch(bfs.bfs_step, t.wrap("bfs.step", bfs.bfs_step, after=step_probe("bfs")))
    t.patch(extract.extract_step,
            t.wrap("extract.step", extract.extract_step, after=step_probe("extract")))
    t.patch(dfs.dfs_step, t.wrap("dfs.step", dfs.dfs_step, after=step_probe("dfs")))

    def bfs_name(args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "bidirectional")
        return "bfs.run_bfs.single" if mode == "single_source" else "bfs.run_bfs"

    t.patch(bfs.run_bfs, t.wrap("bfs.run_bfs", bfs.run_bfs, before=bfs_name))
    t.patch(extract.run_extract, t.wrap("extract.run_extract", extract.run_extract))
    t.patch(dfs.run_dfs, t.wrap("dfs.run_dfs", dfs.run_dfs))
    t.patch(mz.diameter.diameter_nca, t.wrap(DIAMETER, mz.diameter.diameter_nca))
    t.patch(mz.diameter.schedule_dijkstra_calls,
            t.wrap("diameter.schedule", mz.diameter.schedule_dijkstra_calls))

    def oracle_name(args, kwargs):
        return "oracle.nested" if t.inside("oracle") else "oracle"

    for fname in ORACLE_FUNCS:
        fn = getattr(mz.oracle, fname)
        t.patch(fn, t.wrap("oracle", fn, before=oracle_name))

    t.patch(mz.grid.generate_maze, t.wrap("grid.generate_maze", mz.grid.generate_maze))
    t.patch(mz.grid.one_hot, t.wrap("grid.one_hot", mz.grid.one_hot))

    solver_cls = mz.solvers.BudgetedNcaSolver

    def solve_after(args, kwargs, out):
        if not np.any(out):
            t.tally["solvers.budget_exhausted"] += 1

    t.patch_method(solver_cls, "solve",
                   t.wrap("solvers.solve", solver_cls.__dict__["solve"], after=solve_after))

    evolve = mz.evolve
    state = {"incumbents": set(), "seen": {}}

    def run_evolution_before(args, kwargs):
        state["seen"] = {}
        return None

    def evolve_step_before(args, kwargs):
        dataset = args[0] if args else kwargs["dataset"]
        state["incumbents"] = {id(rec) for rec in dataset}
        return None

    def evolve_step_after(args, kwargs, out):
        t.tally["evolve.replacements"] += out[1].replacements

    def loss_name(args, kwargs):
        record = args[1] if len(args) > 1 else kwargs["record"]
        key = id(record)
        if key in state["seen"]:
            t.tally["evolve.rescored_unchanged"] += 1
        state["seen"][key] = record  # the reference keeps the id unique
        if key in state["incumbents"]:
            return "evolve.score_incumbent"
        return "evolve.score_offspring"

    t.patch(evolve.run_evolution,
            t.wrap("evolve.run_evolution", evolve.run_evolution, before=run_evolution_before))
    t.patch(evolve.evolve_step,
            t.wrap("evolve.evolve_step", evolve.evolve_step,
                   before=evolve_step_before, after=evolve_step_after))
    t.patch(evolve.solver_loss, t.wrap("evolve.solver_loss", evolve.solver_loss, before=loss_name))
    t.patch(evolve.mutate_maze, t.wrap("evolve.mutate_label", evolve.mutate_maze))
    t.patch(evolve.label_maze, t.wrap("evolve.mutate_label", evolve.label_maze))

    check = mz.verify.check_diameter
    t.patch(check, t.wrap("verify.check", check))
