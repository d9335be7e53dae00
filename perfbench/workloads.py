"""The four benchmark workloads: seeded inputs, one round of operations, and
the correctness check of every operation's output.

A round is the workload's whole input set carried once through its
operation; every round of a run repeats the same operations on the same
inputs, so rounds are interchangeable units of work.  Checks compare outputs
with the classical oracles in ``mazenca.oracle`` or with properties the
method must have, never with stored output.  Expected oracle answers are
computed lazily, outside the timed region, and cached per input.

Operations are looked up on the ``mazenca`` modules at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One timed call into mazenca.  ``mazes`` counts the inputs it carries
    (the ``mazes_per_s`` numerator); ``attempts`` counts the operations it
    stands for in ``attempted``/``failed``.  ``check(out)`` returns None
    when the output is correct, else a message."""

    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    mazes: int
    attempts: int


def largest_component(mz, maze) -> np.ndarray:
    """Bool mask of the largest 4-connected component of empty tiles (ties
    go to the component whose first tile comes first in row-major order)."""
    seen = np.zeros(maze.walls.shape, dtype=bool)
    best = None
    for p in np.argwhere(~maze.walls):
        p = (int(p[0]), int(p[1]))
        if seen[p]:
            continue
        comp = mz.oracle.distance_map(maze, p) >= 0
        seen |= comp
        if best is None or comp.sum() > best.sum():
            best = comp
    return best


def _walls(mz, size: int, p: float, rng) -> Any:
    cfg = mz.grid.GenConfig(width=size, height=size, task="diameter", wall_probability=p)
    return mz.grid.generate_maze(cfg, rng=rng)


class Solve:
    """Flood + extraction on shortest-path mazes at both ends of the size
    range: the paper's 16^2 p=0.5 mazes (about ten steps each, so fixed
    per-step cost dominates) and 64^2 / 128^2 p=0.3 mazes whose source and
    target are the first and last tiles (row-major) of the largest
    component, so every flood crosses the grid (60 to 130 steps) and
    whole-grid arithmetic dominates."""

    def __init__(self, mz, seed: int, smoke: bool):
        self.mz = mz
        n_small, small, large = (8, 8, [16]) if smoke else (256, 16, [64, 64, 64, 64, 128, 128])
        self.mazes = []
        for i in range(n_small):
            cfg = mz.grid.GenConfig(width=small, height=small, wall_probability=0.5)
            self.mazes.append(mz.grid.generate_maze(cfg, rng=np.random.default_rng([seed, 1, i])))
        for i, size in enumerate(large):
            walls = _walls(mz, size, 0.3, np.random.default_rng([seed, 2, i]))
            tiles = np.argwhere(largest_component(mz, walls))
            self.mazes.append(mz.grid.Maze(
                walls=walls.walls,
                source=(int(tiles[0][0]), int(tiles[0][1])),
                target=(int(tiles[-1][0]), int(tiles[-1][1])),
            ))
        self._expected: dict[int, tuple] = {}

    def _solve(self, maze):
        bfs = self.mz.bfs.run_bfs(maze)
        return bfs, self.mz.extract.run_extract(bfs)

    def _check(self, i: int, out) -> str | None:
        if i not in self._expected:
            self._expected[i] = self.mz.oracle.shortest_path_union(self.mazes[i])
        d, union = self._expected[i]
        bfs, ext = out
        if not bfs.met or bfs.meet_step != math.ceil(d / 2) + 1:
            return f"maze {i}: meet_step {bfs.meet_step} != ceil({d}/2)+1"
        if not np.array_equal(ext.mask, union):
            return f"maze {i}: extracted mask != shortest-path union"
        return None

    def warm_up(self) -> None:
        self._solve(self.mazes[0])

    def round(self) -> list[Op]:
        return [
            Op(run=lambda m=m: self._solve(m), check=lambda out, i=i: self._check(i, out),
               mazes=1, attempts=1)
            for i, m in enumerate(self.mazes)
        ]


class Dfs:
    """Priority DFS on p=0.3 mazes from 16^2 to 64^2, each run from the
    row-major-first tile of the largest component (the first empty tile is
    often isolated, and a run from it takes 2 steps).  Hundreds to thousands
    of sequential whole-grid steps per maze."""

    def __init__(self, mz, seed: int, smoke: bool):
        self.mz = mz
        sizes = [8, 12] if smoke else [16, 24, 32, 48, 64]
        self.mazes, self.starts, self.components = [], [], []
        for i, size in enumerate(sizes):
            maze = _walls(mz, size, 0.3, np.random.default_rng([seed, 3, i]))
            comp = largest_component(mz, maze)
            first = np.argwhere(comp)[0]
            self.mazes.append(maze)
            self.starts.append((int(first[0]), int(first[1])))
            self.components.append({(int(p[0]), int(p[1])) for p in np.argwhere(comp)})
        self._expected: dict[int, list] = {}

    def _check(self, i: int, trace) -> str | None:
        if i not in self._expected:
            self._expected[i] = self.mz.oracle.dfs_order(self.mazes[i], self.starts[i])
        order = trace.visit_order
        if order != self._expected[i]:
            return f"maze {i}: visit order differs from dfs_order"
        comp = self.components[i]
        if len(order) != len(comp) or set(order) != comp:
            return f"maze {i}: visit order is not a permutation of the start's component"
        return None

    def warm_up(self) -> None:
        self.mz.dfs.run_dfs(self.mazes[0], self.starts[0])

    def round(self) -> list[Op]:
        return [
            Op(run=lambda m=m, s=s: self.mz.dfs.run_dfs(m, s),
               check=lambda out, i=i: self._check(i, out), mazes=1, attempts=1)
            for i, (m, s) in enumerate(zip(self.mazes, self.starts))
        ]


class Diameter:
    """Criterion 4 as ``mazenca verify --task diameter`` runs it: seeded 16^2
    mazes checked against ``diameter_oracle`` across a process pool of
    ``nproc`` workers.  verify_task hands each worker chunks of 8 mazes, so
    the block is 32 mazes (4 chunks on 2 cores)."""

    def __init__(self, mz, seed: int, smoke: bool):
        self.mz = mz
        self.seed = seed
        self.n, self.size = (2, 6) if smoke else (32, 16)
        self.workers = os.cpu_count() or 1

    def warm_up(self) -> None:
        self.mz.verify.verify_task("diameter", 1, self.seed, size=self.size, workers=1)

    def _check(self, out) -> str | None:
        passed, failures = out
        if passed != self.n or failures:
            return f"{self.n - passed} of {self.n} mazes not exact: {failures[:2]}"
        return None

    def _run(self):
        return self.mz.verify.verify_task(
            "diameter", self.n, self.seed, size=self.size, workers=self.workers)

    def round(self) -> list[Op]:
        return [Op(run=self._run, check=self._check, mazes=self.n, attempts=self.n)]


def check_shortest_path_record(mz, rec) -> str | None:
    """The record's solution is one shortest S->T path: d + 1 tiles, one per
    BFS layer of the source, consecutive layers adjacent, and d_tiles equal
    to its size."""
    maze, mask = rec.maze, rec.solution
    ds = mz.oracle.distance_map(maze, maze.source)
    d = int(ds[maze.target])
    if d < 0:
        return f"{rec.id}: target unreachable"
    tiles = sorted((int(ds[y, x]), y, x) for y, x in np.argwhere(mask))
    if rec.meta.get("d_tiles") != len(tiles) or len(tiles) != d + 1:
        return f"{rec.id}: d_tiles {rec.meta.get('d_tiles')}, mask {len(tiles)}, distance {d}"
    if [t[0] for t in tiles] != list(range(d + 1)):
        return f"{rec.id}: solution is not one tile per BFS layer"
    for (_, y0, x0), (_, y1, x1) in zip(tiles, tiles[1:]):
        if abs(y0 - y1) + abs(x0 - x1) != 1:
            return f"{rec.id}: solution is not a connected path"
    if (tiles[-1][1], tiles[-1][2]) != maze.target:
        return f"{rec.id}: solution does not end at the target"
    return None


class Evolve:
    """Adversarial evolution in the criterion-6 set-up: 512 labelled 16^2
    p=0.5 records, ``BudgetedNcaSolver(16)``, threshold 1.0 (so every
    generation mutates), batch 128, 13 flips, a fixed number of generations.
    Each round replays the same generations from the same records."""

    def __init__(self, mz, seed: int, smoke: bool):
        self.mz = mz
        n, size, self.batch, self.flips, self.generations = (
            (16, 8, 4, 4, 1) if smoke else (512, 16, 128, 13, 3))
        self.seed = seed
        self.records = []
        for i in range(n):
            cfg = mz.grid.GenConfig(width=size, height=size, wall_probability=0.5)
            maze = mz.grid.generate_maze(cfg, rng=np.random.default_rng([seed, 4, i]))
            mask, length = mz.evolve.label_maze(maze, "shortest_path")
            self.records.append(mz.dataset.DatasetRecord(
                id=f"sp-{i}", task="shortest_path", maze=maze, solution=mask,
                meta={"d_tiles": length}))
        self.solver = mz.solvers.BudgetedNcaSolver(16)
        self._checked: dict[int, Any] = {}  # id -> record, kept alive

    def _config(self, generations: int, batch: int):
        return self.mz.evolve.EvolutionConfig(
            generations=generations, loss_threshold=1.0, batch_size=batch,
            n_flips=self.flips, seed=self.seed)

    def warm_up(self) -> None:
        self.mz.evolve.run_evolution(self.records[:16], self.solver, self._config(1, 4))

    def _run(self):
        return self.mz.evolve.run_evolution(
            self.records, self.solver, self._config(self.generations, self.batch))

    def _check(self, out) -> str | None:
        dataset, stats = out
        if len(dataset) != len(self.records):
            return f"record count {len(dataset)} != {len(self.records)}"
        if len(stats) != self.generations or not all(s.mutated for s in stats):
            return "a generation did not mutate"
        losses = [s.mean_loss for s in stats]
        if any(b < a for a, b in zip(losses, losses[1:])):
            return f"mean solver loss fell between generations: {losses}"
        for rec in dataset:
            if id(rec) in self._checked:
                continue
            msg = check_shortest_path_record(self.mz, rec)
            if msg:
                return msg
            self._checked[id(rec)] = rec
        return None

    def round(self) -> list[Op]:
        n = len(self.records) * self.generations
        return [Op(run=self._run, check=self._check, mazes=n, attempts=self.generations)]


WORKLOADS = {"solve": Solve, "dfs": Dfs, "diameter": Diameter, "evolve": Evolve}
