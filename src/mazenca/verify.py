"""Automaton-vs-oracle equivalence checks, one chunk of seeded mazes at a
time.

Each check takes a chunk of ``(seed, index, size)`` arguments, regenerates
maze ``index`` from ``default_rng([seed, index])``, runs the relevant
automaton, and compares every observable against the classical reference
implementation; per-step invariants are checked by an observer on the
automaton's own run.  The diameter check runs its whole chunk as one batch
(``diameter.diameter_batch``).  A check returns one entry per maze: None on
success or a human-readable failure message.  Checks are plain module-level
functions so ``verify_task`` can fan chunks out across processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bfs import FLOOD_S, FLOOD_T, run_bfs
from .dfs import PEBBLE, ROUTE, run_dfs
from .diameter import DiameterRun, diameter_batch
from .extract import run_extract
from .grid import GenConfig, Maze, MazeError, generate_maze
from .oracle import (
    dfs_order,
    diameter_oracle,
    distance_map,
    shortest_path_union,
)


# mazes per check call; a pool worker takes one chunk at a time
CHUNK = 8


class Mismatch(Exception):
    """Raised by an observer at the first step that breaks an invariant."""


def seeded_maze(task: str, height: int, width: int, seed: int, index: int) -> Maze:
    cfg = GenConfig(width=width, height=height, task=task)
    return generate_maze(cfg, rng=np.random.default_rng([seed, index]))


def check_shortest_path(chunk: list[tuple[int, int, int]]) -> list[str | None]:
    """Flood-ball equality at every step, the meet-step formula, and exact
    agreement of the extracted mask with the union of all shortest paths."""
    return [_check_shortest_path(*args) for args in chunk]


def _check_shortest_path(seed: int, index: int, size: int) -> str | None:
    maze = seeded_maze("shortest_path", size, size, seed, index)
    ds = distance_map(maze, maze.source)
    dt = distance_map(maze, maze.target)
    d, union = shortest_path_union(maze)

    def balls(state):
        t = state.step
        for name, ch, dist in (("flood_s", FLOOD_S, ds), ("flood_t", FLOOD_T, dt)):
            ball = (dist >= 0) & (dist <= t - 1)
            if not np.array_equal(state.hidden[ch] > 0.0, ball):
                raise Mismatch(f"{name} support != BFS ball at step {t}")

    try:
        bfs = run_bfs(maze, observe=balls)
    except Mismatch as exc:
        return f"maze {index}: {exc}"
    if not bfs.met:
        return f"maze {index}: floods never met"
    if bfs.meet_step != math.ceil(d / 2) + 1:
        return f"maze {index}: meet_step {bfs.meet_step} != ceil({d}/2)+1"
    mask = run_extract(bfs).mask
    if not np.array_equal(mask, union):
        return f"maze {index}: extracted mask != shortest-path union"
    return None


def check_dfs(chunk: list[tuple[int, int, int]]) -> list[str | None]:
    """Visit-order equality with the classical priority DFS, plus the
    single-pebble and route-monotonicity invariants at every step."""
    return [_check_dfs(*args) for args in chunk]


def _check_dfs(seed: int, index: int, max_size: int) -> str | None:
    smallest = min(4, max_size)
    size = smallest + index % (max_size - smallest + 1)  # cycle min(4, N) .. N
    maze = seeded_maze("diameter", size, size, seed, index)
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    expected = dfs_order(maze, start)

    prev_route = np.zeros(maze.walls.shape)

    def invariants(state):
        nonlocal prev_route
        hidden = state.hidden  # a fresh copy on each read
        n_pebbles = int(np.count_nonzero(hidden[PEBBLE] > 0.0))
        if n_pebbles > 1:
            raise Mismatch(f"{n_pebbles} pebbles at step {state.step}")
        route = hidden[ROUTE]
        if np.any((prev_route > 0.0) & (route <= 0.0)):
            raise Mismatch(f"route lost a tile at step {state.step}")
        prev_route = route

    try:
        visits = run_dfs(maze, start, observe=invariants).visit_order
    except (Mismatch, MazeError) as exc:
        return f"maze {index}: {exc}"
    if visits != expected:
        return f"maze {index}: visit order differs from oracle ({visits[:6]}...)"
    return None


def check_diameter(chunk: list[tuple[int, int, int]]) -> list[str | None]:
    """Diameter length match plus witness validity: the witness must be the
    full shortest-path union between the automaton's own endpoint pair, and
    that pair must realize the oracle diameter.  The chunk's mazes share one
    size, so their diameters run as one batch."""
    mazes = [seeded_maze("diameter", size, size, seed, index) for seed, index, size in chunk]
    runs = diameter_batch(mazes)
    return [_check_diameter(index, maze, run)
            for (_, index, _), maze, run in zip(chunk, mazes, runs)]


def _check_diameter(index: int, maze: Maze, run: DiameterRun) -> str | None:
    length, _ = diameter_oracle(maze)
    if run.diameter_len != length:
        return f"maze {index}: diameter {run.diameter_len} != oracle {length}"
    if run.best_endpoint == run.farthest:
        ok = length == 1 and run.witness.sum() == 1 and run.witness[run.best_endpoint]
        return None if ok else f"maze {index}: bad singleton witness"
    pair = Maze(walls=maze.walls, source=run.best_endpoint, target=run.farthest)
    d_pair, union = shortest_path_union(pair)
    if d_pair + 1 != length:
        return f"maze {index}: witness endpoints span {d_pair + 1} != {length}"
    if not np.array_equal(run.witness, union):
        return f"maze {index}: witness != shortest-path union of its endpoints"
    return None


CHECKS = {
    "shortest_path": check_shortest_path,
    "dfs": check_dfs,
    "diameter": check_diameter,
}


def default_workers() -> int:
    """Worker processes: ``NCA_THREADS`` if set, else one per CPU."""
    env = os.environ.get("NCA_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise MazeError(f"NCA_THREADS must be an integer, got {env!r}") from None


def verify_task(
    task: str,
    n: int,
    seed: int,
    size: int = 16,
    workers: int | None = None,
) -> tuple[int, list[str]]:
    """Run ``n`` seeded checks in chunks of ``CHUNK`` mazes; returns (pass
    count, failure messages)."""
    check = CHECKS[task]
    chunks = [[(seed, i, size) for i in range(lo, min(lo + CHUNK, n))]
              for lo in range(0, n, CHUNK)]
    if workers is None:
        workers = default_workers()
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check, chunks))
    else:
        results = [check(chunk) for chunk in chunks]
    failures = [msg for messages in results for msg in messages if msg is not None]
    return n - len(failures), failures
