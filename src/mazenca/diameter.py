"""Diameter from bounded single-source floods over a canvas of maze copies.

A single-source flood from tile u, run to its fixpoint, leaves age
eccentricity(u) + 1 at u itself (the longest shortest path ending at u, in
tiles).  The paper launches one such flood per tile from a DFS and staggers
them on shared channels, with per-launch waiting times, so that they never
collide.  Here a canvas (``loop.run_canvas``) stands in for that schedule:
every flood gets its own copy of its maze, in the flood's integer dtype,
with a wall row between neighbouring copies, and each conv step advances
all of them at once.  A copy holds only the FLOOD_S and AGE planes: with no
target, the paper's FLOOD_T stays 0 (``bfs.flood_stacks``).  A canvas holds
floods from several mazes of one shape, each copy tagged with its maze.  A
wall row never floods and its age stays 0, so it isolates the copies
exactly as zero padding isolates a single run.  A copy whose flood stopped
changing has reached its fixpoint (``bfs.flood_fixpoint``); its ages are
copied out at that step, and it rides along until the runner drops it.
After the canvas run, the source ages, the farthest tiles and the bounds of
all its floods are read from those copies at once, and each maze's bounds
are folded once.  The constant plane comes from ``bfs.flood_canvas``, and
a leaving copy's rows are dropped from it.

Only the tiles that could still hold the diameter flood, as in Takes and
Kosters' BoundingDiameters (CIKM 2011).  A settled flood from u gives the
distance d(u, v) = AGE(u) - AGE(v) to every tile v it reached, and so the
upper bound ecc(v) <= ecc(u) + d(u, v).  The first round floods every
corner tile, an empty tile with a wall or the border above it and to its
left; the row-major first tile of each component is one, so every tile has
a bound after it.  Each later round floods the unflooded tiles whose bound
beats the best eccentricity found, or ties it from an earlier tile in
row-major order, until none is left.  ``diameter_batch`` runs these rounds
for a batch of mazes in lockstep: each round floods every maze's remaining
tiles on the same canvases, and a maze drops out once nothing is left for it
to flood; its rounds, floods and answer are those of a batch of one.  The
endpoints and the witness are those of the exhaustive canvas: the first
row-major tile of greatest eccentricity is always flooded.  The witnesses of
a batch are one flood batch (``bfs.bfs_batch``) between each maze's
endpoints and one extraction batch (``extract.extract_batch``) of those
floods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bfs import (
    SOURCE_PLANES,
    BfsState,
    bfs_batch,
    bfs_step,
    flood_canvas,
    flood_fixpoint,
    flood_horizon,
)
from .dfs import DfsTrace
from .extract import extract_batch
from .grid import CH_SOURCE, Maze, MazeError
from .loop import run_canvas

# canvas rows x columns per flood run; larger mazes split their tiles over
# several runs so memory stays near 100 MB
CANVAS_CELLS = 1 << 20
# upper bound of a tile no flood has reached yet
NO_BOUND = np.iinfo(np.int64).max


@dataclass(frozen=True)
class DiameterRun:
    best_endpoint: tuple[int, int]
    farthest: tuple[int, int]
    diameter_len: int  # tiles
    witness: np.ndarray  # bool H x W shortest path(s) between the endpoints
    floods: int  # single-source floods run


def schedule_dijkstra_calls(trace: DfsTrace) -> list[tuple[int, tuple[int, int], int]]:
    """Launch schedule for the paper's staggered floods: the first visited
    tile launches immediately; each later one waits for the visit-step gap to
    its predecessor (1 for an adjacent move, the backtrack span after a pop).
    Entries are (launch_step, tile, wait)."""
    if not trace.visit_order:
        raise MazeError("empty DFS trace")
    schedule = []
    launch = 0
    prev_step = None
    for tile, visit_step in zip(trace.visit_order, trace.visit_steps):
        wait = 0 if prev_step is None else visit_step - prev_step
        launch += wait
        schedule.append((launch, tile, wait))
        prev_step = visit_step
    return schedule


def source_ages(
    mazes: Sequence[Maze], tiles: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-source floods from every tile in ``tiles`` (n x 3: the index
    of its maze in ``mazes``, row, column; empty tiles of same-shape mazes,
    maze by maze), all on one canvas (``loop.run_canvas``), each run to its
    fixpoint.  Returns the age at each flood's own source (eccentricity + 1),
    each flood's farthest tile (n x 2): the flooded tile with the least age,
    row-major first, and a k x H x W upper bound on every tile's
    eccentricity + 1 in each of the k mazes.

    A settled flood from u has AGE(v) = AGE(u) - d(u, v) on every tile v it
    reached, so ecc(v) + 1 <= ecc(u) + d(u, v) + 1 = 2 AGE(u) - AGE(v).  The
    bound is the least of these over the maze's floods, NO_BOUND on tiles
    that none reached."""
    H, W = mazes[0].walls.shape
    n, which = len(tiles), tiles[:, 0]
    walls = np.array([maze.walls for maze in mazes])[which]
    canvas = flood_canvas(walls, ((CH_SOURCE, tiles[:, 1:]),), SOURCE_PLANES)
    settled = np.empty((n, H, W), canvas.frame.dtype)  # each flood's ages at its fixpoint

    def read(state: BfsState, m: int, at: np.ndarray, done: np.ndarray) -> None:
        # the age is the last plane, and each copy's rows end with its gutter
        settled[done] = state.frame[-1, 1:].reshape(m, H + 1, W + 2)[at, :H, 1:-1]

    left = run_canvas(bfs_step, canvas, n, flood_fixpoint, read, flood_horizon(H, W))
    if len(left):
        raise MazeError(f"{len(left)} floods did not settle within {flood_horizon(H, W)} steps")

    # a tile's age counts the steps since its flood reached it, and a
    # fixpoint comes a step after the last tile flooded, so the flooded
    # tiles are those of positive age
    flood_ages = settled.reshape(n, -1)
    flooded = flood_ages > 0
    ages = flood_ages[np.arange(n), tiles[:, 1] * W + tiles[:, 2]].astype(np.int64)
    far = np.argmin(np.where(flooded, flood_ages, np.iinfo(settled.dtype).max), axis=1)
    bound = 2 * ages[:, None] - flood_ages
    bound[~flooded] = NO_BOUND
    upper = np.full((len(mazes), H * W), NO_BOUND, dtype=np.int64)
    firsts = np.flatnonzero(np.diff(which, prepend=-1))  # each maze's first flood
    upper[which[firsts]] = np.minimum.reduceat(bound, firsts, axis=0)
    return ages, np.stack(np.divmod(far, W), axis=1), upper.reshape(-1, H, W)


def diameter_batch(mazes: Sequence[Maze]) -> list[DiameterRun]:
    """``diameter_nca`` of every maze in ``mazes`` (one shape), with the
    bounding rounds run in lockstep: each round floods every maze's
    remaining tiles on shared canvases."""
    if not mazes:
        return []
    H, W = mazes[0].walls.shape
    if any(maze.walls.shape != (H, W) for maze in mazes):
        raise MazeError("a diameter batch needs mazes of one shape")
    k = len(mazes)
    walls = np.stack([maze.walls for maze in mazes])
    empty = ~walls
    if not empty.reshape(k, -1).any(axis=1).all():
        raise MazeError("maze has no empty tiles")

    # first round: every empty tile with a wall or the border above it and to
    # its left; the row-major first tile of each component is one of them
    framed = np.pad(walls, ((0, 0), (1, 0), (1, 0)), constant_values=True)
    todo = empty & framed[:, :-1, 1:] & framed[:, 1:, :-1]

    ages = np.zeros((k, H, W), dtype=np.int64)  # eccentricity + 1 where flooded
    farthest = np.zeros((k, H, W, 2), dtype=np.int64)
    upper = np.full((k, H, W), NO_BOUND, dtype=np.int64)  # bound on ages
    row_major = np.arange(H * W).reshape(H, W)
    per_run = max(1, CANVAS_CELLS // ((H + 1) * W))
    floods = np.zeros(k, dtype=np.int64)
    while todo.any():
        tiles = np.argwhere(todo)  # (maze, row, column), maze by maze
        for lo in range(0, len(tiles), per_run):
            chunk = tiles[lo : lo + per_run]
            chunk_ages, far, bound = source_ages(mazes, chunk)
            ages[tuple(chunk.T)] = chunk_ages
            farthest[tuple(chunk.T)] = far
            np.minimum(upper, bound, out=upper)
        floods += np.count_nonzero(todo.reshape(k, -1), axis=1)
        # the best flooded tile is the first row-major tile of greatest age;
        # an unflooded tile can still displace it only if its bound beats
        # that age, or ties it from an earlier tile.  A maze with nothing
        # left to flood keeps its ages and bounds, so it stays out.
        flat_best = ages.reshape(k, -1).argmax(axis=1)[:, None, None]
        best_age = ages.max(axis=(1, 2), keepdims=True)
        todo = empty & (ages == 0) & (
            (upper > best_age) | ((upper == best_age) & (row_major < flat_best))
        )

    bests = [divmod(flat, W) for flat in flat_best.ravel().tolist()]
    fars = [(int(maze_far[best][0]), int(maze_far[best][1]))
            for maze_far, best in zip(farthest, bests)]
    # a singleton component's witness is its tile; every other witness is
    # the shortest paths between the endpoints, extracted from a flood
    # between them: all mazes' floods on one canvas, their extractions on
    # another
    pairs = [i for i in range(k) if bests[i] != fars[i]]
    witnesses = [np.zeros((H, W), dtype=bool) for _ in range(k)]
    for i, best in enumerate(bests):
        witnesses[i][best] = True
    met = bfs_batch([Maze(walls=mazes[i].walls, source=bests[i], target=fars[i])
                     for i in pairs])
    for i, path in zip(pairs, extract_batch(met)):
        witnesses[i] = path.mask
    return [
        DiameterRun(best_endpoint=best, farthest=far, diameter_len=int(maze_ages[best]),
                    witness=witness, floods=n_floods)
        for best, far, maze_ages, witness, n_floods in zip(
            bests, fars, ages, witnesses, floods.tolist())
    ]


def diameter_nca(maze: Maze) -> DiameterRun:
    return diameter_batch([maze])[0]
