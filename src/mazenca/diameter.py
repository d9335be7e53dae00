"""Diameter from bounded single-source floods over a canvas of maze copies.

A single-source flood from tile u, run to its fixpoint, leaves age
eccentricity(u) + 1 at u itself (the longest shortest path ending at u, in
tiles).  The paper launches one such flood per tile from a DFS and staggers
them on shared channels, with per-launch waiting times, so that they never
collide.  Here a canvas stands in for that schedule: every flood gets its own
copy of the maze, the copies are stacked along the row axis of one tensor in
the flood's integer dtype with a row of walls between neighbours, and each
conv step advances all of them at once.  A wall row never floods and its age
stays 0, so it isolates the copies exactly as zero padding isolates a single
run.  The canvas keeps a single flood's one-cell border, so each copy's rows
and its gutter row are contiguous and the copies are a reshape of it.  A
copy whose flood stopped changing has reached its fixpoint
(``bfs.flood_fixpoint``); its source age and its farthest tile are read and
the copy leaves the canvas, a take along the copy axis, so later steps pay
only for live floods.  The canvas's constant plane is built once; a leaving
copy's rows are dropped from it, which is exact because every static flood
tap is a centre tap.

Only the tiles that could still hold the diameter flood, as in Takes and
Kosters' BoundingDiameters (CIKM 2011).  A settled flood from u gives the
distance d(u, v) = AGE(u) - AGE(v) to every tile v it reached, and so the
upper bound ecc(v) <= ecc(u) + d(u, v).  The first round floods every
corner tile, an empty tile with a wall or the border above it and to its
left; the row-major first tile of each component is one, so every tile has
a bound after it.  Each later round floods the unflooded tiles whose bound
beats the best eccentricity found, or ties it from an earlier tile in
row-major order, until none is left.  The endpoints and the witness are
those of the exhaustive canvas: the first row-major tile of greatest
eccentricity is always flooded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bfs import (
    AGE,
    FLOOD_S,
    N_HIDDEN,
    BfsState,
    bfs_step,
    flood_dtype,
    flood_fixpoint,
    flood_horizon,
    flood_plane,
    run_bfs,
)
from .dfs import DfsTrace
from .extract import run_extract
from .grid import CH_EMPTY, CH_SOURCE, CH_WALL, Maze, MazeError, one_hot

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


def _keep(frame: np.ndarray, m: int, keep: np.ndarray) -> np.ndarray:
    """The canvas frame with only the copies ``keep`` of its ``m``."""
    C, _, Wp = frame.shape
    kept = frame[:, 1:-1].reshape(C, m, -1, Wp).take(keep, axis=1).reshape(C, -1, Wp)
    return np.concatenate((frame[:, :1], kept, frame[:, -1:]), axis=1)


def source_ages(maze: Maze, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-source floods from every tile in ``tiles`` (n x 2, empty
    tiles), all on one canvas, each run to its fixpoint.  Returns the age at
    each flood's own source (eccentricity + 1), each flood's farthest tile
    (n x 2): the flooded tile with the least age, row-major first, and an
    H x W upper bound on every tile's eccentricity + 1.

    A settled flood from u has AGE(v) = AGE(u) - d(u, v) on every tile v it
    reached, so ecc(v) + 1 <= ecc(u) + d(u, v) + 1 = 2 AGE(u) - AGE(v).  The
    bound is the least of these over the floods, NO_BOUND on tiles that none
    reached."""
    H, W = maze.walls.shape
    dtype = flood_dtype(H, W)
    rows, cols = tiles[:, 0], tiles[:, 1]
    n = len(tiles)
    onehot = np.zeros((4, n, H + 1, W), dtype=dtype)
    onehot[:, :, :H] = one_hot(Maze(walls=maze.walls))[:, None]
    onehot[CH_WALL, :, H] = 1
    onehot[CH_SOURCE, np.arange(n), rows, cols] = 1
    onehot[CH_EMPTY, np.arange(n), rows, cols] = 0
    const = flood_plane(onehot.reshape(4, -1, W))
    state = BfsState(frame=np.zeros_like(const), const=const)

    ages = np.zeros(n, dtype=np.int64)
    far = np.zeros((n, 2), dtype=np.int64)
    upper = np.full(H * W, NO_BOUND, dtype=np.int64)
    live = np.arange(n)  # canvas copy j floods from tiles[live[j]]
    for _ in range(flood_horizon(H, W)):
        prev, state = state, bfs_step(state)
        m = len(live)
        settled = flood_fixpoint(prev, state, m)
        if settled.any():
            hidden = state.frame[:, 1:-1].reshape(N_HIDDEN, m, H + 1, W + 2)
            done, copies = live[settled], np.flatnonzero(settled)
            ages[done] = hidden[AGE, copies, rows[done], cols[done] + 1]
            flood_ages = hidden[AGE, copies, :H, 1:-1].reshape(len(copies), -1)
            flooded = hidden[FLOOD_S, copies, :H, 1:-1].reshape(len(copies), -1) > 0
            flat = np.argmin(np.where(flooded, flood_ages, np.iinfo(dtype).max), axis=1)
            far[done] = np.stack(np.divmod(flat, W), axis=1)
            bound = np.where(flooded, 2 * ages[done, None] - flood_ages, NO_BOUND)
            np.minimum(upper, bound.min(axis=0), out=upper)
            keep = np.flatnonzero(~settled)
            live = live[keep]
            if not live.size:
                return ages, far, upper.reshape(H, W)
            state = BfsState(frame=_keep(state.frame, m, keep),
                             const=_keep(state.const, m, keep), step=state.step)
    raise MazeError(f"{len(live)} floods did not settle within {flood_horizon(H, W)} steps")


def diameter_nca(maze: Maze) -> DiameterRun:
    H, W = maze.walls.shape
    empty = ~maze.walls
    if not empty.any():
        raise MazeError("maze has no empty tiles")

    # first round: every empty tile with a wall or the border above it and to
    # its left; the row-major first tile of each component is one of them
    framed = np.pad(maze.walls, ((1, 0), (1, 0)), constant_values=True)
    todo = empty & framed[:-1, 1:] & framed[1:, :-1]

    ages = np.zeros((H, W), dtype=np.int64)  # eccentricity + 1 where flooded
    farthest = np.zeros((H, W, 2), dtype=np.int64)
    upper = np.full((H, W), NO_BOUND, dtype=np.int64)  # bound on ages
    row_major = np.arange(H * W).reshape(H, W)
    per_run = max(1, CANVAS_CELLS // ((H + 1) * W))
    floods = 0
    while todo.any():
        tiles = np.argwhere(todo)
        for lo in range(0, len(tiles), per_run):
            chunk = tiles[lo : lo + per_run]
            chunk_ages, far, bound = source_ages(maze, chunk)
            ages[chunk[:, 0], chunk[:, 1]] = chunk_ages
            farthest[chunk[:, 0], chunk[:, 1]] = far
            np.minimum(upper, bound, out=upper)
        floods += len(tiles)
        # the best flooded tile is the first row-major tile of greatest age;
        # an unflooded tile can still displace it only if its bound beats
        # that age, or ties it from an earlier tile
        flat_best = int(np.argmax(ages))
        best_age = ages.flat[flat_best]
        todo = empty & (ages == 0) & (
            (upper > best_age) | ((upper == best_age) & (row_major < flat_best))
        )

    best = (flat_best // W, flat_best % W)
    diameter_len = int(ages[best])
    far = (int(farthest[best][0]), int(farthest[best][1]))

    if far == best:
        witness = np.zeros((H, W), dtype=bool)
        witness[best] = True
    else:
        witness = run_extract(run_bfs(Maze(walls=maze.walls, source=best, target=far))).mask
    return DiameterRun(
        best_endpoint=best,
        farthest=far,
        diameter_len=diameter_len,
        witness=witness,
        floods=floods,
    )
