"""Diameter from one flood run over a canvas of maze copies.

A single-source flood from tile u, run to its fixpoint, leaves age
eccentricity(u) + 1 at u itself (the longest shortest path ending at u, in
tiles).  The paper launches one such flood per tile from a DFS and staggers
them on shared channels, with per-launch waiting times, so that they never
collide.  Here a canvas stands in for that schedule: every flood gets its own
copy of the maze, the copies are stacked along the row axis of one tensor in
the flood's integer dtype with a row of walls between neighbours, and each
conv step advances all of them at once.  A wall row never floods and its age
stays 0, so it isolates the copies exactly as zero padding isolates a single
run.  A copy whose flood stopped changing has reached its fixpoint
(``bfs.flood_fixpoint``); its source age and its farthest tile are read and
the copy leaves the canvas, so later steps pay only for live floods.  The
canvas's constant plane is built once; a leaving copy's rows are dropped
from it, which is exact because every static flood tap is a centre tap.
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


@dataclass(frozen=True)
class DiameterRun:
    path_max: np.ndarray  # H x W ages at fixpoint; 0 on walls
    best_endpoint: tuple[int, int]
    farthest: tuple[int, int]
    diameter_len: int  # tiles
    witness: np.ndarray  # bool H x W shortest path(s) between the endpoints


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


def source_ages(maze: Maze, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-source floods from every tile in ``tiles`` (n x 2, empty
    tiles), all on one canvas, each run to its fixpoint.  Returns the age at
    each flood's own source (eccentricity + 1) and each flood's farthest
    tile (n x 2): the flooded tile with the least age, row-major first."""
    H, W = maze.walls.shape
    dtype = flood_dtype(H, W)
    rows, cols = tiles[:, 0], tiles[:, 1]
    n = len(tiles)
    onehot = np.zeros((4, n, H + 1, W), dtype=dtype)
    onehot[:, :, :H] = one_hot(Maze(walls=maze.walls))[:, None]
    onehot[CH_WALL, :, H] = 1
    onehot[CH_SOURCE, np.arange(n), rows, cols] = 1
    onehot[CH_EMPTY, np.arange(n), rows, cols] = 0
    state = BfsState(
        hidden=np.zeros((N_HIDDEN, n * (H + 1), W), dtype=dtype),
        const=flood_plane(onehot.reshape(4, -1, W)),
    )

    ages = np.zeros(n, dtype=np.int64)
    far = np.zeros((n, 2), dtype=np.int64)
    live = np.arange(n)  # canvas copy j floods from tiles[live[j]]
    for _ in range(flood_horizon(H, W)):
        prev, state = state, bfs_step(state)
        m = len(live)
        settled = flood_fixpoint(prev, state, m)
        if settled.any():
            hidden = state.hidden.reshape(N_HIDDEN, m, H + 1, W)
            done, copies = live[settled], np.flatnonzero(settled)
            ages[done] = hidden[AGE, copies, rows[done], cols[done]]
            flood_ages = hidden[AGE, copies, :H].reshape(len(copies), -1)
            flooded = hidden[FLOOD_S, copies, :H].reshape(len(copies), -1) > 0
            flat = np.argmin(np.where(flooded, flood_ages, np.iinfo(dtype).max), axis=1)
            far[done] = np.stack(np.divmod(flat, W), axis=1)
            keep = ~settled
            live = live[keep]
            if not live.size:
                return ages, far
            const = state.const.reshape(N_HIDDEN, m, H + 1, W)[:, keep]
            state = BfsState(
                hidden=hidden[:, keep].reshape(N_HIDDEN, -1, W),
                const=const.reshape(N_HIDDEN, -1, W),
                step=state.step,
            )
    raise MazeError(f"{len(live)} floods did not settle within {flood_horizon(H, W)} steps")


def diameter_nca(maze: Maze) -> DiameterRun:
    H, W = maze.walls.shape
    tiles = np.argwhere(~maze.walls)
    if not len(tiles):
        raise MazeError("maze has no empty tiles")

    path_max = np.zeros((H, W), dtype=np.int64)
    farthest = np.zeros((H, W, 2), dtype=np.int64)
    per_run = max(1, CANVAS_CELLS // ((H + 1) * W))
    for lo in range(0, len(tiles), per_run):
        chunk = tiles[lo : lo + per_run]
        ages, far = source_ages(maze, chunk)
        path_max[chunk[:, 0], chunk[:, 1]] = ages
        farthest[chunk[:, 0], chunk[:, 1]] = far

    flat_best = int(np.argmax(path_max))
    best = (flat_best // W, flat_best % W)
    diameter_len = int(path_max[best])
    far = (int(farthest[best][0]), int(farthest[best][1]))

    if far == best:
        witness = np.zeros((H, W), dtype=bool)
        witness[best] = True
    else:
        witness = run_extract(run_bfs(Maze(walls=maze.walls, source=best, target=far))).mask
    return DiameterRun(
        path_max=path_max,
        best_endpoint=best,
        farthest=far,
        diameter_len=diameter_len,
        witness=witness,
    )
