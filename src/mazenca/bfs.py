"""Hand-coded bidirectional flood / Dijkstra-map cellular automaton.

Two binary flood channels grow outward from source and target one ring per
step; the age channel counts, per tile, the steps since each flood arrived.
A run freezes at the first step where the floods overlap, or when the source
flood stops growing without an overlap, which proves the target
unreachable.  ``bfs_batch`` floods a batch of same-shape mazes as copies of
one canvas (``loop.run_canvas``), each copy halted and read out at its own
halting step: its floods keep growing after they meet, so it cannot wait.
``run_bfs`` is a batch of one.  The diameter's single-source floods hold
two planes, FLOOD_S and AGE: with no target in the one-hot, the target
flood's pre-activation is never positive, so that plane would stay 0 and
add 0 to the age.  ``bfs_step`` steps either flood, with the paper's stack
sliced to the planes its state holds (``flood_stacks``), and a
single-source copy halts at its fixpoint.
The state is an integer tensor in ``flood_dtype``; the maze one-hot enters
it once, as the constant plane its kernels add to every step.  Every static
tap is a centre tap, so ``flood_canvas`` gives each cell the static taps of
its own one-hot channel, and a copy's slice of the plane is its single
run's.  The state keeps the conv's one-cell border (``tensor.conv2d``); the
border and a canvas's gutter rows take a wall's taps, so their flood
pre-activations are at most -6 + 4 and their ages add only their own
floods: they stay zero, as zero padding would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .loop import copy_frame, run_canvas, unchanged
from .grid import CH_EMPTY, CH_SOURCE, CH_TARGET, CH_WALL, Maze, MazeError
from .tensor import KernelStack, conv2d, int_dtype, interior, step, w_cells

# hidden channel registry; a single-source flood holds FLOOD_S and AGE only,
# its age last, as in every flood
FLOOD_S, FLOOD_T, AGE = 0, 1, 2
N_HIDDEN = 3
SOURCE_PLANES = 2
# conv input order: hidden channels then the maze one-hot, which every run
# folds into its constant plane (``flood_canvas``)
IN_FLOOD_S, IN_FLOOD_T, IN_AGE, IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET = range(7)


@dataclass(frozen=True)
class BfsState:
    frame: np.ndarray  # P x (H + 2) x (W + 2), the planes in a zero border
    const: np.ndarray  # P x (H + 2) x (W + 2), the maze one-hot's share of every step
    step: int = 0

    hidden = property(interior)  # P x H x W: N_HIDDEN planes, or SOURCE_PLANES


@dataclass(frozen=True)
class BfsResult:
    met: bool
    meet_step: Optional[int]
    final: BfsState
    maze: Maze


def build_bfs_weights() -> KernelStack:
    w1 = w_cells(3, [(1, 1)])  # the centre
    wt = w_cells(3, [(0, 1), (1, 0), (1, 2), (2, 1)])  # the four neighbours, and no self-tap
    w = np.zeros((N_HIDDEN, 7, 3, 3), np.int64)
    w[FLOOD_S, IN_SOURCE] = w1
    w[FLOOD_S, IN_FLOOD_S] = wt
    w[FLOOD_S, IN_WALL] = -6 * w1
    w[FLOOD_T, IN_TARGET] = w1
    w[FLOOD_T, IN_FLOOD_T] = wt
    w[FLOOD_T, IN_WALL] = -6 * w1
    w[AGE, IN_FLOOD_S] = w1
    w[AGE, IN_FLOOD_T] = w1
    w[AGE, IN_AGE] = w1
    return KernelStack(weights=w, bias=np.zeros(N_HIDDEN, np.int64))


@functools.cache
def flood_stacks(planes: int) -> tuple[KernelStack, KernelStack]:
    """(dynamic, static) stacks of a flood of ``planes`` planes: the paper's
    stack for N_HIDDEN, or its FLOOD_S and AGE rows and hidden columns for
    SOURCE_PLANES.  The static stack takes the maze one-hot's four channels
    in both."""
    ks = build_bfs_weights()
    if planes == SOURCE_PLANES:
        inputs = [IN_FLOOD_S, IN_AGE, IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET]
        ks = KernelStack(weights=ks.weights[[FLOOD_S, AGE]][:, inputs],
                         bias=ks.bias[[FLOOD_S, AGE]])
    return ks.split(planes)


def flood_dtype(height: int, width: int) -> np.dtype:
    """Integer dtype of a flood over an H x W maze."""
    # every flood halts by step flood_horizon = H*W + 1, and an age grows by
    # at most 1 per step (floods overlap only at the halting step), so ages
    # stay within it up to the halting step, where a copy is read; a halted
    # canvas copy rides along until it is dropped, and its ages may wrap,
    # which touches no other copy, since only centre taps read the age.
    # Flood pre-activations lie in [-6, 5].
    return int_dtype(max(flood_horizon(height, width), 6))


@functools.cache
def _centre_taps(planes: int, dtype: np.dtype) -> np.ndarray:
    """planes x 4, in ``dtype``: column c is the constant plane of a flood
    of ``planes`` planes at a cell of one-hot channel c, the static stack's
    centre taps from c plus its bias."""
    static = flood_stacks(planes)[1]
    return (static.weights[:, :, 1, 1] + static.bias[:, None]).astype(dtype)


def flood_canvas(walls: np.ndarray, ends: Sequence[tuple[int, np.ndarray]],
                 planes: int) -> BfsState:
    """Canvas of floods of ``planes`` planes, one copy per maze of ``walls``
    (n x H x W bool), with a wall row between neighbouring copies.  ``ends``
    pairs a one-hot channel with the n x 2 tiles, one per copy, that it
    marks.  The frame starts at zero."""
    n, H, W = walls.shape
    dtype = flood_dtype(H, W)
    taps = _centre_taps(planes, dtype)
    # 1 on a wall, the border and the gutters included
    framed = np.ones((n * (H + 1) + 1, W + 2), dtype)
    framed[1:].reshape(n, H + 1, W + 2)[:, :H, 1:-1] = walls
    const = framed * (taps[:, CH_WALL] - taps[:, CH_EMPTY])[:, None, None]
    const += taps[:, CH_EMPTY, None, None]
    tops = np.arange(1, n * (H + 1), H + 1)  # each copy's first row
    for channel, tiles in ends:
        const[:, tops + tiles[:, 0], tiles[:, 1] + 1] = taps[:, channel, None]
    return BfsState(frame=np.zeros(const.shape, dtype), const=const)


def bfs_step(state: BfsState) -> BfsState:
    """One step of the flood the state holds: its flood planes are all but
    the last, and its age is the last."""
    out = conv2d(state.frame, flood_stacks(len(state.frame))[0], state.const)
    floods = out[:-1]
    step(floods, out=floods)
    # age is an exact integer accumulation; never negative, so relu is a no-op
    return BfsState(frame=out, const=state.const, step=state.step + 1)


def flood_horizon(height: int, width: int) -> int:
    """Proven step bound of a flood over an H x W maze.  A source flood
    reaches its last tile at step eccentricity + 1 <= H*W and is seen
    unchanged one step later; a bidirectional flood halts no later.  A 1 x N
    corridor flooded from one end takes exactly H*W + 1 steps."""
    return height * width + 1


def floods_met(state: BfsState, copies: int) -> np.ndarray:
    """Per copy of a canvas of ``copies`` copies: the two floods overlap
    somewhere."""
    overlap = state.frame[FLOOD_S, 1:] & state.frame[FLOOD_T, 1:]
    return overlap.reshape(copies, -1).any(axis=1)


def flood_fixpoint(prev: BfsState, state: BfsState, copies: int) -> np.ndarray:
    """Single-source halting rule: the positions of the copies of a canvas
    of ``copies`` copies whose source flood stopped changing."""
    return unchanged(prev.frame, state.frame, FLOOD_S, copies).nonzero()[0]


def floods_halted(prev: BfsState, state: BfsState, copies: int) -> np.ndarray:
    """Bidirectional halting rule: the positions of the copies whose floods
    overlap, or whose source flood stopped changing without an overlap.  A
    settled source flood covers its whole component and the target flood
    always holds the target, so the second case proves the target
    unreachable.  The fixpoint is compared only while some copy has not
    met."""
    met = floods_met(state, copies)
    n_met = np.count_nonzero(met)
    if n_met < copies:
        settled = unchanged(prev.frame, state.frame, FLOOD_S, copies)
        met = settled | met if n_met else settled
    return met.nonzero()[0]


def bfs_batch(
    mazes: Sequence[Maze],
    max_steps: int | None = None,
    observe: Callable[[BfsState], object] | None = None,
) -> list[BfsResult]:
    """``run_bfs`` of every maze in ``mazes`` (one shape), as copies of one
    canvas.  A copy is read out at its halting step, or at step
    ``max_steps`` if it never halts; its result is that of its own single
    run.  ``observe`` sees every canvas state."""
    if not mazes:
        return []
    H, W = mazes[0].walls.shape
    if max_steps is None:
        max_steps = flood_horizon(H, W)
    if max_steps < 1:
        raise MazeError("max_steps must be positive")
    for maze in mazes:
        if maze.source is None or maze.target is None:
            raise MazeError("bidirectional flood needs source and target")
        if maze.walls.shape != (H, W):
            raise MazeError("a flood batch needs mazes of one shape")
    results: list[BfsResult] = [None] * len(mazes)

    def read(state: BfsState, m: int, at: np.ndarray, ids: np.ndarray) -> None:
        met = floods_met(state, m)
        for j, i in zip(at.tolist(), ids.tolist()):
            final = BfsState(frame=copy_frame(state.frame, j, m),
                             const=copy_frame(state.const, j, m), step=state.step)
            results[i] = BfsResult(met=bool(met[j]), meet_step=state.step if met[j] else None,
                                   final=final, maze=mazes[i])

    ends = ((CH_SOURCE, np.array([maze.source for maze in mazes])),
            (CH_TARGET, np.array([maze.target for maze in mazes])))
    canvas = flood_canvas(np.array([maze.walls for maze in mazes]), ends, N_HIDDEN)
    run_canvas(bfs_step, canvas, len(mazes), floods_halted, read, max_steps, observe)
    return results


def run_bfs(
    maze: Maze,
    max_steps: int | None = None,
    observe: Callable[[BfsState], object] | None = None,
) -> BfsResult:
    """Run until the floods first overlap or the target proves unreachable.
    ``max_steps`` defaults to ``flood_horizon(H, W)``; ``observe`` sees every
    state.  A batch of one."""
    return bfs_batch([maze], max_steps, observe)[0]
