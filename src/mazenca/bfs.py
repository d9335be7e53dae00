"""Hand-coded bidirectional flood / Dijkstra-map cellular automaton.

Two binary flood channels grow outward from source and target one ring per
step; the age channel counts, per tile, the steps since each flood arrived.
The run freezes at the first step where the floods overlap, or when the
source flood stops growing without an overlap, which proves the target
unreachable.  The diameter canvas steps the same kernels from one source per
maze copy and halts each copy at its fixpoint.  The state is an integer
tensor in ``flood_dtype``; the maze one-hot enters it once, as the constant
plane its kernels add to every step.  The state keeps the conv's one-cell
border (``tensor.conv2d``).  The constant plane frames the maze with walls,
so a border cell's flood pre-activation is at most -6 + 5 and its age adds
only border cells: the border stays zero, as zero padding would be.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .loop import run
from .grid import CH_WALL, Maze, MazeError, one_hot
from .tensor import KernelStack, conv2d, int_dtype, interior, step, w_center3, w_von_neumann

# hidden channel registry
FLOOD_S, FLOOD_T, AGE = 0, 1, 2
N_HIDDEN = 3
# conv input order: hidden channels then the maze one-hot, which every run
# folds into its constant plane (``flood_plane``)
IN_FLOOD_S, IN_FLOOD_T, IN_AGE, IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET = range(7)


@dataclass(frozen=True)
class BfsState:
    frame: np.ndarray  # 3 x (H + 2) x (W + 2), the planes in a zero border
    const: np.ndarray  # 3 x (H + 2) x (W + 2), the maze one-hot's share of every step
    step: int = 0

    hidden = property(interior)  # 3 x H x W


@dataclass(frozen=True)
class BfsResult:
    met: bool
    meet_step: Optional[int]
    final: BfsState
    maze: Maze


def build_bfs_weights() -> KernelStack:
    w1 = w_center3()
    wt = w_von_neumann()
    w = np.zeros((N_HIDDEN, 7, 3, 3))
    w[FLOOD_S, IN_SOURCE] = w1
    w[FLOOD_S, IN_FLOOD_S] = wt
    w[FLOOD_S, IN_WALL] = -6.0 * w1
    w[FLOOD_T, IN_TARGET] = w1
    w[FLOOD_T, IN_FLOOD_T] = wt
    w[FLOOD_T, IN_WALL] = -6.0 * w1
    w[AGE, IN_FLOOD_S] = w1
    w[AGE, IN_FLOOD_T] = w1
    w[AGE, IN_AGE] = w1
    return KernelStack(weights=w, bias=np.zeros(N_HIDDEN))


@functools.cache
def _weights() -> KernelStack:
    return build_bfs_weights()


def flood_dtype(height: int, width: int) -> np.dtype:
    """Integer dtype of a flood over an H x W maze."""
    # every flood halts by step flood_horizon = H*W + 1, and an age grows by
    # at most 1 per step (floods overlap only at the halting step), so ages
    # stay within it; flood pre-activations lie in [-6, 6]
    return int_dtype(max(flood_horizon(height, width), 6))


def flood_plane(onehot: np.ndarray) -> np.ndarray:
    """Framed constant plane of a flood over a 4 x H x W maze one-hot framed
    with walls, in the one-hot's dtype.  Every static tap is a centre tap, so
    the wall frame is convolved as the interior of a second frame."""
    _, H, W = onehot.shape
    walled = np.zeros((4, H + 4, W + 4), onehot.dtype)
    walled[CH_WALL, 1:-1, 1:-1] = 1
    walled[:, 2:-2, 2:-2] = onehot
    return np.ascontiguousarray(conv2d(walled, _weights().split(N_HIDDEN)[1])[:, 1:-1, 1:-1])


def initial_state(maze_onehot: np.ndarray) -> BfsState:
    _, H, W = maze_onehot.shape
    dtype = flood_dtype(H, W)
    return BfsState(
        frame=np.zeros((N_HIDDEN, H + 2, W + 2), dtype),
        const=flood_plane(maze_onehot.astype(dtype)),
    )


def bfs_step(state: BfsState) -> BfsState:
    out = conv2d(state.frame, _weights().split(N_HIDDEN)[0], state.const)
    floods = out[FLOOD_S : FLOOD_T + 1]
    step(floods, out=floods)
    # age is an exact integer accumulation; never negative, so relu is a no-op
    return BfsState(frame=out, const=state.const, step=state.step + 1)


def flood_horizon(height: int, width: int) -> int:
    """Proven step bound of a flood over an H x W maze.  A source flood
    reaches its last tile at step eccentricity + 1 <= H*W and is seen
    unchanged one step later; a bidirectional flood halts no later.  A 1 x N
    corridor flooded from one end takes exactly H*W + 1 steps."""
    return height * width + 1


def floods_met(state: BfsState) -> bool:
    """The two floods overlap somewhere."""
    return bool((state.frame[FLOOD_S] & state.frame[FLOOD_T]).any())


def flood_fixpoint(prev: BfsState, state: BfsState, copies: int = 1) -> np.ndarray:
    """Single-source halting rule, per maze copy for ``copies`` copies
    stacked along the rows: the copy's source flood stopped changing."""
    same = state.frame[FLOOD_S, 1:-1] == prev.frame[FLOOD_S, 1:-1]
    return same.reshape(copies, -1).all(axis=1)


def floods_halted(prev: BfsState, state: BfsState) -> bool:
    """Bidirectional halting rule: the floods overlap, or the source flood
    stopped changing without an overlap.  A settled source flood covers its
    whole component and the target flood always holds the target, so the
    second case proves the target unreachable."""
    return floods_met(state) or bool(flood_fixpoint(prev, state)[0])


def run_bfs(
    maze: Maze,
    max_steps: int | None = None,
    observe: Callable[[BfsState], object] | None = None,
) -> BfsResult:
    """Run until the floods first overlap or the target proves unreachable.
    ``max_steps`` defaults to ``flood_horizon(H, W)``; ``observe`` sees every
    state."""
    if max_steps is None:
        max_steps = flood_horizon(maze.height, maze.width)
    if max_steps < 1:
        raise MazeError("max_steps must be positive")
    if maze.source is None or maze.target is None:
        raise MazeError("bidirectional flood needs source and target")
    state, _ = run(bfs_step, initial_state(one_hot(maze)), floods_halted, max_steps, observe)
    met = floods_met(state)
    return BfsResult(met=met, meet_step=state.step if met else None, final=state, maze=maze)
