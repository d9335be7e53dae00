"""Hand-coded bidirectional flood / Dijkstra-map cellular automaton.

Two binary flood channels grow outward from source and target one ring per
step; the age channel counts, per tile, the steps since each flood arrived.
The run freezes at the first step where the floods overlap.  A single-source
mode (used by the diameter algorithm) floods from one injected tile and runs
to a fixpoint instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .loop import run
from .grid import CH_SOURCE, CH_TARGET, CH_EMPTY, Maze, MazeError, one_hot
from .tensor import (
    KernelStack,
    conv2d,
    step,
    w_center3,
    w_von_neumann,
    zeros_kernel,
)

# hidden channel registry
FLOOD_S, FLOOD_T, AGE = 0, 1, 2
N_HIDDEN = 3
# conv input order: hidden channels then the maze one-hot
IN_FLOOD_S, IN_FLOOD_T, IN_AGE, IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET = range(7)


@dataclass(frozen=True)
class BfsState:
    hidden: np.ndarray  # 3 x H x W
    maze_onehot: np.ndarray  # 4 x H x W, frozen for the whole run
    step: int = 0


@dataclass(frozen=True)
class BfsResult:
    met: bool
    meet_step: Optional[int]
    final: BfsState
    fixpoint: bool = False


def build_bfs_weights() -> KernelStack:
    w1 = w_center3()
    wt = w_von_neumann()
    ks = zeros_kernel(N_HIDDEN, 7, 3)
    w = ks.weights
    w[FLOOD_S, IN_SOURCE] = w1
    w[FLOOD_S, IN_FLOOD_S] = wt
    w[FLOOD_S, IN_WALL] = -6.0 * w1
    w[FLOOD_T, IN_TARGET] = w1
    w[FLOOD_T, IN_FLOOD_T] = wt
    w[FLOOD_T, IN_WALL] = -6.0 * w1
    w[AGE, IN_FLOOD_S] = w1
    w[AGE, IN_FLOOD_T] = w1
    w[AGE, IN_AGE] = w1
    return ks


@functools.cache
def _weights() -> KernelStack:
    return build_bfs_weights()


def initial_state(maze_onehot: np.ndarray) -> BfsState:
    _, H, W = maze_onehot.shape
    return BfsState(hidden=np.zeros((N_HIDDEN, H, W)), maze_onehot=maze_onehot)


def bfs_step(state: BfsState) -> BfsState:
    x = np.concatenate([state.hidden, state.maze_onehot])
    out = conv2d(x, _weights())
    out[FLOOD_S] = step(out[FLOOD_S])
    out[FLOOD_T] = step(out[FLOOD_T])
    # age is an exact integer accumulation; never negative, so relu is a no-op
    return replace(state, hidden=out, step=state.step + 1)


def inject_endpoints(
    maze: Maze,
    source: tuple[int, int] | None,
    target: tuple[int, int] | None = None,
) -> np.ndarray:
    """One-hot encoding with virtual endpoints replacing the maze's own."""
    enc = one_hot(maze)
    for ch in (CH_SOURCE, CH_TARGET):
        enc[CH_EMPTY] += enc[ch]
        enc[ch] = 0.0
    for ch, pos in ((CH_SOURCE, source), (CH_TARGET, target)):
        if pos is None:
            continue
        if not maze.contains(pos):
            raise MazeError(
                f"injected endpoint {pos} is outside the {maze.height}x{maze.width} maze"
            )
        if maze.walls[pos]:
            raise MazeError(f"injected endpoint {pos} is a wall")
        enc[ch][pos] = 1.0
        enc[CH_EMPTY][pos] = 0.0
    return enc


def flood_horizon(height: int, width: int) -> int:
    """Default step cap for a flood over an H x W maze: a safe horizon, as a
    flood grows by at least one tile per step until its fixpoint."""
    return 4 * height * width


def floods_met(prev: BfsState, state: BfsState) -> bool:
    """Bidirectional halting rule: the two floods overlap somewhere."""
    return bool(np.any(state.hidden[FLOOD_S] * state.hidden[FLOOD_T] > 0.0))


def flood_fixpoint(prev: BfsState, state: BfsState) -> bool:
    """Single-source halting rule: the source flood stopped changing."""
    return np.array_equal(state.hidden[FLOOD_S], prev.hidden[FLOOD_S])


def run_bfs(
    maze: Maze,
    mode: str = "bidirectional",
    at: tuple[int, int] | None = None,
    max_steps: int | None = None,
    observe: Callable[[BfsState], object] | None = None,
) -> BfsResult:
    """Bidirectional mode runs until the floods first overlap; single-source
    mode floods from ``at`` until the flood stops changing.  ``max_steps``
    defaults to ``flood_horizon(H, W)``; ``observe`` sees every state."""
    if max_steps is None:
        max_steps = flood_horizon(maze.height, maze.width)
    if max_steps < 1:
        raise MazeError("max_steps must be positive")
    if mode == "bidirectional":
        if maze.source is None or maze.target is None:
            raise MazeError("bidirectional flood needs source and target")
        state, met = run(bfs_step, initial_state(one_hot(maze)), floods_met, max_steps, observe)
        return BfsResult(met=met, meet_step=state.step if met else None, final=state)
    if mode == "single_source":
        if at is None:
            raise MazeError("single_source mode needs a start tile")
        onehot = inject_endpoints(maze, source=at)
        state, fixpoint = run(bfs_step, initial_state(onehot), flood_fixpoint, max_steps, observe)
        return BfsResult(met=False, meet_step=None, final=state, fixpoint=fixpoint)
    raise MazeError(f"unknown mode {mode!r}")
