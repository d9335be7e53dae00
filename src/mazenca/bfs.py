"""Hand-coded bidirectional flood / Dijkstra-map cellular automaton.

Two binary flood channels grow outward from source and target one ring per
step; the age channel counts, per tile, the steps since each flood arrived.
The run freezes at the first step where the floods overlap, or when the
source flood stops growing without an overlap, which proves the target
unreachable.  A single-source mode (used by the diameter algorithm) floods
from one injected tile and runs to a fixpoint instead.  The state is an
integer tensor in ``flood_dtype``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .loop import run
from .grid import CH_SOURCE, CH_TARGET, CH_EMPTY, Maze, MazeError, one_hot
from .tensor import KernelStack, conv2d, int_dtype, step, w_center3, w_von_neumann

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
    # a flood halts by step H*W+1, as it grows a tile per step until it meets
    # or settles, so ages stay within the horizon; flood pre-activations lie
    # in [-6, 6]
    return int_dtype(max(flood_horizon(height, width), 6))


def initial_state(maze_onehot: np.ndarray) -> BfsState:
    _, H, W = maze_onehot.shape
    dtype = flood_dtype(H, W)
    return BfsState(
        hidden=np.zeros((N_HIDDEN, H, W), dtype), maze_onehot=maze_onehot.astype(dtype)
    )


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
        enc[CH_EMPTY] |= enc[ch]
        enc[ch] = False
    for ch, pos in ((CH_SOURCE, source), (CH_TARGET, target)):
        if pos is None:
            continue
        if not maze.contains(pos):
            raise MazeError(
                f"injected endpoint {pos} is outside the {maze.height}x{maze.width} maze"
            )
        if maze.walls[pos]:
            raise MazeError(f"injected endpoint {pos} is a wall")
        enc[ch][pos] = True
        enc[CH_EMPTY][pos] = False
    return enc


def flood_horizon(height: int, width: int) -> int:
    """Default step cap for a flood over an H x W maze: a safe horizon, as a
    flood grows by at least one tile per step until its fixpoint."""
    return 4 * height * width


def floods_met(state: BfsState) -> bool:
    """The two floods overlap somewhere."""
    return bool(np.any(state.hidden[FLOOD_S] & state.hidden[FLOOD_T]))


def flood_fixpoint(prev: BfsState, state: BfsState) -> bool:
    """Single-source halting rule: the source flood stopped changing."""
    return np.array_equal(state.hidden[FLOOD_S], prev.hidden[FLOOD_S])


def floods_halted(prev: BfsState, state: BfsState) -> bool:
    """Bidirectional halting rule: the floods overlap, or the source flood
    stopped changing without an overlap.  A settled source flood covers its
    whole component and the target flood always holds the target, so the
    second case proves the target unreachable."""
    return floods_met(state) or flood_fixpoint(prev, state)


def run_bfs(
    maze: Maze,
    mode: str = "bidirectional",
    at: tuple[int, int] | None = None,
    max_steps: int | None = None,
    observe: Callable[[BfsState], object] | None = None,
) -> BfsResult:
    """Bidirectional mode runs until the floods first overlap or the target
    proves unreachable; single-source mode floods from ``at`` until the flood
    stops changing.  ``max_steps`` defaults to ``flood_horizon(H, W)``;
    ``observe`` sees every state."""
    if max_steps is None:
        max_steps = flood_horizon(maze.height, maze.width)
    if max_steps < 1:
        raise MazeError("max_steps must be positive")
    if mode == "bidirectional":
        if maze.source is None or maze.target is None:
            raise MazeError("bidirectional flood needs source and target")
        state, _ = run(bfs_step, initial_state(one_hot(maze)), floods_halted, max_steps, observe)
        met = floods_met(state)
        return BfsResult(met=met, meet_step=state.step if met else None, final=state)
    if mode == "single_source":
        if at is None:
            raise MazeError("single_source mode needs a start tile")
        onehot = inject_endpoints(maze, source=at)
        state, fixpoint = run(bfs_step, initial_state(onehot), flood_fixpoint, max_steps, observe)
        return BfsResult(met=False, meet_step=None, final=state, fixpoint=fixpoint)
    raise MazeError(f"unknown mode {mode!r}")
