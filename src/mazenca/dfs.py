"""Hand-coded sequential depth-first search automaton.

The route channel is the DFS analogue of a flood, but advances one tile per
step.  Directional priority (down > right > up > left) is enforced by 5x5
kernels that look at a neighbour's own higher-priority neighbours; ignored
tiles land on a neural stack (stack / stack_rank / stack_direction) and are
popped, most recent first, whenever the pebble -- the single newly-routed
tile -- gets stuck.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .grid import Maze, MazeError
from .bfs import inject_endpoints
from .tensor import KernelStack, conv2d, relu, sawtooth, step, zeros_kernel

# hidden channel registry
ROUTE = 0
ROUTE_DIRS = [1, 2, 3, 4]  # down, right, up, left arrivals
STACK, STACK_RANK, STACK_DIR = 5, 6, 7
PEBBLE, SINCE_BIN, SINCE = 8, 9, 10
N_HIDDEN = 11
# conv input order: 11 hidden channels then the maze one-hot
IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET = 11, 12, 13, 14

# 5x5 kernel offsets watched by each directional route channel: the position
# of the neighbour a route arrives FROM (down-move looks up, and so on)
DIR_OFFSETS = [(1, 2), (2, 1), (3, 2), (2, 3)]
# priority value of the move toward the centre from each offset
DIR_VALUES = [0.2, 0.4, 0.6, 0.8]


def _w2() -> np.ndarray:
    m = np.zeros((5, 5))
    m[2, 2] = 1.0
    return m


def _w_single(positions) -> np.ndarray:
    m = np.zeros((5, 5))
    for i, j in positions:
        m[i, j] = 1.0
    return m


# priority matrices: positions of a neighbour's own higher-priority
# neighbours; an available tile there steals the route first
W_PRIORITY = {
    (1, 2): _w_single([]),                          # down: highest priority
    (2, 1): _w_single([(3, 1)]),                    # right: blocked by left tile's down
    (3, 2): _w_single([(4, 2), (3, 3)]),            # up: below tile's down, right
    (2, 3): _w_single([(1, 3), (2, 4), (3, 3)]),    # left: right tile's down, right, up
}


def _w_adjacent() -> np.ndarray:
    return _w_single(DIR_OFFSETS)


def _w_direction() -> np.ndarray:
    m = np.zeros((5, 5))
    for (i, j), v in zip(DIR_OFFSETS, DIR_VALUES):
        m[i, j] = v
    return m


@dataclass(frozen=True)
class DfsConfig:
    L: int | None = None  # sentinel masking empty ranks; default 4*H*W + 8
    max_steps: int | None = None  # default 16*H*W


@dataclass(frozen=True)
class DfsState:
    hidden: np.ndarray  # 11 x H x W
    maze_onehot: np.ndarray  # 4 x H x W with the start tile as source
    previous_route: np.ndarray  # H x W snapshot for the pebble skip connection
    step: int = 0
    popped: np.ndarray | None = None  # H x W pop indicator of the last step


@dataclass
class DfsTrace:
    visit_order: list[tuple[int, int]] = field(default_factory=list)
    visit_steps: list[int] = field(default_factory=list)
    pop_events: list[tuple[int, tuple[int, int]]] = field(default_factory=list)
    steps_used: int = 0


def build_dfs_weights() -> KernelStack:
    w2 = _w2()
    wa = _w_adjacent()
    wp = _w_direction()
    ks = zeros_kernel(N_HIDDEN, 15, 5)
    w = ks.weights

    w[ROUTE, IN_SOURCE] = w2
    w[ROUTE, ROUTE] = w2
    w[ROUTE, IN_WALL] = -w2
    w[ROUTE, STACK] = -w2

    for ch, (i, j) in zip(ROUTE_DIRS, DIR_OFFSETS):
        wpd = W_PRIORITY[(i, j)]
        w[ch, ROUTE] = _w_single([(i, j)]) + wpd
        for src in (IN_EMPTY, IN_SOURCE, IN_TARGET):
            w[ch, src] = -wpd

    w[STACK, PEBBLE] = wa
    w[STACK, STACK] = w2
    w[STACK, IN_WALL] = -2.0 * w2
    w[STACK, ROUTE] = -2.0 * w2

    w[STACK_DIR, PEBBLE] = wp
    w[STACK_DIR, STACK_DIR] = w2
    w[STACK_DIR, IN_WALL] = -2.0 * w2
    w[STACK_DIR, ROUTE] = -2.0 * w2

    w[STACK_RANK, PEBBLE] = w2
    # self-persistence is required for the rank to count time on the stack;
    # without it every rank collapses to a constant and pops lose LIFO order
    w[STACK_RANK, STACK_RANK] = w2
    w[STACK_RANK, IN_WALL] = -2.0 * w2
    w[STACK_RANK, ROUTE] = -2.0 * w2
    w[STACK_RANK, STACK] = w2

    w[SINCE_BIN, PEBBLE] = w2
    w[SINCE_BIN, SINCE_BIN] = w2
    w[SINCE, SINCE_BIN] = w2
    w[SINCE, SINCE] = w2
    return ks


_WEIGHTS: KernelStack | None = None


def _weights() -> KernelStack:
    global _WEIGHTS
    if _WEIGHTS is None:
        _WEIGHTS = build_dfs_weights()
    return _WEIGHTS


def initial_state(maze: Maze, start: tuple[int, int]) -> DfsState:
    onehot = inject_endpoints(maze, source=start)
    H, W = maze.walls.shape
    return DfsState(
        hidden=np.zeros((N_HIDDEN, H, W)),
        maze_onehot=onehot,
        previous_route=np.zeros((H, W)),
    )


def dfs_step(state: DfsState, cfg: DfsConfig | None = None) -> DfsState:
    cfg = cfg or DfsConfig()
    _, H, W = state.hidden.shape
    L = cfg.L if cfg.L is not None else 4 * H * W + 8
    prev = state.hidden

    x = np.concatenate([state.hidden, state.maze_onehot])
    out = conv2d(x, _weights())

    for ch in ROUTE_DIRS:
        out[ch] = step(out[ch])
    out[ROUTE] = step(out[ROUTE] + step(sum(out[ch] for ch in ROUTE_DIRS)))

    for ch in (STACK, STACK_RANK, STACK_DIR):
        out[ch] = relu(out[ch])

    # a tile re-added before being popped carries stack == 2; overwrite its
    # old bookkeeping so it behaves as freshly stacked (rank also picked up
    # this step's increment, hence the extra +1)
    dbl = sawtooth(out[STACK], 2)
    out[STACK_DIR] -= prev[STACK_DIR] * dbl
    out[STACK] -= prev[STACK] * dbl
    out[STACK_RANK] -= (prev[STACK_RANK] + 1.0) * dbl

    out[PEBBLE] = out[ROUTE] - state.previous_route
    is_stuck = sawtooth(np.array(out[PEBBLE].max()), 0)

    # Pop read-out.  Ranks carry fifth-valued direction offsets, so the
    # zero/minimum indicators are taken exactly rather than through a
    # unit-width sawtooth (which would fire fractionally on 0.2 gaps).
    total_rank = out[STACK_RANK] + out[STACK_DIR]
    total_rank = total_rank + (total_rank == 0.0) * float(L)
    min_total = total_rank.min()
    is_popped = (total_rank == min_total).astype(np.float64) * is_stuck
    popped_tiles = (is_popped > 0.0) & (out[STACK] > 0.0)
    for ch in (STACK, STACK_RANK, STACK_DIR):
        out[ch] -= out[ch] * is_popped

    # zero stack bookkeeping on tiles the route just reached: the route
    # inhibition in the conv clears them one step later anyway, but doing it
    # here keeps route and stack disjoint at every observable state
    routed = out[ROUTE] > 0.0
    for ch in (STACK, STACK_RANK, STACK_DIR):
        out[ch][routed] = 0.0

    return DfsState(
        hidden=out,
        maze_onehot=state.maze_onehot,
        previous_route=out[ROUTE].copy(),
        step=state.step + 1,
        popped=popped_tiles,
    )


def dfs_states(maze: Maze, start: tuple[int, int], cfg: DfsConfig | None = None) -> Iterator[DfsState]:
    state = initial_state(maze, start)
    while True:
        state = dfs_step(state, cfg)
        yield state


def run_dfs(maze: Maze, start: tuple[int, int], cfg: DfsConfig | None = None) -> DfsTrace:
    """Run to completion: route covers the start's component and the stack
    drains.  The trace records pebble positions (the visit order), their
    steps, and pop events."""
    cfg = cfg or DfsConfig()
    if not maze.contains(start):
        raise MazeError(f"DFS start {start} is outside the {maze.height}x{maze.width} maze")
    if maze.walls[start]:
        raise MazeError(f"DFS start {start} is a wall")
    H, W = maze.walls.shape
    max_steps = cfg.max_steps if cfg.max_steps is not None else 16 * H * W
    trace = DfsTrace()
    for state in dfs_states(maze, start, cfg):
        pebble = state.hidden[PEBBLE]
        if pebble.max() > 0.0:
            pos = np.argwhere(pebble > 0.0)
            trace.visit_order.append((int(pos[0][0]), int(pos[0][1])))
            trace.visit_steps.append(state.step)
        if state.popped is not None and state.popped.any():
            for p in np.argwhere(state.popped):
                trace.pop_events.append((state.step, (int(p[0]), int(p[1]))))
        # a pop empties the stack one step before the popped tile's pebble
        # appears, so a pop step never counts as termination
        popped_now = state.popped is not None and state.popped.any()
        if (pebble.max() == 0.0 and state.hidden[STACK].max() == 0.0
                and not popped_now and state.step > 1):
            trace.steps_used = state.step
            return trace
        if state.step >= max_steps:
            raise MazeError(f"DFS did not terminate within {max_steps} steps")
    raise AssertionError("unreachable")
