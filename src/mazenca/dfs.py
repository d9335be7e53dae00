"""Hand-coded sequential depth-first search automaton.

The route channel is the DFS analogue of a flood, but advances one tile per
step.  Directional priority (down > right > up > left) is enforced by 5x5
kernels that look at a neighbour's own higher-priority neighbours; ignored
tiles land on a neural stack (stack / stack_rank / stack_direction) and are
popped, most recent first, whenever the pebble -- the single newly-routed
tile -- gets stuck.  A stacked tile's rank counts its steps on the stack and
its direction is the integer code 1..4 of the move that would reach it, in
priority order, so ``5 * rank + direction`` orders pops exactly.  The maze
one-hot enters the state once, as the constant plane the kernels add to
every step.

A step moves one tile, so the state carries its active box: the bounding
box of the cells the last step changed in any channel but the rank, a popped
tile included; the first step's box is the whole grid.  A cell further than
the kernel's reach (2) from the box reads only cells whose other channels
did not change, and no channel but the rank reads the rank, so the step
leaves that cell as it was, except that a stacked tile's rank ages by 1.  A
step therefore starts from one exact whole-grid add, rank += stack, then
convolves the box dilated by 4 and keeps the box dilated by 2, which the
crop's zero border does not reach.  The pebble lies in the box, so the stuck
test reads the box; the pop read-out compares ranks across the whole grid,
and runs, over the whole grid, on stuck steps only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Maze, MazeError, one_hot
from .loop import run
from .tensor import KernelStack, conv2d, int_dtype, relu, sawtooth, step

# hidden channel registry
ROUTE = 0
ROUTE_DIRS = [1, 2, 3, 4]  # down, right, up, left arrivals
STACK, STACK_RANK, STACK_DIR = 5, 6, 7
PEBBLE = 8
N_HIDDEN = 9
# conv input order: 9 hidden channels then the maze one-hot, which every run
# folds into its constant plane
IN_EMPTY, IN_WALL, IN_SOURCE, IN_TARGET = 9, 10, 11, 12

# 5x5 kernel offsets watched by each directional route channel: the position
# of the neighbour a route arrives FROM (down-move looks up, and so on), in
# priority order; the direction code of the move from offset k is k + 1
DIR_OFFSETS = [(1, 2), (2, 1), (3, 2), (2, 3)]


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
    for code, (i, j) in enumerate(DIR_OFFSETS, start=1):
        m[i, j] = code
    return m


@dataclass(frozen=True)
class DfsState:
    hidden: np.ndarray  # 9 x H x W
    const: np.ndarray  # 9 x H x W, the maze one-hot's share of every step
    # (rows, cols) half-open ranges of the cells the last step changed in any
    # channel but STACK_RANK; the next step recomputes only near them
    active: tuple[tuple[int, int], tuple[int, int]]
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
    w = np.zeros((N_HIDDEN, N_HIDDEN + 4, 5, 5))

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
    # walls and routed tiles never hold a direction, so the inhibition must
    # outweigh any code (at most 4); 10 is the fifth-valued encoding's 2
    # scaled by 5, which keeps this channel exactly 5x that encoding
    w[STACK_DIR, IN_WALL] = -10.0 * w2
    w[STACK_DIR, ROUTE] = -10.0 * w2

    w[STACK_RANK, PEBBLE] = w2
    # self-persistence is required for the rank to count time on the stack;
    # without it every rank collapses to a constant and pops lose LIFO order
    w[STACK_RANK, STACK_RANK] = w2
    w[STACK_RANK, IN_WALL] = -2.0 * w2
    w[STACK_RANK, ROUTE] = -2.0 * w2
    w[STACK_RANK, STACK] = w2
    return KernelStack(weights=w, bias=np.zeros(N_HIDDEN))


@functools.cache
def _weights() -> KernelStack:
    return build_dfs_weights()


def initial_state(maze: Maze, start: tuple[int, int], horizon: int) -> DfsState:
    """The state of a run of at most ``horizon`` steps from ``start``, which
    the one-hot marks as the source."""
    # a rank grows by at most 1 per step from 0, so every 5 * rank + direction
    # the run reaches is below 5 * (horizon + 1); other pre-activations lie
    # in [-10, 8]
    dtype = int_dtype(5 * (horizon + 1))
    onehot = one_hot(Maze(walls=maze.walls, source=start)).astype(dtype)
    H, W = maze.walls.shape
    return DfsState(
        hidden=np.zeros((N_HIDDEN, H, W), dtype),
        const=conv2d(onehot, _weights().split(N_HIDDEN)[1]),
        active=((0, H), (0, W)),
    )


def _window(active, reach: int, H: int, W: int) -> tuple[int, int, int, int]:
    """The active box dilated by ``reach`` and clipped to the grid."""
    (r0, r1), (c0, c1) = active
    return max(r0 - reach, 0), min(r1 + reach, H), max(c0 - reach, 0), min(c1 + reach, W)


def dfs_step(state: DfsState) -> DfsState:
    prev = state.hidden
    _, H, W = prev.shape
    # only cells within reach 2 of the active box have changed conv inputs;
    # the conv reads reach 2 around those in turn, so a crop's zero border
    # stays outside the kept window unless it is the grid's own border
    r0, r1, c0, c1 = _window(state.active, 2, H, W)
    i0, i1, j0, j1 = _window(state.active, 4, H, W)
    crop = np.s_[:, i0:i1, j0:j1]
    out = conv2d(prev[crop], _weights().split(N_HIDDEN)[0], state.const[crop])
    out = out[:, r0 - i0 : r1 - i0, c0 - j0 : c1 - j0]
    before = prev[:, r0:r1, c0:c1]

    out[1:5] = step(out[1:5])  # the four ROUTE_DIRS
    out[ROUTE] = step(out[ROUTE] + step(out[1:5].sum(axis=0, dtype=out.dtype)))
    out[STACK:PEBBLE] = relu(out[STACK:PEBBLE])  # STACK, STACK_RANK, STACK_DIR

    # a tile re-added before being popped carries stack == 2; overwrite its
    # old bookkeeping so it behaves as freshly stacked (rank also picked up
    # this step's increment, hence the extra +1)
    if (out[STACK] == 2).any():
        dbl = sawtooth(out[STACK], 2)
        out[STACK_DIR] -= before[STACK_DIR] * dbl
        out[STACK] -= before[STACK] * dbl
        out[STACK_RANK] -= (before[STACK_RANK] + 1) * dbl

    out[PEBBLE] = out[ROUTE] - before[ROUTE]

    # outside the window only stacked tiles change: each ages by 1
    hidden = prev.copy()
    hidden[STACK_RANK] += hidden[STACK]
    window = hidden[:, r0:r1, c0:c1]
    window[...] = out

    # the last step's pebble lies in the active box, so the pebble channel
    # is 0 outside the window; inside it is 0 or 1
    is_stuck = not window[PEBBLE].any()
    if not is_stuck:
        popped_tiles = np.zeros((H, W), bool)
    else:
        # Pop read-out: the stacked tile with the least rank, ties broken by
        # direction priority.  Off-stack tiles total 0 and take the dtype's
        # maximum, which exceeds every reachable total (see initial_state).
        total_rank = 5 * hidden[STACK_RANK] + hidden[STACK_DIR]
        total_rank[total_rank == 0] = np.iinfo(total_rank.dtype).max
        is_popped = total_rank == total_rank.min()
        popped_tiles = is_popped & (hidden[STACK] > 0)
        hidden[STACK:PEBBLE, is_popped] = 0

    # zero stack bookkeeping on tiles the route just reached: the route
    # inhibition in the conv clears them one step later anyway, but doing it
    # here keeps route and stack disjoint at every observable state
    window[STACK:PEBBLE] *= 1 - window[ROUTE]

    changed = window != before
    changed[STACK_RANK] = False
    rows, cols = (np.nonzero(changed.any(axis=0)) + np.array([[r0], [c0]])).tolist()
    if is_stuck:
        pr, pc = np.nonzero(popped_tiles)
        rows += pr.tolist()
        cols += pc.tolist()
    # a step that changed nothing may keep any box: its successor only ages
    active = ((min(rows), max(rows) + 1), (min(cols), max(cols) + 1)) if rows else state.active
    return DfsState(hidden=hidden, const=state.const, active=active, step=state.step + 1,
                    popped=popped_tiles)


def drained(prev: DfsState, state: DfsState) -> bool:
    """Halting rule: no pebble, an empty stack and no pop this step.  A pop
    empties the stack one step before the popped tile's pebble appears, so a
    pop step never counts as termination."""
    return (
        state.step > 1
        and state.hidden[PEBBLE].max() == 0
        and state.hidden[STACK].max() == 0
        and not state.popped.any()
    )


def run_dfs(
    maze: Maze,
    start: tuple[int, int],
    max_steps: int | None = None,
    observe: Callable[[DfsState], object] | None = None,
) -> DfsTrace:
    """Run to completion: route covers the start's component and the stack
    drains.  The trace records pebble positions (the visit order), their
    steps, and pop events.  ``max_steps`` defaults to twice the number of
    empty tiles, a proven bound; ``observe`` sees every state."""
    if not maze.contains(start):
        raise MazeError(f"DFS start {start} is outside the {maze.height}x{maze.width} maze")
    if maze.walls[start]:
        raise MazeError(f"DFS start {start} is a wall")
    if max_steps is None:
        # a run takes visits + pops + 1 steps: each visit is one step, a pop
        # adds one, and the drained state is seen one step after the last
        # visit; every pop precedes a later visit, so pops <= visits - 1
        max_steps = 2 * int(np.count_nonzero(~maze.walls))
    trace = DfsTrace()

    def record(state: DfsState) -> None:
        pebble = np.flatnonzero(state.hidden[PEBBLE])
        if len(pebble):
            trace.visit_order.append(divmod(int(pebble[0]), maze.width))
            trace.visit_steps.append(state.step)
        if state.popped.any():
            for p in np.argwhere(state.popped):
                trace.pop_events.append((state.step, (int(p[0]), int(p[1]))))
        if observe is not None:
            observe(state)

    state, done = run(dfs_step, initial_state(maze, start, max_steps), drained, max_steps, record)
    if not done:
        raise MazeError(f"DFS did not terminate within {max_steps} steps")
    trace.steps_used = state.step
    return trace
