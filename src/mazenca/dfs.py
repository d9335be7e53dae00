"""Hand-coded sequential depth-first search automaton.

The route channel is the DFS analogue of a flood, but advances one tile per
step.  Directional priority (down > right > up > left) is enforced by 5x5
kernels that look at a neighbour's own higher-priority neighbours; ignored
tiles land on a neural stack (stack / stack_rank / stack_direction) and are
popped, most recent first, whenever the pebble -- the single newly-routed
tile -- gets stuck.  A stacked tile's rank counts its steps on the stack and
its direction is the integer code 1..4 of the move that would reach it, in
priority order, so ``5 * rank + direction`` orders pops exactly.

A step moves one tile, so the state carries its active box: the bounding
box of the cells the last step changed in any channel but the rank, a popped
tile included; the first step's box is the whole grid.  A cell further than
the kernel's reach (2) from the box reads only cells whose other channels
did not change, and no channel but the rank reads the rank, so the step
leaves that cell as it was, except that a stacked tile's rank ages by 1.  A
step therefore computes only its window, the box dilated by 2.

Convolution is linear, so a step's pre-activations are the sum of each
input channel's share, and only the stack channels need a conv.  The maze
one-hot's share is the constant plane, convolved once per run.  The route
only grows, by the pebble's tile, and the pebble is one tile, so their
shares are stamps: the 5x5 kernels from ROUTE and from PEBBLE, flipped in
both axes because ``tensor.conv2d`` correlates, added at a tile.  A run
keeps a base, the constant plane plus the route stamp of every routed tile;
a step adds the pebble's stamp to its own output, and the route stamp of a
tile it routes to the base.  What is left of the conv are five centre taps,
STACK -> ROUTE, STACK -> STACK, STACK_RANK -> STACK_RANK, STACK_DIR ->
STACK_DIR and STACK -> STACK_RANK, which ``conv2d`` runs as a 1x1 stack in
3 adds, pointwise over the window and from its base.

What a step reads, and what it costs.  A run owns one 9 x H x W plane array
and one base array, and each step writes into them in place: its window,
the stack channels of a popped tile, and a routed tile's stamp.  Each rank
is stored minus ``step * STACK``, as the pop keys are, so a stacked tile no
step touches ages with no write.  A step reads its window of the planes and
of the base and nothing else of either.  The pebble's tile, the popped tile
and the stacked tiles with their pop keys are records the state keeps,
updated from the window and the pops, and the stuck test, the pop read-out
and the halting rule read those.  A step is a few dozen numpy calls on
arrays of a few dozen cells, 3 of them the conv's adds, so its cost is
per-call dispatch, at every grid size.

The run keeps the undo of its last step: the window it read and the popped
tile's stack values.  So a state's ``hidden`` stays readable until its
successor is stepped, as a tracer around ``dfs_step`` reads it; no state
reads the base.  Reading an older state, or stepping any state but the
run's last, raises RuntimeError, so nothing reads a wrong state.  A run is
a canvas of one copy (``loop.run_canvas``), and ``drained`` reads no planes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Maze, MazeError, one_hot
from .loop import run_canvas
from .tensor import KernelStack, conv2d, int_dtype, relu, step, w_cells

# hidden channel registry
ROUTE = 0
ROUTE_DIRS = [1, 2, 3, 4]  # down, right, up, left arrivals
STACK, STACK_RANK, STACK_DIR = 5, 6, 7
PEBBLE = 8
N_HIDDEN = 9
# conv input order: 9 hidden channels then the maze one-hot, which every run
# folds into its constant plane
IN_EMPTY, IN_WALL, IN_SOURCE = 9, 10, 11

# 5x5 kernel offsets watched by each directional route channel: the position
# of the neighbour a route arrives FROM (down-move looks up, and so on), in
# priority order; the direction code of the move from offset k is k + 1
DIR_OFFSETS = [(1, 2), (2, 1), (3, 2), (2, 3)]


# priority matrices: positions of a neighbour's own higher-priority
# neighbours; an available tile there steals the route first
W_PRIORITY = {
    (1, 2): w_cells(5, []),                          # down: highest priority
    (2, 1): w_cells(5, [(3, 1)]),                    # right: blocked by left tile's down
    (3, 2): w_cells(5, [(4, 2), (3, 3)]),            # up: below tile's down, right
    (2, 3): w_cells(5, [(1, 3), (2, 4), (3, 3)]),    # left: right tile's down, right, up
}


class RunArrays:
    """The 9 x H x W ``planes`` and ``base`` one run owns and steps in
    place, the step of its last state, and the undo of its last step: the
    window's corner and its planes as the step read them, and each popped
    tile with its stored stack values."""

    def __init__(self, planes: np.ndarray, base: np.ndarray):
        self.planes, self.base, self.step, self.undo = planes, base, 0, None

    def read(self, step: int) -> np.ndarray:
        """A fresh copy of the planes as of ``step``: the step of the run's
        last state or of the one before it."""
        lag = self.step - step
        if lag not in (0, 1):
            raise RuntimeError(f"the DFS state of step {step} is {lag} steps behind its run; "
                               "only the last state and the one before it can be read")
        r0, c0, before, popped = self.undo if lag else (0, 0, None, ())
        out = self.planes.copy()
        for (r, c), values in popped:
            out[STACK:PEBBLE, r, c] = values
        out[STACK_RANK] += step * out[STACK]
        if before is not None:
            out[:, r0 : r0 + before.shape[1], c0 : c0 + before.shape[2]] = before
        return out


@dataclass(frozen=True)
class DfsState:
    """One state of a run, whose planes live in the run's ``arrays``.
    ``hidden`` returns a fresh 9 x H x W copy."""

    arrays: RunArrays = field(compare=False)
    # (rows, cols) half-open ranges of the cells the last step changed in any
    # channel but STACK_RANK; the next step recomputes only near them
    active: tuple[tuple[int, int], tuple[int, int]]
    step: int = 0
    # records of what the planes hold, for the read-outs and the pebble's
    # stamp: the tiles the last step popped (at most one) and the pebble's tile
    popped: tuple[tuple[int, int], ...] = ()
    pebble: tuple[int, int] | None = None
    # the stacked tiles (STACK > 0), in no particular order: 2 x K, read-only,
    # row 0 the flat index row * W + col, row 1 the pop key
    # 5 * (rank - step) + direction, which stays fixed while the tile waits
    stacked: np.ndarray = field(default_factory=lambda: _frozen(np.zeros((2, 0), np.int64)))

    @property
    def hidden(self) -> np.ndarray:
        """The 9 x H x W hidden planes, a fresh array."""
        return self.arrays.read(self.step)


@dataclass
class DfsTrace:
    visit_order: list[tuple[int, int]] = field(default_factory=list)
    visit_steps: list[int] = field(default_factory=list)
    pop_events: list[tuple[int, tuple[int, int]]] = field(default_factory=list)
    steps_used: int = 0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stamp(planes: np.ndarray, r0: int, c0: int, stamp: np.ndarray, r: int, c: int) -> None:
    """Add the 9 x 5 x 5 ``stamp`` centred on tile (r, c) into ``planes``,
    whose first cell is tile (r0, c0), where the two overlap."""
    _, h, w = planes.shape
    a0, a1, b0, b1 = max(r - 2, r0), min(r + 3, r0 + h), max(c - 2, c0), min(c + 3, c0 + w)
    if a0 < a1 and b0 < b1:
        planes[:, a0 - r0 : a1 - r0, b0 - c0 : b1 - c0] += \
            stamp[:, a0 - r + 2 : a1 - r + 2, b0 - c + 2 : b1 - c + 2]


def build_dfs_weights() -> KernelStack:
    w2 = w_cells(5, [(2, 2)])  # the centre tap
    wa = w_cells(5, DIR_OFFSETS)  # the four neighbours
    wp = w_cells(5, DIR_OFFSETS, values=[1, 2, 3, 4])  # each neighbour's direction code
    w = np.zeros((N_HIDDEN, N_HIDDEN + 4, 5, 5), np.int64)

    # no self-tap: a routed tile is the start, or keeps the arrival that routed it
    w[ROUTE, IN_SOURCE] = w2
    w[ROUTE, IN_WALL] = -w2
    w[ROUTE, STACK] = -w2

    for ch, (i, j) in zip(ROUTE_DIRS, DIR_OFFSETS):
        wpd = W_PRIORITY[(i, j)]
        w[ch, ROUTE] = w_cells(5, [(i, j)]) + wpd
        w[ch, [IN_EMPTY, IN_SOURCE]] = -wpd  # the open tiles: the one-hot marks no target

    w[STACK, PEBBLE] = wa
    w[STACK, STACK] = w2
    w[STACK, IN_WALL] = -2 * w2
    w[STACK, ROUTE] = -2 * w2

    # kept: no run shows the code 1 below the pebble, but host code, not a local rule, clears it
    w[STACK_DIR, PEBBLE] = wp
    w[STACK_DIR, STACK_DIR] = w2
    # walls and routed tiles never hold a direction, so the inhibition must
    # outweigh any code (at most 4); 10 is the fifth-valued encoding's 2
    # scaled by 5, which keeps this channel exactly 5x that encoding
    w[STACK_DIR, IN_WALL] = -10 * w2
    w[STACK_DIR, ROUTE] = -10 * w2

    # only a stacked tile holds a rank, which counts its time on the stack:
    # without the self-tap every rank collapses and pops lose LIFO order
    w[STACK_RANK, STACK_RANK] = w2
    w[STACK_RANK, STACK] = w2
    return KernelStack(weights=w, bias=np.zeros(N_HIDDEN, np.int64))


DYNAMIC, STATIC = build_dfs_weights().split(N_HIDDEN)


@functools.cache
def _centre() -> KernelStack:
    """The dynamic stack's taps from every input but ROUTE and PEBBLE: the
    five centre taps, as the 1x1 stack a step convolves its window with."""
    w = DYNAMIC.weights.copy()
    w[:, [ROUTE, PEBBLE]] = 0
    return KernelStack(weights=w[:, :, 2:3, 2:3], bias=DYNAMIC.bias)


@functools.cache
def _stamps(dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The route's and the pebble's stamps, 9 x 5 x 5 in ``dtype``: the
    conv of a one-hot tile in ROUTE or PEBBLE, centred on the tile, which is
    that input's kernels flipped in both axes because conv2d correlates."""
    w = DYNAMIC.weights[:, :, ::-1, ::-1].astype(dtype)
    return _frozen(w[:, ROUTE].copy()), _frozen(w[:, PEBBLE].copy())


def initial_state(maze: Maze, start: tuple[int, int], horizon: int) -> DfsState:
    """The state of a run of at most ``horizon`` steps from ``start``, which
    the one-hot marks as the source."""
    # a rank grows by 1 per step from 0 while its tile is stacked, so ranks
    # stay below the horizon and their pre-activations below horizon + 2;
    # stored ranks lie in [-horizon, 0], and other pre-activations and the
    # base in [-10, 8].  Pop keys are int64 records.
    dtype = int_dtype(max(horizon + 2, 10))
    onehot = one_hot(Maze(walls=maze.walls, source=start)).astype(dtype)
    framed = np.pad(onehot, ((0, 0), (2, 2), (2, 2)))
    base = conv2d(framed, STATIC)[:, 2:-2, 2:-2]
    H, W = maze.walls.shape
    planes = np.zeros((N_HIDDEN, H, W), dtype)
    return DfsState(arrays=RunArrays(planes, base), active=((0, H), (0, W)))


def dfs_step(state: DfsState) -> DfsState:
    arrays, t, (_, H, W) = state.arrays, state.step, state.arrays.planes.shape
    if arrays.step != t:
        raise RuntimeError(f"the DFS state of step {t} is not its run's last, "
                           f"of step {arrays.step}; only the last state can be stepped")
    # only cells within reach 2 of the active box have changed conv inputs
    (b0, b1), (d0, d1) = state.active
    r0, r1, c0, c1 = max(b0 - 2, 0), min(b1 + 2, H), max(d0 - 2, 0), min(d1 + 2, W)
    window = arrays.planes[:, r0:r1, c0:c1]
    before = window.copy()
    before[STACK_RANK] += t * before[STACK]
    out = conv2d(before, _centre(), arrays.base[:, r0:r1, c0:c1])
    if state.pebble is not None:
        _stamp(out, r0, c0, _stamps(out.dtype)[1], *state.pebble)

    # pointwise activations, in place on the whole contiguous window
    dirs, route, stack = out[1:5], out[ROUTE], out[STACK:PEBBLE]
    step(dirs, out=dirs)  # the four ROUTE_DIRS
    np.add(route, np.maximum.reduce(dirs), out=route)
    step(route, out=route)
    relu(stack, out=stack)  # STACK, STACK_RANK, STACK_DIR

    # a tile re-added before being popped carries stack == 2 (at most one
    # pebble neighbours it, and a stack is 0 or 1 between steps)
    readded = np.maximum.reduce(out[STACK], axis=None) == 2
    # overwrite a re-added tile's old bookkeeping so it behaves as freshly
    # stacked (rank also picked up this step's increment, hence the extra +1)
    dbl = None
    if readded:
        dbl = out[STACK] == 2
        fix = before[STACK:PEBBLE] * dbl
        fix[STACK_RANK - STACK] += dbl
        out[STACK:PEBBLE] -= fix

    np.subtract(out[ROUTE], before[ROUTE], out=out[PEBBLE])
    # the route never shrinks, so the pebble marks the tiles the route just
    # reached.  Zero their stack bookkeeping: the route inhibition would clear
    # the stack and the code a step later, but no tap clears a rank.  Every
    # other route tile holds none: the inhibition outweighs any input, and a
    # tile off the stack gains no rank.
    rows, cols = out[PEBBLE].nonzero()
    pebbles = [(r0 + r, c0 + c) for r, c in zip(rows.tolist(), cols.tolist())]
    for r, c in pebbles:
        out[STACK:PEBBLE, r - r0, c - c0] = 0

    # A stacked tile ages, keeps its direction and is never routed, so its
    # key changes only when it is re-added or popped; other tiles change the
    # index only when their stack flips.
    changed = out != before
    moved = changed[STACK] if dbl is None else changed[STACK] | dbl
    stacked, tiles, keys = state.stacked, [], []
    rows, cols = moved.nonzero()
    for r, c in zip(rows.tolist(), cols.tolist()):
        p = (r0 + r) * W + c0 + c
        if before[STACK, r, c]:
            stacked = stacked[:, stacked[0] != p]
        if out[STACK, r, c]:
            tiles.append(p)
            keys.append(5 * (int(out[STACK_RANK, r, c]) - t - 1) + int(out[STACK_DIR, r, c]))
    if tiles:
        stacked = np.concatenate((stacked, [tiles, keys]), axis=1)

    popped = ()
    if not pebbles and stacked.shape[1]:
        # Stuck: pop the stacked tile with the least 5 * rank + direction:
        # the least rank, ties broken by direction priority.  Every stacked
        # tile's 5 * rank + direction is its key plus the same 5 * (t + 1).
        is_popped = stacked[1] == np.minimum.reduce(stacked[1])
        popped = tuple(divmod(p, W) for p in sorted(stacked[0, is_popped].tolist()))
        stacked = stacked[:, ~is_popped]
    if stacked is not state.stacked:
        _frozen(stacked)

    # write the window, the pops and the route stamps in place, ranks
    # stored as of step t + 1, and keep what they overwrite as the undo
    window[...] = out
    window[STACK_RANK] -= (t + 1) * out[STACK]
    saved = []
    for r, c in popped:
        saved.append(((r, c), arrays.planes[STACK:PEBBLE, r, c].copy()))
        arrays.planes[STACK:PEBBLE, r, c] = 0
    for r, c in pebbles:
        _stamp(arrays.base, 0, 0, _stamps(out.dtype)[0], r, c)
    arrays.step, arrays.undo = t + 1, (r0, c0, before, saved)

    changed[STACK_RANK] = False
    rows, cols = np.logical_or.reduce(changed, axis=0).nonzero()
    rows = [r0 + r for r in rows.tolist()] + [r for r, _ in popped]
    cols = [c0 + c for c in cols.tolist()] + [c for _, c in popped]
    # a step that changed nothing may keep any box: its successor only ages
    active = ((min(rows), max(rows) + 1), (min(cols), max(cols) + 1)) if rows else state.active
    return DfsState(arrays=arrays, active=active, step=t + 1, popped=popped,
                    pebble=pebbles[0] if pebbles else None, stacked=stacked)


# the two answers of ``drained``: the run's one copy halts, or none does
_HALTS, _RUNS = _frozen(np.zeros(1, np.intp)), _frozen(np.zeros(0, np.intp))


def drained(prev: DfsState, state: DfsState, copies: int) -> np.ndarray:
    """Halting rule of a canvas of one copy: the copy's position when no
    pebble, an empty stack and no pop this step, else no position.  A pop
    empties the stack one step before the popped tile's pebble appears, so a
    pop step never counts as termination."""
    done = state.step > 1 and state.pebble is None and not state.stacked.shape[1] and not state.popped
    return _HALTS if done else _RUNS


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
        if state.pebble is not None:
            trace.visit_order.append(state.pebble)
            trace.visit_steps.append(state.step)
        for tile in state.popped:
            trace.pop_events.append((state.step, tile))
        if observe is not None:
            observe(state)

    def read(state: DfsState, *_) -> None:
        trace.steps_used = state.step

    if len(run_canvas(dfs_step, initial_state(maze, start, max_steps), 1, drained, read,
                      max_steps, record)):
        raise MazeError(f"DFS did not terminate within {max_steps} steps")
    return trace
