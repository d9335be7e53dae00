"""The run loop of the automata.

Each automaton owns its step function and its halting rule; the loop
applies them, so every halting rule is written once.  ``observe`` sees every
state, the halting one included: trace export, rendering and the per-step
verification invariants all hang off it.

``run_canvas`` steps a canvas: copies of one automaton over mazes of one
shape, stacked along the rows of a single framed state, each copy's H rows
followed by one gutter row that its automaton holds at zero, as it holds its
frame's border.  Row 0 is the top border and the last copy's gutter is the
bottom border, so copy j's own frame is rows j (H + 1) to (j + 1) (H + 1)
inclusive, and a canvas of one copy is exactly a single run's frame.  A
single run is a canvas of one copy, so there is no second path; the DFS,
whose state has no frame, runs as one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

import numpy as np


def copy_frame(plane: np.ndarray, j: int, copies: int) -> np.ndarray:
    """Copy ``j``'s own frame of a canvas plane (C x rows x columns) of
    ``copies`` copies: its rows between the gutters above and below it, both
    included.  The plane itself for a canvas of one copy, otherwise a
    contiguous copy."""
    if copies == 1:
        return plane
    rows = (plane.shape[1] - 1) // copies  # a copy's H rows and its gutter
    return np.ascontiguousarray(plane[:, j * rows : (j + 1) * rows + 1])


def unchanged(prev: np.ndarray, frame: np.ndarray, plane: int, copies: int) -> np.ndarray:
    """Per copy of a canvas frame (C x rows x columns) of ``copies`` copies:
    the copy's rows of ``plane`` are those of ``prev``, the frame a step
    earlier.  The top border row belongs to no copy."""
    same = frame[plane, 1:] == prev[plane, 1:]
    return same.reshape(copies, -1).all(axis=1)


def _keep(frame: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The canvas frame with only the copies where ``keep`` (one bool per
    copy) holds, the top border row included, in one new array."""
    rows = np.repeat(keep, (frame.shape[1] - 1) // len(keep))
    return np.compress(np.concatenate(([True], rows)), frame, axis=1)


def run_canvas(step_fn: Callable, state: Any, copies: int, halted: Callable,
               read: Callable, horizon: int,
               observe: Callable | None = None) -> np.ndarray:
    """Step a canvas of ``copies`` copies until every copy has halted or
    ``horizon`` steps have run.  ``halted(prev, state, m)`` returns the
    positions (an int array) of the canvas's m copies that halt at this
    step, and ``read(state, m, at, ids)`` reads out the copies at positions
    ``at`` of the canvas's m, whose batch indices are ``ids``: each copy
    once, at its halting step, or at the last step if it never halts.
    Returns the batch indices of the copies that never halted.

    A read copy stays on the canvas, masked out, until at least half of the
    canvas has halted; then the halted copies' rows leave the ``frame`` and
    the ``const`` plane of the state together.  That is exact when a gutter
    row's constant plane holds it at zero whichever copies neighbour it,
    which each automaton's kernels guarantee.  A canvas of one copy never
    drops rows, since its one copy ends the run, so the loop never touches
    its state's planes: the DFS, whose state is unframed, runs so.  A step
    returns a fresh state, so ``prev`` needs no copy, and the canvas holds
    at most two frames."""
    ids = np.arange(copies)  # canvas copy j is batch copy ids[j]
    gone = np.zeros(copies, dtype=bool)  # canvas copy j halted and was read
    m, n_gone = copies, 0
    for _ in range(horizon):
        prev = state
        state = step_fn(prev)
        if observe is not None:
            observe(state)
        at = halted(prev, state, m)
        if n_gone:
            at = at[~gone[at]]
        if not len(at):
            continue
        read(state, m, at, ids[at])
        n_gone += len(at)
        if n_gone == m:
            return ids[:0]
        gone[at] = True
        # a read copy rides along until dropping the halted copies pays for
        # the copy of the rest
        if 2 * n_gone >= m:
            keep = ~gone
            state = replace(state, frame=_keep(state.frame, keep),
                            const=_keep(state.const, keep))
            ids, gone, m, n_gone = ids[keep], gone[keep], m - n_gone, 0
    at = (~gone).nonzero()[0]
    read(state, m, at, ids[at])
    return ids[at]
