"""The one run loop of the automata.

Each automaton owns its step function and its halting predicate; ``run``
applies them, so every halting rule is written once.  ``observe`` sees every
state, the halting one included: trace export, rendering and the per-step
verification invariants all hang off it.
"""

from __future__ import annotations

from typing import Any, Callable


def run(step_fn: Callable, state: Any, halted: Callable, horizon: int,
        observe: Callable | None = None) -> tuple[Any, bool]:
    """Step ``state`` until ``halted(prev, state)`` holds or ``horizon``
    steps have run; returns the last state and whether the run halted.  A
    step returns a fresh state, and a state stays readable until its
    successor is stepped, so ``prev`` needs no copy."""
    for _ in range(horizon):
        prev, state = state, step_fn(state)
        if observe is not None:
            observe(state)
        if halted(prev, state):
            return state, True
    return state, False
