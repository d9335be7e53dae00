"""Hand-coded path extraction over a frozen flood result.

The path channel seeds on tiles where both floods overlap, then grows along
the frozen age field: a tile joins the path when a path-marked neighbour's
age is exactly one less than its own, which walks the path outward from the
meeting point toward both endpoints and covers every shortest path at once.
The state has the frozen flood's integer dtype.  The frozen flood enters it
once, as the constant plane the kernels add to every step.  The state keeps
the conv's one-cell border (``tensor.conv2d``), as the frozen flood does, so
at a border cell the path pre-activation is -1 and a direction's is
2 AGE(nb) + PATH(nb) >= 0, never -1: the activations hold the border at 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bfs import BfsResult, flood_horizon
from .loop import run
from .grid import MazeError
from .tensor import KernelStack, conv2d, interior, sawtooth, step, w_center3, w_offset3

# hidden channel registry; directional channels named by the 3x3 kernel
# offset they watch (the neighbour a path activation arrives from)
PATH = 0
DIR_OFFSETS = [(0, 1), (1, 0), (1, 2), (2, 1)]  # up, left, right, down
DIR_CHANNELS = [1, 2, 3, 4]
N_HIDDEN = 5
# conv input order: 5 hidden channels then the frozen flood channels, which
# every run folds into its constant plane
IN_FLOOD_S, IN_FLOOD_T, IN_AGE = 5, 6, 7


@dataclass(frozen=True)
class ExtractState:
    frame: np.ndarray  # 5 x (H + 2) x (W + 2), the planes in a zero border
    const: np.ndarray  # 5 x (H + 2) x (W + 2), the terminated flood's share of every step
    step: int = 0

    hidden = property(interior)  # 5 x H x W


@dataclass(frozen=True)
class ExtractResult:
    mask: np.ndarray  # bool H x W
    steps_used: int


class ExtractionFailed(MazeError):
    pass


def build_extract_weights() -> KernelStack:
    w1 = w_center3()
    w = np.zeros((N_HIDDEN, 8, 3, 3))
    bias = np.zeros(N_HIDDEN)
    w[PATH, IN_FLOOD_S] = w1
    w[PATH, IN_FLOOD_T] = w1
    bias[PATH] = -1.0
    for ch, (i, j) in zip(DIR_CHANNELS, DIR_OFFSETS):
        wij = w_offset3(i, j)
        w[ch, IN_AGE] = 2.0 * (wij - w1)
        w[ch, PATH] = wij
    return KernelStack(weights=w, bias=bias)


@functools.cache
def _weights() -> KernelStack:
    return build_extract_weights()


def initial_state(bfs_frozen: np.ndarray) -> ExtractState:
    _, Hp, Wp = bfs_frozen.shape  # the frozen flood's frame
    # the frozen flood met by step ceil((H*W-1)/2)+1, so its ages are at most
    # ceil((H*W-1)/2) and the 2*dage +- 1 pre-activations stay within
    # +-(H*W+1), the bound of its dtype (bfs.flood_dtype)
    frame = np.zeros((N_HIDDEN, Hp, Wp), bfs_frozen.dtype)
    return ExtractState(frame=frame, const=conv2d(bfs_frozen, _weights().split(N_HIDDEN)[1]))


def extract_step(state: ExtractState) -> ExtractState:
    out = conv2d(state.frame, _weights().split(N_HIDDEN)[0], state.const)
    dirs, path = out[DIR_CHANNELS[0] : DIR_CHANNELS[-1] + 1], out[PATH]
    sawtooth(dirs, -1, out=dirs)
    # The path combines the overlap seed with the directional acceptances so
    # seeds survive the first step (a bare sum of directions would erase a
    # single-tile meet).
    step(path, out=path)  # the seed, step(flood_s + flood_t - 1)
    step(out.sum(axis=0, dtype=out.dtype), out=path)  # step(seed + sum of dirs)
    return ExtractState(frame=out, const=state.const, step=state.step + 1)


def path_fixpoint(prev: ExtractState, state: ExtractState) -> bool:
    """Halting rule: the path channel stopped changing."""
    return bool((state.frame[PATH] == prev.frame[PATH]).all())


def run_extract(
    bfs: BfsResult, observe: Callable[[ExtractState], object] | None = None
) -> ExtractResult:
    """Grow the path to its fixpoint; ``observe`` sees every state, the
    fixpoint state included.  ``steps_used`` is the step of the last change,
    one before the fixpoint is detected."""
    if not bfs.met:
        raise MazeError("extraction needs a met flood result")
    maze = bfs.maze
    horizon = flood_horizon(maze.height, maze.width)
    state = initial_state(bfs.final.frame)
    state, done = run(extract_step, state, path_fixpoint, horizon, observe)
    if not done:
        raise MazeError(f"no path fixpoint within {horizon} steps")
    mask = state.hidden[PATH] > 0
    if not (mask[maze.source] and mask[maze.target]):
        raise ExtractionFailed("path fixpoint does not cover source and target")
    return ExtractResult(mask=mask, steps_used=state.step - 1)
