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

``extract_batch`` extracts a batch of same-shape met floods as copies of one
canvas (``loop.run_canvas``), their frozen frames stacked so that each
copy's bottom border is the gutter row above the next copy.  A gutter row
is a border to both of its neighbours, and the same bounds hold it at 0
whichever copies neighbour it, so copies never meet and a copy's frame is
its single run's.  A copy at its path fixpoint stays there, so it is read
at its fixpoint step and rides along until the canvas drops it.
``run_extract`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bfs import BfsResult, flood_horizon
from .loop import run_canvas, unchanged
from .grid import MazeError
from .tensor import KernelStack, conv2d, interior, sawtooth, step, w_cells

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
    w1 = w_cells(3, [(1, 1)])  # the centre
    w = np.zeros((N_HIDDEN, 8, 3, 3), np.int64)
    bias = np.zeros(N_HIDDEN, np.int64)
    w[PATH, IN_FLOOD_S] = w1
    w[PATH, IN_FLOOD_T] = w1
    bias[PATH] = -1
    for ch, (i, j) in zip(DIR_CHANNELS, DIR_OFFSETS):
        wij = w_cells(3, [(i, j)])  # the neighbour the direction watches
        w[ch, IN_AGE] = 2 * (wij - w1)
        w[ch, PATH] = wij
    return KernelStack(weights=w, bias=bias)


DYNAMIC, STATIC = build_extract_weights().split(N_HIDDEN)


def initial_state(bfs_frozen: np.ndarray) -> ExtractState:
    """Extraction canvas over ``bfs_frozen``, the frozen floods' frames
    stacked along the rows (``extract_batch``)."""
    # the frozen floods met by step ceil((H*W-1)/2)+1, so their ages are at
    # most ceil((H*W-1)/2) and the 2*dage +- 1 pre-activations stay within
    # +-(H*W+1), the bound of their dtype (bfs.flood_dtype)
    _, Hp, Wp = bfs_frozen.shape
    frame = np.zeros((N_HIDDEN, Hp, Wp), bfs_frozen.dtype)
    return ExtractState(frame=frame, const=conv2d(bfs_frozen, STATIC))


def extract_step(state: ExtractState) -> ExtractState:
    out = conv2d(state.frame, DYNAMIC, state.const)
    dirs, path = out[DIR_CHANNELS[0] : DIR_CHANNELS[-1] + 1], out[PATH]
    sawtooth(dirs, -1, out=dirs)
    # The path combines the overlap seed with the directional acceptances so
    # seeds survive the first step (a bare sum of directions would erase a
    # single-tile meet).
    step(path, out=path)  # the seed, step(flood_s + flood_t - 1)
    step(out.sum(axis=0, dtype=out.dtype), out=path)  # step(seed + sum of dirs)
    return ExtractState(frame=out, const=state.const, step=state.step + 1)


def path_fixpoint(prev: ExtractState, state: ExtractState, copies: int) -> np.ndarray:
    """Halting rule: the positions of the copies of a canvas of ``copies``
    copies whose path channel stopped changing."""
    return unchanged(prev.frame, state.frame, PATH, copies).nonzero()[0]


def extract_batch(
    floods: Sequence[BfsResult], observe: Callable[[ExtractState], object] | None = None
) -> list[ExtractResult]:
    """``run_extract`` of every flood in ``floods`` (met floods over mazes
    of one shape), as copies of one canvas; each copy's result is that of
    its own single run, and the batch raises what the first raising copy's
    single run raises.  ``observe`` sees every canvas state."""
    if not floods:
        return []
    H, W = floods[0].maze.walls.shape
    for bfs in floods:
        if not bfs.met:
            raise MazeError("extraction needs a met flood result")
        if bfs.maze.walls.shape != (H, W):
            raise MazeError("an extraction batch needs floods of one shape")
    horizon = flood_horizon(H, W)
    # each frozen frame's top border row is the gutter below the copy before
    frozen = np.concatenate([floods[0].final.frame] + [bfs.final.frame[:, 1:] for bfs in floods[1:]],
                            axis=1)
    results: list[ExtractResult] = [None] * len(floods)

    def read(state: ExtractState, m: int, at: np.ndarray, ids: np.ndarray) -> None:
        for j, i in zip(at.tolist(), ids.tolist()):
            mask = state.frame[PATH, j * (H + 1) + 1 : (j + 1) * (H + 1), 1:-1] > 0
            results[i] = ExtractResult(mask=mask, steps_used=state.step - 1)

    left = run_canvas(extract_step, initial_state(frozen), len(floods), path_fixpoint, read,
                      horizon, observe)
    if len(left):
        raise MazeError(f"no path fixpoint within {horizon} steps")
    for bfs, result in zip(floods, results):
        if not (result.mask[bfs.maze.source] and result.mask[bfs.maze.target]):
            raise ExtractionFailed("path fixpoint does not cover source and target")
    return results


def run_extract(
    bfs: BfsResult, observe: Callable[[ExtractState], object] | None = None
) -> ExtractResult:
    """Grow the path to its fixpoint; ``observe`` sees every state, the
    fixpoint state included.  ``steps_used`` is the step of the last change,
    one before the fixpoint is detected.  A batch of one."""
    return extract_batch([bfs], observe)[0]
