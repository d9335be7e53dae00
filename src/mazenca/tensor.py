"""Dense convolution and activation engine for channel tensors.

The cellular-automaton pipelines run on C x H x W tensors: float64 for the
flood, extraction and DFS runs, and a narrow integer dtype for the diameter
canvas.  Values on the logical channels stay exactly representable (small
integers and fifths), so no tolerances are needed inside the automata
themselves.  Integer input keeps its dtype through ``conv2d`` and ``step``;
any other input computes in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TensorError(ValueError):
    pass


@dataclass
class KernelStack:
    """out x in x k x k convolution weights with per-output-channel bias.

    ``taps`` caches the nonzero entries in a fixed order (output channel,
    then input channel, then kernel row, then kernel column) so convolution
    uses one deterministic summation order.
    """

    weights: np.ndarray
    bias: np.ndarray
    _taps: list | None = field(default=None, repr=False, compare=False)
    _int_taps: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise TensorError("weights must be out x in x k x k")
        if self.weights.shape[2] != self.weights.shape[3] or self.weights.shape[2] % 2 == 0:
            raise TensorError("kernel must be square with odd size")
        if not np.all(np.isfinite(self.weights)):
            raise TensorError("weights must be finite")
        if self.bias.shape != (self.weights.shape[0],):
            raise TensorError("bias length must equal out_channels")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    def taps(self, integer: bool = False):
        """Nonzero weights as (co, ci, i, j, w); ``integer`` gives each w
        as a Python int, for integer-valued stacks only."""
        if self._taps is None:
            idx = np.argwhere(self.weights != 0.0)
            self._taps = [
                (int(co), int(ci), int(i), int(j), float(self.weights[co, ci, i, j]))
                for co, ci, i, j in idx
            ]
        if not integer:
            return self._taps
        if self._int_taps is None:
            if not all(np.array_equal(a, np.round(a)) for a in (self.weights, self.bias)):
                raise TensorError("integer input needs integer-valued weights and bias")
            self._int_taps = [(co, ci, i, j, int(w)) for co, ci, i, j, w in self._taps]
        return self._int_taps


def zeros_kernel(out_channels: int, in_channels: int, k: int) -> KernelStack:
    return KernelStack(
        weights=np.zeros((out_channels, in_channels, k, k), dtype=np.float64),
        bias=np.zeros(out_channels, dtype=np.float64),
    )


def _is_integer(x: np.ndarray) -> bool:
    return x.dtype.kind in "iu"  # np.issubdtype costs more than a small step()


def conv2d(x: np.ndarray, kernels: KernelStack) -> np.ndarray:
    """Stride-1 convolution with zero padding of width (k-1)/2.

    Integer input gives output of the same dtype, with the weights applied
    as integers; the caller's dtype must hold every sum.  Any other input
    gives float64 output."""
    if x.shape[0] != kernels.in_channels:
        raise TensorError(
            f"input has {x.shape[0]} channels, kernels expect {kernels.in_channels}"
        )
    _, H, W = x.shape
    pad = (kernels.k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    integer = _is_integer(x)
    bias = kernels.bias.astype(x.dtype if integer else np.float64)
    out = np.repeat(bias[:, None, None], H, axis=1).repeat(W, axis=2)
    for co, ci, i, j, w in kernels.taps(integer):
        out[co] += w * xp[ci, i : i + H, j : j + W]
    return out


def step(x: np.ndarray) -> np.ndarray:
    """1 where x > 0, else 0 (strict; an exactly-zero pre-activation means
    "no flooded neighbour" and must not fire)."""
    return (x > 0).astype(x.dtype if _is_integer(x) else np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sawtooth(x: np.ndarray, a: int) -> np.ndarray:
    """Triangular bump max(0, 1 - |x - a|): on integer inputs, the indicator
    of x == a."""
    return np.maximum(0.0, 1.0 - np.abs(x - a))


def assert_integer_valued(x: np.ndarray, tol: float = 1e-9) -> None:
    if np.abs(x - np.round(x)).max() >= tol:
        raise TensorError("channel expected to be integer-valued")


# elementary 3x3 weight matrices

def w_center3() -> np.ndarray:
    m = np.zeros((3, 3))
    m[1, 1] = 1.0
    return m


def w_von_neumann() -> np.ndarray:
    m = np.zeros((3, 3))
    for i, j in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)):
        m[i, j] = 1.0
    return m


def w_offset3(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m
