"""Dense integer convolution and activation engine for channel tensors.

Every cellular-automaton run works on a C x H x W integer tensor whose dtype
comes from one guard, ``int_dtype``: each automaton names the largest value
its state and pre-activations can reach, and gets the narrowest integer dtype
that holds it.  Kernel weights and biases are integers too, so every sum is
exact whatever its order, and ``conv2d``, ``step``, ``relu`` and ``sawtooth``
keep their input's dtype.

An automaton's conv input is its hidden channels followed by static inputs
that never change during a run (the maze one-hot, a frozen flood).  Because
convolution is linear, ``KernelStack.split`` separates the two: the static
channels are convolved once per run into a constant plane, and each step
convolves only the hidden channels, starting from that plane.

``conv2d`` is bound by numpy's per-call cost, not by arithmetic, at the
sizes the automata run: a step's conv is a few dozen array operations on a
few hundred to a few thousand cells.  So it makes each tap one contiguous
1-D operation.  The input is copied into a zero-bordered buffer with one
flat row per channel and row stride ``Wp = W + 2 * pad``; output cell
``(r, c)`` sits at flat index ``r * Wp + c``, and tap ``(i, j)`` reads the
slice that starts ``i * Wp + j`` later.  Each flat output row then carries
``2 * pad`` wrap-around cells, which read across the border and are dropped
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import MazeError


class TensorError(ValueError):
    pass


def int_dtype(bound: int) -> np.dtype:
    """Narrowest of int8/16/32/64 that holds every value in [-bound, bound]."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise MazeError(f"automaton values up to {bound} overflow int64")


@dataclass
class KernelStack:
    """out x in x k x k convolution weights with per-output-channel bias,
    both integer-valued.

    ``taps`` caches the nonzero entries in a fixed order (input channel,
    then kernel row, then kernel column, then output channel), so taps that
    read the same input cells are adjacent and convolution uses one
    deterministic summation order.
    """

    weights: np.ndarray
    bias: np.ndarray
    _taps: list | None = field(default=None, repr=False, compare=False)
    _splits: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise TensorError("weights must be out x in x k x k")
        if self.weights.shape[2] != self.weights.shape[3] or self.weights.shape[2] % 2 == 0:
            raise TensorError("kernel must be square with odd size")
        if self.bias.shape != (self.weights.shape[0],):
            raise TensorError("bias length must equal out_channels")
        for a in (self.weights, self.bias):
            if not (np.all(np.isfinite(a)) and np.array_equal(a, np.round(a))):
                raise TensorError("weights and bias must be finite integers")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    def taps(self):
        """Nonzero weights as (co, ci, i, j, w) with w a Python int."""
        if self._taps is None:
            idx = np.argwhere(self.weights.transpose(1, 2, 3, 0) != 0)
            self._taps = [
                (int(co), int(ci), int(i), int(j), int(self.weights[co, ci, i, j]))
                for ci, i, j, co in idx
            ]
        return self._taps

    def split(self, n: int) -> tuple[KernelStack, KernelStack]:
        """(dynamic, static) stacks at input channel ``n``: the first ``n``
        input channels with zero bias, and the remaining ones carrying the
        bias, so that for any x
        ``conv2d(x, self) == conv2d(x[:n], dynamic, conv2d(x[n:], static))``.
        Built once per ``n`` and cached."""
        if n not in self._splits:
            if not 0 < n < self.in_channels:
                raise TensorError(f"cannot split {self.in_channels} input channels at {n}")
            self._splits[n] = (
                KernelStack(weights=self.weights[:, :n], bias=np.zeros_like(self.bias)),
                KernelStack(weights=self.weights[:, n:], bias=self.bias),
            )
        return self._splits[n]


def conv2d(x: np.ndarray, kernels: KernelStack, base: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 convolution with zero padding of width (k-1)/2.  The output
    is a fresh C-contiguous array of the input's dtype: the bias, or ``base``
    (out x H x W, the input's dtype) in place of the bias, plus every tap.
    Neither ``x`` nor ``base`` is written.  Integer sums wrap modulo the
    dtype's range, so the result is exact whenever the final value fits."""
    C, H, W = x.shape
    if C != kernels.in_channels:
        raise TensorError(f"input has {C} channels, kernels expect {kernels.in_channels}")
    if base is not None and (base.shape != (kernels.out_channels, H, W) or base.dtype != x.dtype):
        raise TensorError(
            f"base is {base.dtype} {base.shape}, expected {x.dtype} "
            f"{(kernels.out_channels, H, W)}"
        )
    pad = (kernels.k - 1) // 2
    Wp = W + 2 * pad
    n = H * Wp
    # one spare row past the bottom border holds the 2 * pad cells that end
    # the last tap's slice
    padded = np.zeros((C, H + 2 * pad + 1, Wp), x.dtype)
    padded[:, pad : pad + H, pad : pad + W] = x
    flat = padded.reshape(C, -1)
    wide = np.zeros((kernels.out_channels, n), x.dtype)
    at, view = None, None
    for co, ci, i, j, w in kernels.taps():
        if at != (ci, i, j):
            at, o = (ci, i, j), i * Wp + j
            view = flat[ci, o : o + n]
        acc = wide[co]
        if w == 1:
            np.add(acc, view, out=acc)
        elif w == -1:
            np.subtract(acc, view, out=acc)
        else:
            np.add(acc, np.multiply(view, w), out=acc)
    out = wide.reshape(-1, H, Wp)[:, :, :W]
    return out + (kernels.bias.astype(x.dtype)[:, None, None] if base is None else base)


def step(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 where x > 0, else 0, in x's dtype (strict; an exactly-zero
    pre-activation means "no flooded neighbour" and must not fire).  Written
    into ``out``, which may be ``x`` itself, when given."""
    if out is None:
        return (x > 0).astype(x.dtype)
    return np.greater(x, 0, out=out)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out``, which may be ``x`` itself, when
    given."""
    return np.maximum(x, 0, out=out)


def sawtooth(x: np.ndarray, a: int) -> np.ndarray:
    """Triangular bump max(0, 1 - |x - a|): on integer inputs, the indicator
    of x == a."""
    return np.maximum(0, 1 - np.abs(x - a))


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
