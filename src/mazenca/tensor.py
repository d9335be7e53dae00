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
channels give a constant plane once per run (``bfs.flood_canvas`` looks the
flood's up), and each step convolves only the hidden channels, from it.

``conv2d`` is bound by numpy's per-call cost, not by arithmetic, at the
sizes the automata run: a step's conv is a few dozen array operations on a
few hundred to a few thousand cells.  So each run of taps is one contiguous
1-D operation, on states stored in the conv's frame: each plane keeps a
border of ``pad = (k - 1) // 2`` zero cells, so its row stride is
``Wp = W + 2 * pad`` and its channel stride ``L = (H + 2 * pad) * Wp``, and
tap ``(i, j)`` from input channel ``ci`` for the output cell at flat index
``f`` of its channel reads ``ci * L + f + (i - pad) * Wp + j - pad``.
Because every channel has the same stride, taps with the same kernel cell
and weight from input channels ``ci, ci + 1, ...`` to output channels
``co, co + 1, ...`` form a run (``KernelStack.runs``) that is one add
spanning all its channels.  An add also reaches the border columns each
flat row wraps through and the border rows between channels, so each
automaton's activations must return its border to zero: its constant plane
holds the border below every threshold they fire at.

The activations take a required ``out=``, so a step applies each one once,
in place, to a slice of consecutive channels of the conv output.  Each
automaton writes its weights from the elementary matrices of ``w_cells``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import MazeError


class TensorError(ValueError):
    pass


# input shapes whose conv plans a KernelStack keeps.  The DFS windows take
# about 140 shapes over the benchmark's five mazes of 16^2 to 64^2, and a
# plan of its 3 runs takes about 0.8 KB.
PLANS = 256


def int_dtype(bound: int) -> np.dtype:
    """Narrowest of int8/16/32/64 that holds every value in [-bound, bound]."""
    # the bits' own bound, not np.iinfo, which costs microseconds a run
    for bits in (8, 16, 32, 64):
        if bound < 1 << (bits - 1):
            return np.dtype(f"int{bits}")
    raise MazeError(f"automaton values up to {bound} overflow int64")


@dataclass
class KernelStack:
    """out x in x k x k convolution weights with per-output-channel bias,
    both integer-valued.

    ``taps`` caches the nonzero entries in a fixed order (input channel,
    then kernel row, then kernel column, then output channel).  ``runs``
    caches them merged into channel runs, and ``plan`` lays the runs out for
    one input shape; ``conv2d`` adds them in that one fixed order.
    ``split`` caches nothing: each automaton splits its stack once and keeps
    the two halves.
    """

    weights: np.ndarray
    bias: np.ndarray
    _taps: list | None = field(default=None, repr=False, compare=False)
    _runs: list | None = field(default=None, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

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

    def runs(self):
        """The taps merged into channel runs, as (co, ci, m, i, j, w): weight
        w at kernel cell (i, j) from input channels ci .. ci + m - 1 to output
        channels co .. co + m - 1, each run as long as the taps allow.  Runs
        that read the same input cells are adjacent."""
        if self._runs is None:
            runs = []
            # taps of one (i, j, w, co - ci) in ascending ci: a tap one
            # channel past the end of the last run extends it
            for co, ci, i, j, w in sorted(self.taps(), key=lambda t: (*t[2:], t[0] - t[1], t[1])):
                if runs:
                    co0, ci0, m, *cell = runs[-1]
                    if cell == [i, j, w] and (co0 + m, ci0 + m) == (co, ci):
                        runs[-1] = (co0, ci0, m + 1, i, j, w)
                        continue
                runs.append((co, ci, 1, i, j, w))
            self._runs = sorted(runs, key=lambda r: (r[1], r[2], r[3], r[4], r[0]))
        return self._runs

    def plan(self, Hp: int, Wp: int) -> list:
        """``runs`` laid out for an Hp x Wp framed plane in ``conv2d``'s flat
        layout, as (input slice, output slice, w); the input slice is None
        where a run reads the same cells as the run before it.  The last
        PLANS plans made are cached."""
        plan = self._plans.get((Hp, Wp))
        if plan is None:
            pad = (self.k - 1) // 2
            # from the first interior cell to the last
            L, n, first = Hp * Wp, (Hp - 2 * pad - 1) * Wp + Wp - 2 * pad, pad * Wp + pad
            plan, at = [], None
            for co, ci, m, i, j, w in self.runs():
                span, start = (m - 1) * L + n, ci * L + i * Wp + j
                src = None if at == (ci, m, i, j) else slice(start, start + span)
                at = (ci, m, i, j)
                plan.append((src, slice(co * L + first, co * L + first + span), w))
            if len(self._plans) == PLANS:
                del self._plans[next(iter(self._plans))]
            self._plans[Hp, Wp] = plan
        return plan

    def split(self, n: int) -> tuple[KernelStack, KernelStack]:
        """(dynamic, static) stacks at input channel ``n``: the first ``n``
        input channels with zero bias, and the remaining ones carrying the
        bias, so that for any x
        ``conv2d(x, self) == conv2d(x[:n], dynamic, conv2d(x[n:], static))``."""
        if not 0 < n < self.in_channels:
            raise TensorError(f"cannot split {self.in_channels} input channels at {n}")
        return (KernelStack(weights=self.weights[:, :n], bias=np.zeros_like(self.bias)),
                KernelStack(weights=self.weights[:, n:], bias=self.bias))


def conv2d(x: np.ndarray, kernels: KernelStack, base: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 zero-padded convolution in the conv's frame: ``x`` is an
    H x W interior in a border of (k-1)/2 zero cells.  The output is a fresh
    C-contiguous array of the same frame and dtype: the bias, or ``base`` in
    place of the bias, plus every tap.  Its interior is the convolution of
    ``x``'s interior; its border is left as the taps leave it.  Neither ``x``
    nor ``base`` is written.  Integer sums wrap modulo the dtype's range, so
    the result is exact whenever the final value fits."""
    C, Hp, Wp = x.shape
    if C != kernels.in_channels:
        raise TensorError(f"input has {C} channels, kernels expect {kernels.in_channels}")
    if min(Hp, Wp) < kernels.k:
        raise TensorError(f"a {Hp} x {Wp} frame has no interior for k = {kernels.k}")
    shape = (kernels.out_channels, Hp, Wp)
    if base is None:
        out = np.zeros(shape, x.dtype) + kernels.bias.astype(x.dtype)[:, None, None]
    elif base.shape != shape or base.dtype != x.dtype:
        raise TensorError(f"base is {base.dtype} {base.shape}, expected {x.dtype} {shape}")
    else:
        out = base.copy()
    flat, wide = x.reshape(-1), out.reshape(-1)
    view = None
    for src, at, w in kernels.plan(Hp, Wp):
        if src is not None:
            view = flat[src]
        acc = wide[at]
        if w == 1:
            np.add(acc, view, out=acc)
        elif w == -1:
            np.subtract(acc, view, out=acc)
        else:
            np.add(acc, np.multiply(view, w), out=acc)
    return out


def interior(state) -> np.ndarray:
    """A view of the C x H x W interior of a state's 3 x 3 conv ``frame``."""
    return state.frame[:, 1:-1, 1:-1]


def step(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 where x > 0, else 0, written into ``out``, which may be ``x``
    itself (strict; an exactly-zero pre-activation means "no flooded
    neighbour" and must not fire)."""
    return np.greater(x, 0, out=out)


def relu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """max(x, 0), written into ``out``, which may be ``x`` itself."""
    return np.maximum(x, 0, out=out)


def sawtooth(x: np.ndarray, a: int, out: np.ndarray) -> np.ndarray:
    """The paper's triangular bump max(0, 1 - |x - a|), written into
    ``out``, which may be ``x`` itself.  On the integers it is the indicator
    of x == a, and is computed as that."""
    return np.equal(x, a, out=out)


def w_cells(k: int, cells, values=None) -> np.ndarray:
    """An elementary k x k weight matrix, integer: ``values`` (1 by default)
    at the kernel cells ``cells``, 0 elsewhere."""
    m = np.zeros((k, k), np.int64)
    for at, (i, j) in enumerate(cells):
        m[i, j] = 1 if values is None else values[at]
    return m
