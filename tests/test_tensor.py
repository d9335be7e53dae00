import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import bfs, dfs, diameter, extract, loop
from mazenca.bfs import flood_dtype, run_bfs
from mazenca.dfs import initial_state as dfs_initial_state
from mazenca.dfs import run_dfs
from mazenca.extract import run_extract
from mazenca.grid import CH_EMPTY, CH_SOURCE, CH_WALL, Maze, MazeError, one_hot, parse_maze
from mazenca.tensor import (
    KernelStack,
    TensorError,
    conv2d,
    int_dtype,
    relu,
    sawtooth,
    step,
    w_cells,
)
from sweep import sweep_mazes


def naive_conv2d(x, kernels):
    """Direct reference used only to cross-check conv2d: on the C x H x W
    input zero-padded by (k-1)/2, each weight adds its input plane shifted
    by the weight's kernel cell to its output channel, in float64."""
    k = kernels.k
    pad = (k - 1) // 2
    _, H, W = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((kernels.out_channels, H, W)) + kernels.bias[:, None, None]
    for co, ci, i, j in np.argwhere(kernels.weights):
        out[co] += kernels.weights[co, ci, i, j] * xp[ci, i : i + H, j : j + W]
    return out


def frame(x, pad):
    """C x H x W planes in the conv's frame, a border of ``pad`` zero cells."""
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad)))


def framed_conv2d(x, kernels, base=None):
    """conv2d of C x H x W planes (and base) through the conv's frame: the
    interior of its output."""
    pad = (kernels.k - 1) // 2
    out = conv2d(frame(x, pad), kernels, None if base is None else frame(base, pad))
    return out[:, pad : out.shape[1] - pad, pad : out.shape[2] - pad]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([3, 5]))
def test_conv2d_matches_naive_reference(seed, k):
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=(3, 6, 5)).astype(np.int16)
    ks = KernelStack(
        weights=rng.integers(-2, 3, size=(2, 3, k, k)).astype(np.float64),
        bias=rng.integers(-1, 2, size=2).astype(np.float64),
    )
    np.testing.assert_array_equal(framed_conv2d(x, ks), naive_conv2d(x, ks))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([3, 5]),
       dtype=st.sampled_from([np.int8, np.int16, np.int32]))
def test_conv2d_integer_input_keeps_dtype_and_matches_float(seed, k, dtype):
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=(3, 6, 5)).astype(dtype)
    ks = KernelStack(
        weights=rng.integers(-2, 3, size=(2, 3, k, k)).astype(np.float64),
        bias=rng.integers(-1, 2, size=2).astype(np.float64),
    )
    out = framed_conv2d(x, ks)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, framed_conv2d(x.astype(np.float64), ks))


def run_stack(k, rng):
    """4 in x 4 out weights whose taps merge into long channel runs: kernel
    ``a`` on the channel diagonal (runs of 4), kernel ``b`` from each
    channel to the one before it (runs of 3), both with weights outside
    +-1, and single taps at the same kernel cells next to them."""
    c = k // 2
    a, b = np.zeros((k, k)), np.zeros((k, k))
    a[0, 0], a[c, c], a[k - 1, c] = 2, -3, 3
    b[c, 0], b[c, c] = -2, 2
    w = np.zeros((4, 4, k, k))
    for ch in range(4):
        w[ch, ch] = a
    for ch in range(3):
        w[ch, ch + 1] = b
    w[3, 0] = a
    w[0, 2] = b
    w[2, 0, c, c] = 1
    ks = KernelStack(weights=w, bias=rng.integers(-2, 3, size=4).astype(np.float64))
    assert sorted(m for _, _, m, *_ in ks.runs()) == [1] * 6 + [3] * 2 + [4] * 3
    return ks


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.float64])
def test_conv2d_matches_naive_reference_across_shapes(k, dtype):
    # every H, W in 1..7: single rows and columns and widths below the
    # kernel size, where the flat layout's wrap-around cells sit next to
    # every output cell.  Random 2-in/3-out stacks make channel runs of at
    # most 2; ``run_stack`` adds runs of 3 and 4.  Values stay within int8,
    # so each sum is exact.  Inputs and base are framed in zero borders, and
    # the interior of the framed output is checked.
    rng = np.random.default_rng([k, np.dtype(dtype).num])
    pad = (k - 1) // 2
    for H in range(1, 8):
        for W in range(1, 8):
            random_stack = KernelStack(
                weights=rng.integers(-2, 3, size=(3, 2, k, k)).astype(np.float64),
                bias=rng.integers(-2, 3, size=3).astype(np.float64),
            )
            for ks in (random_stack, run_stack(k, rng)):
                C_in, C_out = ks.in_channels, ks.out_channels
                x = frame(rng.integers(-1, 2, size=(C_in, H, W)).astype(dtype), pad)
                base = frame(rng.integers(-5, 6, size=(C_out, H, W)).astype(dtype), pad)
                x_kept, base_kept = x.copy(), base.copy()
                inner = np.s_[:, pad : pad + H, pad : pad + W]
                expect = naive_conv2d(x[inner], ks)
                for b, want in ((None, expect),
                                (base, expect - ks.bias[:, None, None] + base[inner])):
                    framed = conv2d(x, ks, b)
                    out = framed[inner]
                    assert out.dtype == dtype and out.shape == (C_out, H, W)
                    assert framed.flags.c_contiguous
                    assert not np.shares_memory(framed, x) and not np.shares_memory(framed, base)
                    np.testing.assert_array_equal(
                        out, want, err_msg=f"{C_in}->{C_out} {H}x{W} base={b is not None}"
                    )
                np.testing.assert_array_equal(x, x_kept)
                np.testing.assert_array_equal(base, base_kept)


def test_conv2d_integer_input_needs_integer_weights():
    weights = np.zeros((1, 1, 3, 3))
    weights[0, 0, 1, 1] = 0.5
    with pytest.raises(TensorError, match="integers"):
        KernelStack(weights=weights, bias=np.zeros(1))
    with pytest.raises(TensorError, match="integers"):
        KernelStack(weights=np.zeros((1, 1, 3, 3)), bias=np.full(1, -0.2))


def test_conv2d_zero_padding():
    # a single positive pixel against an all-ones 3x3 kernel: corners see
    # only in-bounds mass, so edge sums shrink -- padding contributes zero
    ks = KernelStack(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
    x = np.ones((1, 2, 2), dtype=np.int8)
    np.testing.assert_array_equal(framed_conv2d(x, ks), np.full((1, 2, 2), 4))


STACKS = [
    (bfs.build_bfs_weights, bfs.N_HIDDEN),
    (extract.build_extract_weights, extract.N_HIDDEN),
    (dfs.build_dfs_weights, dfs.N_HIDDEN),
]


@pytest.mark.parametrize("build, n_hidden", STACKS)
@pytest.mark.parametrize("shape", [(1, 13), (13, 1), (16, 16), (9, 14)])
def test_constant_plane_split_matches_the_whole_stack(build, n_hidden, shape):
    ks = build()
    dynamic, static = ks.split(n_hidden)
    assert not dynamic.bias.any()
    for seed in range(3):
        rng = np.random.default_rng([seed, n_hidden, *shape])
        x = rng.integers(-20, 21, size=(ks.in_channels, *shape)).astype(np.int32)
        pad = (ks.k - 1) // 2
        inner = np.s_[:, pad:-pad, pad:-pad]
        x = frame(x, pad)
        base = conv2d(x[n_hidden:], static)
        kept = base.copy()
        out = conv2d(x[:n_hidden], dynamic, base)
        assert out.dtype == np.int32
        # taps merge into different channel runs in the split stacks, which
        # reach the border rows between channels differently
        np.testing.assert_array_equal(out[inner], conv2d(x, ks)[inner])
        np.testing.assert_array_equal(base, kept)


def test_split_and_base_validation():
    ks = bfs.build_bfs_weights()
    for n in (0, ks.in_channels):
        with pytest.raises(TensorError, match="split"):
            ks.split(n)
    dynamic, _ = ks.split(bfs.N_HIDDEN)
    x = np.zeros((bfs.N_HIDDEN, 4, 5), dtype=np.int16)
    for base in (np.zeros((3, 4, 5), np.int8), np.zeros((3, 5, 4), np.int16)):
        with pytest.raises(TensorError, match="base"):
            conv2d(x, dynamic, base)


def test_kernel_validation():
    with pytest.raises(TensorError):
        KernelStack(weights=np.zeros((1, 1, 2, 2)), bias=np.zeros(1))
    with pytest.raises(TensorError):
        KernelStack(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(2))
    with pytest.raises(TensorError):
        KernelStack(weights=np.full((1, 1, 3, 3), np.nan), bias=np.zeros(1))
    with pytest.raises(TensorError):
        conv2d(np.zeros((2, 3, 3), dtype=np.int8),
               KernelStack(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1)))
    with pytest.raises(TensorError, match="interior"):
        conv2d(np.zeros((1, 2, 5), dtype=np.int8),
               KernelStack(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1)))


def test_step_is_strict():
    x = np.array([-6, 0, 1, 5], dtype=np.int16)
    out = np.empty_like(x)
    assert step(x, out=out) is out
    np.testing.assert_array_equal(out, [0, 0, 1, 1])
    assert step(x, out=x) is x and x.dtype == np.int16
    np.testing.assert_array_equal(x, [0, 0, 1, 1])


def test_relu():
    x = np.array([-2, 0, 3], dtype=np.int8)
    out = np.empty_like(x)
    assert relu(x, out=out) is out
    np.testing.assert_array_equal(out, [0, 0, 3])
    assert relu(x, out=x) is x and x.dtype == np.int8
    np.testing.assert_array_equal(x, [0, 0, 3])


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_sawtooth_is_integer_indicator(x, a):
    # the paper's triangular bump max(0, 1 - |x - a|)
    bump = max(0, 1 - abs(x - a))
    out = np.empty(1, np.int16)
    assert sawtooth(np.array([x], dtype=np.int16), a, out=out) is out
    assert out[0] == bump
    # written in place into a slice of channels, as the extraction step does
    for dtype in (np.int8, np.int16):
        planes = np.array([[x, a, 9], [a, x, x], [x + 1, a - 1, a]], dtype=dtype)
        kept = planes[0].copy()
        want = np.maximum(0, 1 - np.abs(planes[1:].astype(np.int64) - a))
        dirs = planes[1:]
        assert sawtooth(dirs, a, out=dirs) is dirs
        np.testing.assert_array_equal(planes[1:], want)
        np.testing.assert_array_equal(planes[0], kept)


def test_int_dtype_covers_each_automaton_bound():
    assert int_dtype(127) == np.int8 and int_dtype(128) == np.int16
    assert flood_dtype(1, 1) == np.int8
    assert flood_dtype(9, 14) == np.int8  # horizon 127
    assert flood_dtype(1, 127) == np.int16  # horizon 128
    assert flood_dtype(16, 16) == np.int16
    assert flood_dtype(128, 128) == np.int16
    assert flood_dtype(256, 256) == np.int32
    assert flood_dtype(2**15, 2**16) == np.int64
    for side, dtype in ((1, np.int8), (16, np.int16), (64, np.int16)):
        maze = Maze(walls=np.zeros((side, side), dtype=bool))
        # run_dfs's default horizon is twice the number of empty tiles
        state = dfs_initial_state(maze, (0, 0), 2 * side * side)
        assert state.hidden.dtype == state.arrays.base.dtype == dtype
    with pytest.raises(MazeError, match="overflow"):
        int_dtype(2**63)
    with pytest.raises(MazeError, match="overflow"):
        flood_dtype(2**32, 2**31)


def assert_zero_border(frame):
    border = frame.copy()
    border[:, 1:-1, 1:-1] = 0
    assert not border.any()


def flood_reference(pre):
    """The flood's activations on its pre-activations: step on the floods."""
    pre[bfs.FLOOD_S : bfs.FLOOD_T + 1] = pre[bfs.FLOOD_S : bfs.FLOOD_T + 1] > 0
    return pre


def dfs_reference(pre, prev, popped):
    """The DFS step on its whole-grid pre-activations, from the planes
    ``prev`` before it, with the state's recorded pops."""
    dirs = pre[1:5] > 0
    route = pre[dfs.ROUTE] + dirs.max(axis=0) > 0
    stack = np.maximum(pre[dfs.STACK : dfs.PEBBLE], 0)
    readded = stack[0] == 2
    stack -= prev[dfs.STACK : dfs.PEBBLE] * readded
    stack[dfs.STACK_RANK - dfs.STACK] -= readded
    pebble = route - prev[dfs.ROUTE]
    stack[:, pebble > 0] = 0
    for r, c in popped:
        stack[:, r, c] = 0
    return np.concatenate([route[None], dirs, stack, pebble[None]])


def test_framed_states_keep_a_zero_border_and_step_the_unframed_stack(monkeypatch):
    # Every state of every automaton over shapes and wall densities: the
    # frame's border and the canvas's gutter rows hold zero, and the interior
    # is one step of the whole stack, naive_conv2d plus the activations, on
    # the unframed state before it.  A DFS run stores no border, and its
    # states are read as the observer sees them.
    canvas, keeps, original, keep = [], {}, diameter.bfs_step, loop._keep

    def canvas_step(state):
        canvas.append((state, original(state)))
        return canvas[-1][1]

    def recording_keep(plane, live):
        # the frame and the constant plane leave together, after the step
        # canvas[len(canvas) - 1]
        keeps[len(canvas)] = live
        return keep(plane, live)

    monkeypatch.setattr(diameter, "bfs_step", canvas_step)
    monkeypatch.setattr(loop, "_keep", recording_keep)
    bfs_ks, extract_ks, dfs_ks = (bfs.build_bfs_weights(), extract.build_extract_weights(),
                                  dfs.build_dfs_weights())
    static = bfs_ks.split(bfs.N_HIDDEN)[1]
    for i, maze in enumerate(sweep_mazes(60, 12, seed=14)):
        H, W = maze.walls.shape
        empties = [tuple(int(v) for v in t) for t in np.argwhere(~maze.walls)]
        if len(empties) > 1:
            rng = np.random.default_rng([14, i])
            source, target = (empties[k] for k in rng.choice(len(empties), 2, replace=False))
            states = []
            result = run_bfs(Maze(walls=maze.walls, source=source, target=target),
                             observe=states.append)
            onehot = one_hot(result.maze)
            prev = np.zeros((bfs.N_HIDDEN, H, W))
            for state in states:
                assert_zero_border(state.frame)
                pre = naive_conv2d(np.concatenate([prev, onehot]), bfs_ks)
                np.testing.assert_array_equal(state.hidden, flood_reference(pre), str(i))
                prev = state.hidden
            if result.met:
                states = []
                run_extract(result, observe=states.append)
                prev = np.zeros((extract.N_HIDDEN, H, W))
                for state in states:
                    assert_zero_border(state.frame)
                    pre = naive_conv2d(np.concatenate([prev, result.final.hidden]), extract_ks)
                    dirs = pre[1:] == -1
                    path = (pre[extract.PATH] > 0) + dirs.sum(axis=0) > 0
                    np.testing.assert_array_equal(state.hidden, np.stack([path, *dirs]), str(i))
                    prev = state.hidden

        start = empties[i % len(empties)]
        states = []
        run_dfs(maze, start, observe=lambda state: states.append((state.hidden, state.popped)))
        onehot = one_hot(Maze(walls=maze.walls, source=start))
        prev = np.zeros((dfs.N_HIDDEN, H, W))
        for t, (hidden, popped) in enumerate(states, start=1):
            pre = naive_conv2d(np.concatenate([prev, onehot]), dfs_ks)
            want = dfs_reference(pre, prev, popped)
            np.testing.assert_array_equal(hidden, want, f"{i} {t}")
            prev = hidden

        # every step of the single-source canvas against the paper's
        # three-plane stack on the one-hot of the copies still on it: the
        # canvas holds its FLOOD_S and AGE planes, and its FLOOD_T stays 0
        canvas.clear()
        keeps.clear()
        diameter.source_ages([maze], np.array([(0, *t) for t in empties]))
        n = len(empties)
        onehot = np.zeros((4, n, H + 1, W))
        onehot[:, :, :H] = one_hot(Maze(walls=maze.walls))[:, None]
        onehot[CH_WALL, :, H] = 1
        onehot[CH_SOURCE, np.arange(n), *np.array(empties).T] = 1
        onehot[CH_EMPTY, np.arange(n), *np.array(empties).T] = 0
        two = [bfs.FLOOD_S, bfs.AGE]
        live = np.arange(n)
        for t, (prev, state) in enumerate(canvas):
            if t in keeps:
                live = live[keeps[t]]
            # the last copy's wall row is the frame's bottom border
            live_onehot = onehot[:, live].reshape(4, -1, W)[:, :-1]
            if t == 0 or t in keeps:
                np.testing.assert_array_equal(prev.const[:, 1:-1, 1:-1],
                                              naive_conv2d(live_onehot, static)[two])
            assert_zero_border(state.frame)
            assert len(state.frame) == bfs.SOURCE_PLANES
            assert not state.frame[:, 1:, 1:-1].reshape(bfs.SOURCE_PLANES, -1, H + 1, W)[:, :, H].any()
            paper = np.zeros((bfs.N_HIDDEN, *live_onehot.shape[1:]))
            paper[two] = prev.hidden
            want = flood_reference(naive_conv2d(np.concatenate([paper, live_onehot]), bfs_ks))
            assert not want[bfs.FLOOD_T].any(), str(i)
            np.testing.assert_array_equal(state.hidden, want[two], str(i))


def test_every_automaton_runs_on_integers(monkeypatch):
    maze = parse_maze("S.#\n..T\n#..")
    planes = []

    def observe(state):
        planes.extend(p for p in vars(state).values() if isinstance(p, np.ndarray))

    bfs = run_bfs(maze, observe=observe)
    run_extract(bfs, observe=observe)
    run_dfs(maze, (0, 0), observe=observe)
    original = diameter.bfs_step

    def canvas_step(state):
        observe(state)
        return original(state)

    monkeypatch.setattr(diameter, "bfs_step", canvas_step)
    diameter.diameter_nca(maze)
    assert len(planes) > 20
    # the DFS's boolean pop indicator is not a channel
    assert {p.dtype.kind for p in planes} <= {"i", "b"}
    assert all(p.dtype.kind == "i" for p in planes if p.ndim == 3)


def test_elementary_kernels():
    centre = w_cells(3, [(1, 1)])
    assert centre.dtype.kind == "i" and centre.shape == (3, 3)
    assert centre[1, 1] == 1 and centre.sum() == 1
    von_neumann = w_cells(3, [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
    assert von_neumann.sum() == 5 and von_neumann[0, 0] == 0
    assert w_cells(3, [(0, 2)])[0, 2] == 1 and w_cells(3, [(0, 2)]).sum() == 1
    assert not w_cells(5, []).any()
    codes = w_cells(5, [(1, 2), (2, 1), (3, 2), (2, 3)], values=[1, 2, 3, 4])
    assert codes.dtype.kind == "i" and codes.shape == (5, 5)
    assert [codes[1, 2], codes[2, 1], codes[3, 2], codes[2, 3]] == [1, 2, 3, 4]
    assert codes.sum() == 10


def kernel_digest() -> str:
    """sha256 of the shape and the int64 weights and bias of every stack the
    automata build, their split halves and the DFS's centre stack, and of
    the DFS stamps."""
    digest = hashlib.sha256()

    def add(a):
        a = np.asarray(a)
        digest.update(repr(a.shape).encode())
        digest.update(a.astype(np.int64).tobytes())

    stacks = [bfs.build_bfs_weights(), *bfs.flood_stacks(bfs.N_HIDDEN),
              *bfs.flood_stacks(bfs.SOURCE_PLANES), extract.build_extract_weights(),
              dfs.build_dfs_weights(), dfs._centre()]
    for ks in stacks:
        add(ks.weights)
        add(ks.bias)
    for stamp in dfs._stamps(np.dtype("int16")):
        add(stamp)
    return digest.hexdigest()


# pinned from the stacks before the dead taps were deleted, with exactly
# those taps zeroed (tests/test_local_rules.py proves each one dead)
KERNEL_SHA256 = "0699dd4446da47acc046573639cf8941b5bdfd7b3a40e5ed140f4356b4924fcd"


def test_kernels_are_unchanged():
    assert kernel_digest() == KERNEL_SHA256
