from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import dfs
from mazenca.dfs import (
    N_HIDDEN,
    PEBBLE,
    ROUTE,
    STACK,
    STACK_DIR,
    STACK_RANK,
    build_dfs_weights,
    dfs_step,
    drained,
    initial_state,
    run_dfs,
)
from mazenca.grid import GenConfig, Maze, MazeError, generate_maze, one_hot, parse_maze
from mazenca.oracle import dfs_order, distance_map
from sweep import largest_component_start, sweep_mazes
from test_tensor import dfs_reference, naive_conv2d


def test_weight_shapes():
    ks = build_dfs_weights()
    assert ks.weights.shape == (9, 13, 5, 5)


def test_centre_taps_and_stamps_make_up_the_dynamic_stack():
    # every tap of the dynamic stack that does not read ROUTE or PEBBLE, the
    # two inputs a step adds as stamps, is a centre tap of the 1x1 stack the
    # step convolves its window with
    dynamic = build_dfs_weights().split(N_HIDDEN)[0].weights
    rest = dynamic.copy()
    rest[:, [ROUTE, PEBBLE]] = 0
    centre = rest[:, :, 2, 2].copy()
    rest[:, :, 2, 2] = 0
    assert not rest.any()
    ks = dfs._centre()
    assert ks.k == 1 and not ks.bias.any()
    np.testing.assert_array_equal(ks.weights[:, :, 0, 0], centre)
    assert len(ks.taps()) == 5 and len(ks.runs()) == 3


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_stamps_are_the_conv_of_a_one_hot_tile(dtype):
    # at every tile of a 4 x 6 grid, border tiles included, the route's and
    # the pebble's stamp is naive_conv2d of a one-hot plane at the tile, over
    # the whole grid and over a window of it
    dynamic = build_dfs_weights().split(N_HIDDEN)[0]
    H, W = 4, 6
    for channel, stamp in zip((ROUTE, PEBBLE), dfs._stamps(np.dtype(dtype))):
        for r in range(H):
            for c in range(W):
                x = np.zeros((N_HIDDEN, H, W))
                x[channel, r, c] = 1
                want = naive_conv2d(x, dynamic)
                planes = np.zeros((N_HIDDEN, H, W), dtype)
                dfs._stamp(planes, 0, 0, stamp, r, c)
                np.testing.assert_array_equal(planes, want, str((channel, r, c)))
                window = np.zeros((N_HIDDEN, 2, 3), dtype)
                dfs._stamp(window, 1, 2, stamp, r, c)
                np.testing.assert_array_equal(window, want[:, 1:3, 2:5], str((channel, r, c)))


def walls_only(text):
    maze = parse_maze(text)
    return Maze(walls=maze.walls)


def test_open_square_order():
    maze = walls_only("..\n..")
    assert run_dfs(maze, (0, 0)).visit_order == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_corridor_from_middle():
    maze = walls_only(".....")
    assert run_dfs(maze, (0, 2)).visit_order == \
        [(0, 2), (0, 3), (0, 4), (0, 1), (0, 0)]


def test_ranks_fit_the_narrowest_dtype_on_a_long_corridor():
    # From the second tile of a 1 x 123 corridor the first tile is stacked
    # at step 2 and popped only after the walk reaches the far end, so its
    # rank grows to 120.  A horizon of exactly the run's 125 steps (123
    # visits, one pop, the drained step) gives the bound 125 + 2 = 127, so
    # the planes are int8, and the rank must not wrap.
    n = 123
    planes = []
    trace = run_dfs(walls_only("." * n), (0, 1), max_steps=n + 2,
                    observe=lambda state: planes.append(state.hidden))
    assert trace.visit_order == [(0, c) for c in range(1, n)] + [(0, 0)]
    assert trace.steps_used == n + 2
    assert {hidden.dtype for hidden in planes} == {np.dtype(np.int8)}
    ranks = [int(hidden[STACK_RANK, 0, 0]) for hidden in planes]
    assert max(ranks) == n - 3 and min(ranks) == 0


def test_pop_after_dead_end():
    # down-first walk hits the dead end, then pops back to the stacked fork
    maze = walls_only("...\n.#.\n.#.")
    trace = run_dfs(maze, (0, 1))
    assert trace.visit_order == dfs_order(parse_maze("...\n.#.\n.#."), (0, 1))
    assert trace.pop_events  # at least one pop was needed


def test_final_pop_is_not_lost():
    # the last stacked tile is popped into an empty stack; the run must
    # still visit it before terminating
    maze = walls_only("...#\n#.#.\n.###\n##..")
    trace = run_dfs(maze, (0, 0))
    assert trace.visit_order == dfs_order(parse_maze("...#\n#.#.\n.###\n##.."), (0, 0))


def test_start_validation():
    with pytest.raises(MazeError):
        run_dfs(walls_only("#."), (0, 0))


@pytest.mark.parametrize("start", [(-1, 0), (0, -1), (3, 0), (9, 9)])
def test_start_outside_the_grid_is_rejected(start):
    # (-1, 0) would otherwise wrap and run from (2, 0)
    with pytest.raises(MazeError, match="outside"):
        run_dfs(walls_only("...\n...\n..."), start)


def test_visit_steps_increase():
    trace = run_dfs(walls_only("...\n..."), (0, 0))
    assert trace.visit_steps == sorted(trace.visit_steps)
    assert len(trace.visit_steps) == len(trace.visit_order) == 6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(4, 9))
def test_visit_order_matches_oracle(seed, size):
    maze = generate_maze(GenConfig(width=size, height=size, task="diameter", seed=seed))
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    assert run_dfs(maze, start).visit_order == dfs_order(maze, start)


def assert_step_timing(trace):
    """Visit k >= 1 is a pop exactly when its tile neighbours a tile visited
    before visit k - 1 (it was stacked then, and a stacked tile is never
    moved onto).  A move comes one step after the previous visit; a pop is
    recorded one step before its visit, two after the previous one."""
    order, steps = trace.visit_order, trace.visit_steps
    earlier, pops = set(), []
    for k in range(1, len(order)):
        r, c = order[k]
        is_pop = bool(earlier & {(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)})
        assert steps[k] - steps[k - 1] == (2 if is_pop else 1), (k, order[k])
        if is_pop:
            pops.append((steps[k] - 1, order[k]))
        earlier.add(order[k - 1])
    assert trace.pop_events == pops
    assert trace.steps_used == len(order) + len(pops) + 1


def test_visit_order_matches_oracle_across_shapes_and_densities():
    for i, maze in enumerate(sweep_mazes(300, 12, seed=41)):
        empties = np.argwhere(~maze.walls)
        start = tuple(int(v) for v in empties[i % len(empties)])
        trace = run_dfs(maze, start)
        assert trace.visit_order == dfs_order(maze, start), str(maze.walls)
        assert_step_timing(trace)


def test_visit_order_matches_oracle_at_the_benchmark_top_size():
    maze = generate_maze(GenConfig(width=64, height=64, task="diameter", wall_probability=0.3),
                         rng=np.random.default_rng([64, 3]))
    seen, largest = np.zeros(maze.walls.shape, dtype=bool), None
    for p in np.argwhere(~maze.walls):
        if not seen[tuple(p)]:
            component = distance_map(maze, tuple(int(v) for v in p)) >= 0
            seen |= component
            if largest is None or component.sum() > largest.sum():
                largest = component
    start = tuple(int(v) for v in np.argwhere(largest)[0])
    trace = run_dfs(maze, start)
    assert len(trace.visit_order) == largest.sum() > 2000
    assert trace.visit_order == dfs_order(maze, start)
    assert_step_timing(trace)


# (shape, wall probability, seed) of grids whose runs reach far along one
# axis or across a grid wider than the sweeps'
THIN_AND_WIDE = [((3, 137), 0.2, 1), ((137, 3), 0.2, 2), ((69, 67), 0.45, 3)]


def sweep_and_thin_and_wide_runs(n, seed):
    """(maze, start): ``n`` sweep mazes, each from one of its empty tiles,
    then the thin and wide grids, each from the first tile of its largest
    component."""
    for i, maze in enumerate(sweep_mazes(n, 12, seed=seed)):
        empties = np.argwhere(~maze.walls)
        yield maze, tuple(int(v) for v in empties[i % len(empties)])
    for shape, p, grid_seed in THIN_AND_WIDE:
        maze = Maze(walls=np.random.default_rng(grid_seed).random(shape) < p)
        yield maze, largest_component_start(maze)


def assert_records_match_planes(state, hidden):
    """The pebble and the stacked tiles with their pop keys, as the state
    records them, are what its planes ``hidden`` hold."""
    pebbles = [tuple(int(v) for v in p) for p in np.argwhere(hidden[PEBBLE])]
    assert state.pebble == (pebbles[0] if pebbles else None)
    tiles = np.flatnonzero(hidden[STACK])
    order = np.argsort(state.stacked[0])
    assert np.array_equal(state.stacked[0][order], tiles)
    rank, code = hidden[STACK_RANK].ravel()[tiles], hidden[STACK_DIR].ravel()[tiles]
    assert np.array_equal(state.stacked[1][order], 5 * (rank.astype(np.int64) - state.step) + code)


def assert_steps_match_whole_grid_steps(maze, start):
    """Each state of the run's planes and pops against the same state
    stepped with its active box widened to the whole grid, so every cell is
    recomputed, and its records against its planes."""
    boxed = []

    def observe(state):
        hidden = state.hidden
        assert_records_match_planes(state, hidden)
        boxed.append((state.step, hidden, state.popped))

    trace = run_dfs(maze, start, observe=observe)
    assert trace.visit_order == dfs_order(maze, start)
    whole = ((0, maze.height), (0, maze.width))
    state = initial_state(maze, start, 2 * int((~maze.walls).sum()))
    assert state.active == whole
    for t, hidden, popped in boxed:
        state = dfs_step(replace(state, active=whole))
        expected = state.hidden
        assert state.step == t
        assert expected.dtype == hidden.dtype
        assert np.array_equal(expected, hidden), t
        assert state.popped == popped, t
    return trace


def test_active_box_steps_match_whole_grid_steps():
    for i, maze in enumerate(sweep_mazes(1000, 12, seed=99)):
        empties = np.argwhere(~maze.walls)
        assert_steps_match_whole_grid_steps(maze, tuple(int(v) for v in empties[i % len(empties)]))


@pytest.mark.parametrize("shape, p, seed", THIN_AND_WIDE)
def test_steps_across_block_boundaries_match_whole_grid_steps(shape, p, seed):
    # runs whose active boxes travel far along one axis or across a grid
    # wider than the sweeps', checked as in the active-box test
    maze = Maze(walls=np.random.default_rng(seed).random(shape) < p)
    trace = assert_steps_match_whole_grid_steps(maze, largest_component_start(maze))
    assert len(trace.visit_order) > 64


@pytest.mark.parametrize("shape, p, seed", THIN_AND_WIDE)
def test_steps_across_block_boundaries_match_the_unframed_stack(shape, p, seed):
    # the thin and wide grids against naive_conv2d plus the per-channel
    # activations on the whole unframed state, which share no code with the
    # step's stamps, base or window
    maze = Maze(walls=np.random.default_rng(seed).random(shape) < p)
    start = largest_component_start(maze)
    states = []
    trace = run_dfs(maze, start,
                    observe=lambda state: states.append((state.hidden, state.popped)))
    assert len(trace.visit_order) > 64
    ks, onehot = build_dfs_weights(), one_hot(Maze(walls=maze.walls, source=start))
    prev = np.zeros((N_HIDDEN, *shape))
    for t, (hidden, popped) in enumerate(states, start=1):
        pre = naive_conv2d(np.concatenate([prev, onehot]), ks)
        want = dfs_reference(pre, prev, popped)
        np.testing.assert_array_equal(hidden, want, str(t))
        prev = hidden


def test_a_state_reads_the_same_one_step_late_and_no_later():
    # a tracer wrapped around dfs_step reads a state after its successor is
    # stepped.  Read so, one step late, each state's planes equal their copy
    # read while it was the run's last; two steps late, reading or stepping
    # it raises, and so does stepping any state but the run's last.
    outside = 0
    for maze, start in sweep_and_thin_and_wide_runs(300, 5):
        horizon = 2 * int((~maze.walls).sum())
        state, older = initial_state(maze, start, horizon), None
        current = state.hidden
        for _ in range(horizon):
            successor = dfs_step(state)
            np.testing.assert_array_equal(state.hidden, current, str(state.step))
            with pytest.raises(RuntimeError, match="last state"):
                dfs_step(state)
            if older is not None:
                for read in (lambda: older.hidden, lambda: dfs_step(older)):
                    with pytest.raises(RuntimeError):
                        read()
            (b0, b1), (d0, d1) = state.active
            for r, c in successor.popped:
                outside += not (b0 - 2 <= r < b1 + 2 and d0 - 2 <= c < d1 + 2)
            if len(drained(state, successor, 1)):
                break
            older, state = state, successor
            current = state.hidden
        else:
            raise AssertionError("the run did not drain")
    # pops of a tile outside the popping step's window, which the undo
    # restores apart from the window
    assert outside > 100


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_single_pebble_and_route_monotonicity(seed):
    maze = generate_maze(GenConfig(width=6, height=6, task="diameter", seed=seed))
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    routes = [np.zeros(maze.walls.shape)]

    def observe(state):
        assert np.count_nonzero(state.hidden[PEBBLE] > 0.0) <= 1
        route = state.hidden[ROUTE]
        assert not np.any((routes[-1] > 0.0) & (route <= 0.0))
        # route and stack stay disjoint at every observable state
        assert not np.any((route > 0.0) & (state.hidden[STACK] > 0.0))
        routes.append(route)

    trace = run_dfs(maze, start, observe=observe)
    assert len(routes) == trace.steps_used + 1


def test_nonterminating_budget_raises():
    maze = walls_only("......")
    with pytest.raises(MazeError):
        run_dfs(maze, (0, 0), max_steps=2)


def test_trace_is_deterministic():
    maze = generate_maze(GenConfig(width=8, height=8, task="diameter", seed=11))
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    a = run_dfs(maze, start)
    b = run_dfs(maze, start)
    assert a.visit_order == b.visit_order
    assert a.visit_steps == b.visit_steps
    assert a.pop_events == b.pop_events
