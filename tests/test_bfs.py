import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca.bfs import (
    AGE,
    FLOOD_S,
    FLOOD_T,
    N_HIDDEN,
    SOURCE_PLANES,
    bfs_step,
    build_bfs_weights,
    flood_canvas,
    flood_dtype,
    run_bfs,
)
from mazenca import diameter
from mazenca.grid import (CH_SOURCE, CH_TARGET, CH_WALL, GenConfig, Maze, MazeError,
                          generate_maze, one_hot, parse_maze)
from mazenca.oracle import distance_map, shortest_path_union
from sweep import sweep_mazes
from test_tensor import naive_conv2d


def test_weight_shapes():
    ks = build_bfs_weights()
    assert ks.weights.shape == (3, 7, 3, 3)
    assert np.all(ks.bias == 0.0)


def test_corridor_flood_and_meet():
    maze = parse_maze("S...T")
    result = run_bfs(maze)
    assert result.met
    # d = 4 moves; floods of radius t-1 meet in the middle at step 3
    assert result.meet_step == 3
    assert result.final.hidden[FLOOD_S][0, 2] == 1.0
    assert result.final.hidden[FLOOD_T][0, 2] == 1.0


def test_adjacent_endpoints_meet_at_step_two():
    result = run_bfs(parse_maze("ST"))
    assert result.met and result.meet_step == 2  # ceil(1/2) + 1


def test_unreachable_floods_never_meet():
    result = run_bfs(parse_maze("S#T"))
    assert not result.met
    assert result.meet_step is None


def test_unreachable_flood_halts_when_the_source_flood_settles():
    # a wall column splits the grid; the source flood covers its half by step
    # eccentricity + 1 and is seen unchanged one step later, long before the
    # H*W + 1 horizon of 901 steps
    walls = np.zeros((30, 30), dtype=bool)
    walls[:, 15] = True
    maze = Maze(walls=walls, source=(0, 0), target=(29, 29))
    steps = []
    result = run_bfs(maze, observe=lambda state: steps.append(state.step))
    assert not result.met and result.meet_step is None
    assert steps == list(range(1, distance_map(maze, maze.source).max() + 3))


def test_walls_block_flood():
    maze = parse_maze("S#.\n.#.\n..T")
    result = run_bfs(maze)
    dist = distance_map(maze, maze.source)
    support = result.final.hidden[FLOOD_S] > 0.0
    assert not support[0, 1]  # wall never floods
    assert not np.any(support & (dist < 0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_flood_support_equals_bfs_ball_each_step(seed):
    maze = generate_maze(GenConfig(width=7, height=7, seed=seed))
    ds = distance_map(maze, maze.source)
    dt = distance_map(maze, maze.target)
    d, _ = shortest_path_union(maze)
    steps = []

    def observe(state):
        t = state.step
        steps.append(t)
        np.testing.assert_array_equal(state.hidden[FLOOD_S] > 0.0,
                                      (ds >= 0) & (ds <= t - 1))
        np.testing.assert_array_equal(state.hidden[FLOOD_T] > 0.0,
                                      (dt >= 0) & (dt <= t - 1))
        assert state.hidden.dtype.kind == "i"

    result = run_bfs(maze, observe=observe)
    assert result.met and result.meet_step == math.ceil(d / 2) + 1
    assert steps == list(range(1, result.meet_step + 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_age_counts_steps_since_arrival(seed):
    maze = generate_maze(GenConfig(width=6, height=6, seed=seed))
    ds = distance_map(maze, maze.source)
    dt = distance_map(maze, maze.target)
    result = run_bfs(maze)
    t = result.meet_step
    # each flood contributes max(0, t - 1 - dist) to the age of a tile
    expect = np.zeros(maze.walls.shape)
    for dist in (ds, dt):
        expect += np.where(dist >= 0, np.maximum(0, t - 1 - dist), 0)
    np.testing.assert_array_equal(result.final.hidden[AGE], expect)


def test_single_source_fixpoint_age_is_eccentricity_plus_one():
    ages, far, _ = diameter.source_ages([parse_maze(".....")], np.array([[0, 0, 0]]))
    assert ages[0] == 5  # eccentricity 4 moves
    assert far[0].tolist() == [0, 4]


def test_single_source_ignores_real_endpoints(monkeypatch):
    # S and T are plain empty tiles to a single-source flood: it holds no
    # target flood, only FLOOD_S and its age, and the flood from the middle
    # covers the row
    states = []

    def canvas_step(state):
        states.append(bfs_step(state))
        return states[-1]

    monkeypatch.setattr(diameter, "bfs_step", canvas_step)
    ages, far, _ = diameter.source_ages([parse_maze("S.T")], np.array([[0, 0, 1]]))
    assert ages[0] == 2 and far[0].tolist() == [0, 0]
    assert all(len(state.frame) == len(state.const) == SOURCE_PLANES for state in states)
    assert np.all(states[-1].hidden[FLOOD_S][0] > 0)
    assert states[-1].hidden[-1][0].tolist() == [1, 2, 1]


def test_run_bfs_argument_validation():
    maze = parse_maze("..")
    with pytest.raises(MazeError):
        run_bfs(maze)  # no endpoints
    with pytest.raises(MazeError):
        run_bfs(parse_maze("S.T"), max_steps=0)


def test_budget_stops_before_meeting():
    result = run_bfs(parse_maze("S.......T"), max_steps=3)
    assert not result.met
    assert result.final.step == 3


def framed_one_hot(mazes):
    """4 x (n (H + 1) + 1) x (W + 2) one-hot of a canvas of the n mazes
    (one shape): each maze's one-hot in the frame, the border and the gutter
    row after each copy all walls."""
    H, W = mazes[0].walls.shape
    onehot = np.zeros((4, len(mazes) * (H + 1) + 1, W + 2))
    onehot[CH_WALL] = 1
    for j, maze in enumerate(mazes):
        onehot[:, 1 + j * (H + 1) : 1 + j * (H + 1) + H, 1:-1] = one_hot(maze)
    return onehot


@pytest.mark.parametrize("copies", [1, 3, 8])
def test_flood_canvas_is_the_papers_conv_of_the_framed_one_hot(copies):
    # over the whole frame, border and gutters included: a source-flood
    # canvas against the paper's FLOOD_S and AGE rows, a bidirectional one
    # against all three, on corridors, all-open and single-tile grids and
    # random grids, with seeded endpoints
    static = build_bfs_weights().split(N_HIDDEN)[1]
    shapes = {}
    for maze in sweep_mazes(60, 9, seed=24):
        shapes.setdefault(maze.walls.shape, []).append(maze.walls)
    for i, group in enumerate(shapes.values()):
        rng = np.random.default_rng([24, copies, i])
        singles, pairs = [], []
        for j in range(copies):
            walls = group[j % len(group)]
            empties = [tuple(int(v) for v in t) for t in np.argwhere(~walls)]
            picks = [empties[k] for k in rng.permutation(len(empties))[:2]]
            singles.append(Maze(walls=walls, source=picks[0]))
            if len(picks) == 2:
                pairs.append(Maze(walls=walls, source=picks[0], target=picks[1]))
        sources = (CH_SOURCE, np.array([maze.source for maze in singles]))
        floods = [(singles, [sources], SOURCE_PLANES, [FLOOD_S, AGE])]
        if len(pairs) == copies:
            ends = [(channel, np.array([getattr(maze, name) for maze in pairs]))
                    for channel, name in ((CH_SOURCE, "source"), (CH_TARGET, "target"))]
            floods.append((pairs, ends, N_HIDDEN, [FLOOD_S, FLOOD_T, AGE]))
        for mazes, ends, planes, rows in floods:
            canvas = flood_canvas(np.array([maze.walls for maze in mazes]), ends, planes)
            want = naive_conv2d(framed_one_hot(mazes), static)[rows]
            assert canvas.const.dtype == flood_dtype(*group[0].shape)
            np.testing.assert_array_equal(canvas.const, want, str(mazes[0].walls))
            assert canvas.frame.shape == want.shape and not canvas.frame.any()
