import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca.bfs import run_bfs
from mazenca.extract import (
    DIR_CHANNELS,
    PATH,
    ExtractState,
    build_extract_weights,
    extract_step,
    run_extract,
)
from mazenca.extract import initial_state as extract_initial_state
from mazenca.grid import GenConfig, Maze, MazeError, generate_maze, parse_maze
from mazenca.oracle import Unreachable, shortest_path_union
from mazenca.tensor import conv2d
from sweep import sweep_mazes


def test_weight_shapes():
    ks = build_extract_weights()
    assert ks.weights.shape == (5, 8, 3, 3)
    assert ks.bias[0] == -1.0


def extract_mask(maze):
    return run_extract(run_bfs(maze)).mask


def test_corridor_extraction():
    maze = parse_maze("S...T")
    np.testing.assert_array_equal(extract_mask(maze), np.ones((1, 5), dtype=bool))


def test_open_square_extracts_both_staircases():
    d, union = shortest_path_union(parse_maze("S.\n.T"))
    np.testing.assert_array_equal(extract_mask(parse_maze("S.\n.T")), union)


def test_adjacent_endpoints():
    mask = extract_mask(parse_maze("ST"))
    assert mask.all()


def test_odd_distance_two_tile_meet():
    # d = 3: the floods meet on a doubly-flooded edge, not a single tile
    maze = parse_maze("S..T")
    np.testing.assert_array_equal(extract_mask(maze), np.ones((1, 4), dtype=bool))


def test_requires_met_flood():
    bfs = run_bfs(parse_maze("S#T"))
    with pytest.raises(MazeError):
        run_extract(bfs)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_extraction_equals_union_of_shortest_paths(seed):
    maze = generate_maze(GenConfig(width=8, height=8, seed=seed))
    _, union = shortest_path_union(maze)
    np.testing.assert_array_equal(extract_mask(maze), union)


def test_off_path_detour_excluded():
    # the top-row detour is 2 moves longer than the direct bottom row and
    # never enters the mask
    maze = parse_maze("....\nS..T")
    mask = extract_mask(maze)
    assert not mask[0].any()
    assert mask[1].all()


def test_step_matches_the_papers_per_channel_formula():
    # The step applies its activations in place to channel slices and sums
    # the channels in the state dtype.  Written out per channel, the paper's
    # form is: a sawtooth at -1 on each direction's pre-activation, the seed
    # step(flood_s + flood_t - 1), and the path step(seed + sum of dirs).
    # States are framed: random planes inside a zero border, and the
    # pre-activations are read from the interior.
    ks = build_extract_weights()
    for seed in range(20):
        maze = generate_maze(GenConfig(width=6 + seed % 7, height=5 + seed % 5, seed=seed))
        frozen = run_bfs(maze).final.frame
        const = extract_initial_state(frozen).const
        rng = np.random.default_rng(seed)
        interior = rng.integers(-2, 3, size=(5, maze.height, maze.width))
        hidden = np.pad(interior, ((0, 0), (1, 1), (1, 1))).astype(frozen.dtype)
        framed = conv2d(np.concatenate([hidden, frozen]).astype(np.int64), ks)
        pre = framed[:, 1:-1, 1:-1]
        dirs = [np.maximum(0, 1 - np.abs(pre[ch] + 1)) for ch in DIR_CHANNELS]
        seed_plane = (pre[PATH] > 0).astype(np.int64)
        path = (seed_plane + sum(dirs) > 0).astype(np.int64)
        out = extract_step(ExtractState(frame=hidden, const=const, step=3))
        assert out.step == 4 and out.hidden.dtype == frozen.dtype
        np.testing.assert_array_equal(out.hidden, np.stack([path, *dirs]))


def test_steps_used_is_reported():
    result = run_extract(run_bfs(parse_maze("S.....T")))
    assert result.steps_used >= 1


def test_meet_step_and_mask_match_oracle_across_shapes_and_densities():
    for i, maze in enumerate(sweep_mazes(600, 12, seed=42)):
        empties = [tuple(int(v) for v in t) for t in np.argwhere(~maze.walls)]
        if len(empties) < 2:
            continue
        rng = np.random.default_rng([42, i])
        source, target = (empties[k] for k in rng.choice(len(empties), 2, replace=False))
        maze = Maze(walls=maze.walls, source=source, target=target)
        bfs = run_bfs(maze)
        try:
            d, union = shortest_path_union(maze)
        except Unreachable:
            assert not bfs.met, str(maze.walls)
            continue
        assert bfs.meet_step == math.ceil(d / 2) + 1, str(maze.walls)
        np.testing.assert_array_equal(run_extract(bfs).mask, union, err_msg=str(maze.walls))
