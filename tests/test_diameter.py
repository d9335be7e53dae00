import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import diameter
from mazenca.bfs import N_HIDDEN, build_bfs_weights
from mazenca.dfs import run_dfs
from mazenca.diameter import (
    diameter_nca,
    schedule_dijkstra_calls,
    source_ages,
)
from mazenca.grid import GenConfig, Maze, generate_maze, parse_maze
from mazenca.oracle import diameter_oracle, distance_map, shortest_path_union
from sweep import sweep_mazes


def walls_only(text):
    return Maze(walls=parse_maze(text).walls)


def oracle_path_max(maze):
    expected = np.zeros(maze.walls.shape, dtype=np.int64)
    for y, x in np.argwhere(~maze.walls):
        expected[y, x] = distance_map(maze, (int(y), int(x))).max() + 1
    return expected


def test_open_square():
    run = diameter_nca(walls_only("...\n...\n..."))
    assert run.diameter_len == 5
    assert run.best_endpoint == (0, 0)
    assert run.farthest == (2, 2)


def test_corridor():
    run = diameter_nca(walls_only("....."))
    assert run.diameter_len == 5
    assert run.witness.all()


def test_singleton_component():
    run = diameter_nca(walls_only(".#"))
    assert run.diameter_len == 1
    assert run.witness.sum() == 1 and run.witness[0, 0]


def test_componentwise_restarts():
    # two components; the right one is longer and wins
    run = diameter_nca(walls_only(".#..."))
    assert run.diameter_len == 3
    assert run.best_endpoint == (0, 2)
    # path_max is populated for every empty tile across both components
    assert run.path_max[0, 0] == 1
    assert (run.path_max[0, 2:] > 0).all()


def test_schedule_waits_match_visit_gaps():
    maze = walls_only("...\n.#.\n.#.")
    trace = run_dfs(maze, (0, 1))
    schedule = schedule_dijkstra_calls(trace)
    assert schedule[0][2] == 0  # first launch waits for nothing
    assert [tile for _, tile, _ in schedule] == trace.visit_order
    waits = [w for _, _, w in schedule]
    gaps = [b - a for a, b in zip(trace.visit_steps, trace.visit_steps[1:])]
    assert waits[1:] == gaps
    # launch steps are the running sum of the waits
    launches = [s for s, _, _ in schedule]
    assert launches == list(np.cumsum(waits))


def test_path_max_is_eccentricity_plus_one():
    maze = walls_only("...\n#..")
    run = diameter_nca(maze)
    for y, x in np.argwhere(~maze.walls):
        ecc = int(distance_map(maze, (int(y), int(x))).max())
        assert run.path_max[y, x] == ecc + 1


def test_path_max_matches_oracle_across_shapes_and_densities():
    # diameter_nca's path_max and endpoints come from source_ages over all
    # empty tiles; calling source_ages directly skips the witness runs.  Each
    # source's age is its eccentricity + 1, and its farthest tile is the
    # first row-major tile at the greatest distance from it.
    mazes = sweep_mazes(1000, 12, seed=31)
    assert len(mazes) >= 1000
    for maze in mazes:
        tiles = np.argwhere(~maze.walls)
        ages, far = source_ages(maze, tiles)
        dists = [distance_map(maze, (int(y), int(x))) for y, x in tiles]
        assert ages.tolist() == [int(d.max()) + 1 for d in dists], str(maze.walls)
        assert far.tolist() == [list(divmod(int(np.argmax(d)), maze.width)) for d in dists], \
            str(maze.walls)


@pytest.mark.parametrize("cells", [diameter.CANVAS_CELLS, 40])
def test_gutter_isolates_copies_on_open_grid(monkeypatch, cells):
    # on an all-open grid every copy's last row would flood into the next
    # copy's first row if the wall row between them were missing; 40 cells
    # force one copy per canvas run
    monkeypatch.setattr(diameter, "CANVAS_CELLS", cells)
    maze = Maze(walls=np.zeros((6, 9), dtype=bool))
    np.testing.assert_array_equal(diameter_nca(maze).path_max, oracle_path_max(maze))


def test_static_flood_taps_are_centre_taps():
    # the canvas drops a settled copy's rows from its constant plane instead
    # of rebuilding it, which is exact only while every plane cell depends on
    # its own one-hot cell alone
    _, static = build_bfs_weights().split(N_HIDDEN)
    assert static.taps()
    assert all((i, j) == (1, 1) for _, _, i, j, _ in static.taps())


def test_canvas_builds_its_constant_plane_once(monkeypatch):
    calls = []
    original = diameter.flood_plane

    def counting(onehot):
        calls.append(onehot.shape)
        return original(onehot)

    monkeypatch.setattr(diameter, "flood_plane", counting)
    maze = walls_only("....\n.#..\n....")
    tiles = np.argwhere(~maze.walls)
    ages, _ = source_ages(maze, tiles)
    # floods from different tiles settle at different steps, so the canvas
    # compacts several times
    assert len(set(ages.tolist())) > 1
    assert calls == [(4, len(tiles) * 4, 4)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(4, 8))
def test_matches_oracle_with_valid_witness(seed, size):
    maze = generate_maze(GenConfig(width=size, height=size, task="diameter", seed=seed))
    run = diameter_nca(maze)
    length, _ = diameter_oracle(maze)
    assert run.diameter_len == length
    if run.best_endpoint == run.farthest:
        assert length == 1
    else:
        pair = Maze(walls=maze.walls, source=run.best_endpoint, target=run.farthest)
        d, union = shortest_path_union(pair)
        assert d + 1 == length
        np.testing.assert_array_equal(run.witness, union)
