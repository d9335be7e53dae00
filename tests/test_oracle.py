import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import oracle
from mazenca.grid import GenConfig, Maze, MazeError, generate_maze, parse_maze
from mazenca.oracle import (
    Unreachable,
    canonical_shortest_path,
    dfs_order,
    diameter_oracle,
    distance_map,
    normalized_accuracy,
    reachable,
    shortest_path_union,
)
from sweep import sweep_mazes


def test_distance_map_corridor():
    maze = parse_maze(".....")
    np.testing.assert_array_equal(distance_map(maze, (0, 0)),
                                  np.array([[0, 1, 2, 3, 4]]))


def test_distance_map_unreachable_marked():
    maze = parse_maze(".#.")
    dist = distance_map(maze, (0, 0))
    assert dist[0, 2] == -1 and dist[0, 1] == -1


def test_shortest_path_union_corridor():
    maze = parse_maze("S...T")
    d, mask = shortest_path_union(maze)
    assert d == 4
    assert mask.all()


def test_shortest_path_union_open_square():
    # both monotone staircases are shortest: the union is all four tiles
    maze = parse_maze("S.\n.T")
    d, mask = shortest_path_union(maze)
    assert d == 2
    assert mask.sum() == 4


def test_shortest_path_union_unreachable():
    with pytest.raises(Unreachable):
        shortest_path_union(parse_maze("S#T"))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_union_tiles_lie_on_shortest_paths(seed):
    maze = generate_maze(GenConfig(width=8, height=8, seed=seed))
    ds = distance_map(maze, maze.source)
    dt = distance_map(maze, maze.target)
    d, mask = shortest_path_union(maze)
    for y, x in np.argwhere(mask):
        assert ds[y, x] + dt[y, x] == d


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_canonical_path_is_a_shortest_path(seed):
    maze = generate_maze(GenConfig(width=8, height=8, seed=seed))
    d, path = canonical_shortest_path(maze)
    d_union, union = shortest_path_union(maze)
    assert d == d_union
    assert path.sum() == d + 1
    assert not np.any(path & ~union)
    assert path[maze.source] and path[maze.target]


def test_dfs_order_open_square():
    maze = parse_maze("..\n..")
    assert dfs_order(maze, (0, 0)) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_dfs_order_corridor_from_middle():
    maze = parse_maze(".....")
    assert dfs_order(maze, (0, 2)) == [(0, 2), (0, 3), (0, 4), (0, 1), (0, 0)]


def test_dfs_order_pops_most_recent_first():
    # at the fork the search goes down; lateral tiles are stacked and the
    # most recently stacked neighbourhood is resumed first
    maze = parse_maze("...\n.#.\n.#.")
    order = dfs_order(maze, (0, 1))
    assert order[0] == (0, 1)
    assert set(order) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)}
    assert len(order) == len(set(order))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_dfs_order_visits_component_exactly_once(seed):
    maze = generate_maze(GenConfig(width=7, height=7, task="diameter", seed=seed))
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    order = dfs_order(maze, start)
    assert len(order) == len(set(order))
    component = {(y, x) for y, x in np.argwhere(distance_map(maze, start) >= 0)}
    assert set(order) == component


def test_diameter_open_square():
    maze = Maze(walls=np.zeros((3, 3), dtype=bool))
    assert diameter_oracle(maze) == (5, ((0, 0), (2, 2)))


def test_diameter_spans_components():
    # right component (3 tiles) is longer than the isolated left tile
    maze = parse_maze(".#...")
    length, (u, v) = diameter_oracle(maze)
    assert length == 3
    assert (u, v) == ((0, 2), (0, 4))


def test_diameter_singleton():
    maze = parse_maze(".#")
    assert diameter_oracle(maze) == (1, ((0, 0), (0, 0)))


def test_diameter_oracle_runs_one_full_bfs_per_empty_tile(monkeypatch):
    # the oracle must not share the eccentricity pruning it checks: every
    # empty tile gets its own unpruned BFS, which matches distance_map and
    # dequeues a farthest tile last
    maze = generate_maze(GenConfig(width=9, height=7, task="diameter", seed=3))
    sources = []
    original = oracle.tile_distances
    stride = maze.width + 1

    def counting(neighbours, src):
        dist, last = original(neighbours, src)
        sources.append(src)
        y, x = divmod(src, stride)
        framed = np.full((maze.height + 2, stride), -1)
        framed[1:-1, :-1] = distance_map(maze, (y - 1, x))
        assert dist == framed.ravel().tolist()
        assert dist[last] == max(dist)
        return dist, last

    monkeypatch.setattr(oracle, "tile_distances", counting)
    diameter_oracle(maze)
    tiles = [(y + 1) * stride + x for y, x in np.argwhere(~maze.walls)]
    assert sources == tiles


def reference_diameter(maze):
    """The diameter from ``distance_map`` of every empty tile: the first
    row-major tile u of greatest eccentricity, and the first row-major tile
    farthest from u."""
    best = None
    for u in np.argwhere(~maze.walls):
        dist = distance_map(maze, (int(u[0]), int(u[1])))
        if best is None or dist.max() > best[0].max():
            best = dist, (int(u[0]), int(u[1]))
    dist, u = best
    v = divmod(int(np.argmax(dist)), maze.width)
    return int(dist.max()) + 1, (u, v)


def test_diameter_oracle_matches_distance_maps_from_every_tile():
    # 1xN and Nx1 corridors, all-open and single-tile grids, then random
    # grids of every density; the tie rules are the reference's
    mazes = sweep_mazes(400, 10, seed=61)
    for maze in mazes:
        assert diameter_oracle(maze) == reference_diameter(maze), str(maze.walls)
    shapes = {maze.walls.shape for maze in mazes}
    assert {(1, 10), (10, 1), (1, 1)} <= shapes
    assert any((~maze.walls).all() and maze.walls.size > 1 for maze in mazes)
    assert any(np.count_nonzero(~maze.walls) == 1 and maze.walls.size > 1 for maze in mazes)


def test_normalized_accuracy_anchors():
    truth = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert normalized_accuracy(np.zeros((2, 2)), truth) == 0.0
    assert normalized_accuracy(truth, truth) == 100.0


def test_normalized_accuracy_clips_predictions():
    truth = np.array([[1.0, 0.0]])
    assert normalized_accuracy(np.array([[1.7, -0.3]]), truth) == 100.0


def test_normalized_accuracy_can_be_negative():
    truth = np.array([[1.0, 0.0]])
    assert normalized_accuracy(np.array([[0.0, 1.0]]), truth) == -100.0


def test_reachable_agrees_with_distance_map():
    # every ordered pair of tiles, walls included as targets, on grids of
    # every shape and density
    for maze in sweep_mazes(40, 7, seed=21):
        empties = [tuple(int(v) for v in q) for q in np.argwhere(~maze.walls)]
        tiles = [tuple(int(v) for v in q) for q in np.argwhere(np.ones_like(maze.walls))]
        for src in empties:
            dist = distance_map(maze, src)
            assert [reachable(maze, src, dst) for dst in tiles] == [dist[t] >= 0 for t in tiles]
    with pytest.raises(MazeError, match="wall"):
        reachable(parse_maze("#."), (0, 0), (0, 1))
