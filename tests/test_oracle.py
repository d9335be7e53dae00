import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import oracle
from mazenca.evolve import mutate_maze
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


class Digest:
    """sha256 over a stream of values and arrays (dtype, shape and bytes)."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def put(self, *values):
        self.sha.update(repr(values).encode())

    def put_array(self, a):
        self.put(a.dtype.str, a.shape)
        self.sha.update(a.tobytes())


def put_labels(digest, maze):
    """Distance maps from both endpoints, reachability and the canonical
    path of a maze with both endpoints."""
    digest.put(maze.source, maze.target, reachable(maze, maze.source, maze.target))
    digest.put_array(distance_map(maze, maze.source))
    digest.put_array(distance_map(maze, maze.target))
    try:
        d, mask = canonical_shortest_path(maze)
    except Unreachable:
        digest.put("unreachable")
    else:
        digest.put(d)
        digest.put_array(mask)


# sha256 of the oracle and generator outputs below, pinned before the
# oracle's flat-frame BFS and the generator's flat empty-tile index
ORACLE_SHA256 = "acfa9ec131107d9adf3d2f72de36cf86171cb45305627277e0177064f76d0ebc"


def test_oracle_and_generator_outputs_are_unchanged():
    digest = Digest()
    # sweep mazes: 1xN, Nx1, all-open and single-empty grids, then random
    # grids of every density; a map from every empty tile, and reachability
    # and the canonical path between the first and each later empty tile
    for maze in sweep_mazes(60, 9, seed=83):
        empties = [tuple(int(v) for v in q) for q in np.argwhere(~maze.walls)]
        for src in empties:
            digest.put_array(distance_map(maze, src))
        digest.put([reachable(maze, empties[0], dst) for dst in empties])
        for dst in empties[1:][::3]:
            put_labels(digest, Maze(walls=maze.walls, source=empties[0], target=dst))
    # criterion 5's mazes, with the rng state after each draw, then an
    # offspring of each
    for size in (16, 32):
        for i in range(256):
            rng = np.random.default_rng([1234, size, i])
            maze = generate_maze(GenConfig(width=size, height=size), rng=rng)
            digest.put_array(maze.walls)
            digest.put(rng.bit_generator.state)
            put_labels(digest, maze)
            child = mutate_maze(maze, rng, n_flips=math.ceil(0.05 * size * size))
            digest.put_array(child.walls)
            digest.put(rng.bit_generator.state)
    # both tasks on other shapes and densities, and mutations that may give
    # up (None) or keep only a wall-free tile somewhere
    for i in range(64):
        rng = np.random.default_rng([1234, 7, i])
        for task in ("shortest_path", "diameter"):
            cfg = GenConfig(width=2 + i % 8, height=2 + i % 5, task=task,
                            wall_probability=(0.1, 0.4, 0.6, 0.75)[i % 4])
            maze = generate_maze(cfg, rng=rng)
            digest.put(task, maze.source, maze.target, rng.bit_generator.state)
            digest.put_array(maze.walls)
            flips = max(1, (maze.walls.size - 2) // 3)
            child = mutate_maze(maze, rng, flips, task=task, max_tries=3)
            digest.put(None if child is None else child.walls.tobytes(),
                       rng.bit_generator.state)
        digest.put(generate_maze(GenConfig(width=5, height=4, seed=i)).source)
    assert digest.sha.hexdigest() == ORACLE_SHA256


@pytest.mark.parametrize("pos", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_oracle_rejects_tiles_outside_the_grid(pos):
    # (-1, 0) once rooted a map at the wrapped tile (2, 0)
    maze = parse_maze("S..\n.#.\n..T")
    with pytest.raises(MazeError, match="outside"):
        distance_map(maze, pos)
    with pytest.raises(MazeError, match="outside"):
        reachable(maze, pos, (2, 2))
    with pytest.raises(MazeError, match="outside"):
        reachable(maze, (0, 0), pos)
    # (-1, 0) once started a visit order at the wrapped tile
    with pytest.raises(MazeError, match="outside"):
        dfs_order(maze, pos)
