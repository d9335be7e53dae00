import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca.grid import (
    CH_EMPTY,
    CH_SOURCE,
    CH_TARGET,
    CH_WALL,
    GENERATION_ATTEMPTS,
    GenConfig,
    Maze,
    MazeError,
    ParseError,
    RetryBudgetExhausted,
    generate_maze,
    one_hot,
    parse_maze,
    render_maze,
)
from mazenca.bfs import run_bfs
from mazenca.oracle import distance_map, shortest_path_union


@st.composite
def maze_texts(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    grid = [[draw(st.sampled_from(".#")) for _ in range(w)] for _ in range(h)]
    cells = [(r, c) for r in range(h) for c in range(w)]
    if draw(st.booleans()) and len(cells) >= 2:
        s, t = draw(st.permutations(cells).map(lambda p: (p[0], p[1])))
        grid[s[0]][s[1]] = "S"
        grid[t[0]][t[1]] = "T"
    return "\n".join("".join(row) for row in grid)


@given(maze_texts())
def test_parse_render_round_trip(text):
    assert render_maze(parse_maze(text)) == text


def test_parse_positions():
    maze = parse_maze("S.#\n.T.")
    assert maze.source == (0, 0)
    assert maze.target == (1, 1)
    assert maze.walls[0, 2] and not maze.walls[1, 2]


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="row 1"):
        parse_maze("..\n...")
    with pytest.raises(ParseError, match="row 0, col 1"):
        parse_maze(".X\n..")
    with pytest.raises(ParseError, match="duplicate source"):
        parse_maze("SS")
    with pytest.raises(ParseError, match="duplicate target"):
        parse_maze("TT")


def test_maze_validation():
    walls = np.array([[True, False]])
    with pytest.raises(MazeError):
        Maze(walls=walls, source=(0, 0))
    with pytest.raises(MazeError):
        Maze(walls=np.zeros((1, 2), dtype=bool), source=(0, 0), target=(0, 0))
    with pytest.raises(MazeError):
        Maze(walls=np.zeros((0, 2), dtype=bool))


def test_render_overlay_never_overwrites_endpoints():
    maze = parse_maze("S.T")
    overlay = np.ones((1, 3), dtype=bool)
    assert render_maze(maze, overlay=overlay) == "SoT"
    with pytest.raises(MazeError):
        render_maze(maze, overlay=np.ones((2, 3), dtype=bool))


def test_one_hot_partition():
    maze = parse_maze("S.#\n.T.")
    enc = one_hot(maze)
    assert enc.shape == (4, 2, 3)
    # every tile belongs to exactly one channel
    np.testing.assert_array_equal(enc.sum(axis=0), np.ones((2, 3)))
    assert enc[CH_SOURCE][0, 0] == 1.0
    assert enc[CH_TARGET][1, 1] == 1.0
    assert enc[CH_WALL][0, 2] == 1.0
    assert enc[CH_EMPTY][1, 0] == 1.0


def test_gen_config_validation():
    with pytest.raises(MazeError):
        GenConfig(width=0, height=4)
    with pytest.raises(MazeError):
        GenConfig(width=4, height=4, wall_probability=1.5)
    with pytest.raises(MazeError):
        GenConfig(width=4, height=4, task="tsp")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_generated_shortest_path_mazes_are_solvable(seed):
    cfg = GenConfig(width=8, height=8, seed=seed)
    maze = generate_maze(cfg)
    assert maze.source is not None and maze.target is not None
    assert distance_map(maze, maze.source)[maze.target] >= 0


def test_generation_is_deterministic():
    cfg = GenConfig(width=16, height=16, seed=42)
    assert generate_maze(cfg) == generate_maze(cfg)


def test_generation_retry_budget():
    # all-wall grids can never host endpoints
    cfg = GenConfig(width=2, height=2, wall_probability=1.0)
    with pytest.raises(RetryBudgetExhausted, match=f"after {GENERATION_ATTEMPTS} attempts"):
        generate_maze(cfg)


def test_diameter_task_has_no_endpoints():
    maze = generate_maze(GenConfig(width=6, height=6, task="diameter", seed=3))
    assert maze.source is None and maze.target is None
    assert np.any(~maze.walls)


@pytest.mark.parametrize("pos", [(-1, 0), (0, -1), (3, 0), (0, 3), (-4, -4)])
def test_endpoints_outside_the_grid_are_rejected(pos):
    # a negative index would wrap onto a tile, a large one past the grid
    walls = np.zeros((3, 3), dtype=bool)
    for endpoints in ({"source": pos}, {"target": pos}, {"source": (1, 1), "target": pos}):
        with pytest.raises(MazeError, match="outside"):
            Maze(walls=walls, **endpoints)


def test_non_boolean_walls_are_rejected():
    # on an integer array ~walls is a bitwise NOT, so an oracle that reads
    # the open tiles as ~walls would see every wall as open: with 0/1 walls
    # this maze's shortest path would read 2 moves, not its 6
    walls = [[0, 1, 0], [0, 1, 0], [0, 0, 0]]
    for array in (np.array(walls), np.array(walls, dtype=np.int8), np.array(walls, float),
                  walls):
        with pytest.raises(MazeError, match="bool"):
            Maze(walls=array, source=(0, 0), target=(0, 2))
    maze = Maze(walls=np.array(walls, dtype=bool), source=(0, 0), target=(0, 2))
    assert shortest_path_union(maze)[0] == 6
    assert run_bfs(maze).meet_step == 6 // 2 + 1
