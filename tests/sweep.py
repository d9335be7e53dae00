"""Seeded maze sweeps over shapes and wall densities, shared by the
automaton-vs-oracle tests."""

import numpy as np

from mazenca.grid import Maze
from mazenca.oracle import distance_map

WALL_PS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def sweep_mazes(n, max_side, seed):
    """Seeded walls-only mazes: every 1xN and Nx1 corridor, all-open and
    single-empty grids, then ``n`` random grids with sides in 1..max_side
    and wall probabilities cycling through WALL_PS."""
    mazes = []
    for side in range(1, max_side + 1):
        mazes.append(np.zeros((1, side), dtype=bool))
        mazes.append(np.zeros((side, 1), dtype=bool))
        mazes.append(np.zeros((side, max_side + 1 - side), dtype=bool))
        single = np.ones((side, max_side), dtype=bool)
        single[side // 2, side % max_side] = False
        mazes.append(single)
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        h, w = (int(v) for v in rng.integers(1, max_side + 1, size=2))
        walls = rng.random((h, w)) < WALL_PS[i % len(WALL_PS)]
        if walls.all():
            walls[rng.integers(h), rng.integers(w)] = False
        mazes.append(walls)
    return [Maze(walls=w) for w in mazes]


def largest_component_start(maze):
    """The first tile, in row-major order, of the maze's largest connected
    component of empty tiles, ties to the component found first."""
    seen, largest = np.zeros(maze.walls.shape, dtype=bool), None
    for p in np.argwhere(~maze.walls):
        if not seen[tuple(p)]:
            component = distance_map(maze, tuple(int(v) for v in p)) >= 0
            seen |= component
            if largest is None or component.sum() > largest.sum():
                largest = component
    return tuple(int(v) for v in np.argwhere(largest)[0])


def endpoint_sweep(n, seed):
    """Sweep mazes with a seeded source and target, and 48 20 x 20 mazes
    of wall probability 0.2 and 0.3 from their first to their last empty
    tile, reachable or not, grouped by shape."""
    groups = {}
    for i, maze in enumerate(sweep_mazes(n, 12, seed=seed)):
        empties = [tuple(int(v) for v in t) for t in np.argwhere(~maze.walls)]
        if len(empties) < 2:
            continue
        rng = np.random.default_rng([seed, i])
        source, target = (empties[k] for k in rng.choice(len(empties), 2, replace=False))
        groups.setdefault(maze.walls.shape, []).append(
            Maze(walls=maze.walls, source=source, target=target))
    for i in range(48):
        walls = np.random.default_rng([seed, 20, i]).random((20, 20)) < 0.2 + 0.1 * (i % 2)
        empties = np.argwhere(~walls)
        groups.setdefault(walls.shape, []).append(Maze(
            walls=walls, source=tuple(int(v) for v in empties[0]),
            target=tuple(int(v) for v in empties[-1])))
    return list(groups.values())
