"""Online adversarial dataset evolution.

While the solver under test handles the current dataset comfortably (mean
loss under the threshold), a sampled batch of mazes is mutated, re-labeled
with the oracle, and scored by the loss each offspring induces; offspring
strictly fitter than the least fit incumbents replace them.

Each generation scores every incumbent record by record (``solver_loss``)
and then all its offspring together (``batch_losses``), through the
solver's ``solve_batch`` when it has one; either way a maze gets the loss
its own ``solve`` gives, so a solver with a batch path evolves the same
datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetRecord
from .grid import Maze, MazeError
from .oracle import (
    canonical_shortest_path,
    diameter_oracle,
    reachable,
)


# Copies per canvas when ``batch_losses`` scores offspring through a
# solver's ``solve_batch``.  A canvas's peak memory, and the predictions it
# holds at once, grow with its copies.  Over three generations of 512
# 16 x 16 records with 128 offspring each, in one process, canvases of 1, 8,
# 32 and 128 copies raised the peak RSS by 0.38, 0.62, 1.14 and 3.17 MB,
# and scored 128 mazes in 30, 12, 7 and 6 ms.
CANVAS_COPIES = 8


@dataclass(frozen=True)
class EvolutionConfig:
    generations: int
    task: str = "shortest_path"
    loss_threshold: float = 1e-3
    batch_size: int = 64
    n_flips: int | None = None  # default ceil(0.05 * H * W)
    seed: int = 0


@dataclass
class GenerationStats:
    mean_loss: float
    mean_solution_length: float
    replacements: int
    mutated: bool


def prediction_loss(pred: np.ndarray, record: DatasetRecord) -> float:
    """Mean squared error of a solver's prediction, clipped to [0, 1],
    against the record's solution mask."""
    truth = record.solution.astype(np.float64)
    return float(np.mean((np.clip(pred, 0.0, 1.0) - truth) ** 2))


def solver_loss(solver, record: DatasetRecord) -> float:
    return prediction_loss(solver.solve(record.maze), record)


def batch_losses(solver, records: list[DatasetRecord]) -> list[float]:
    """``solver_loss`` of every record.  A solver with ``solve_batch``
    scores records of one shape in canvases of CANVAS_COPIES copies, one
    ``solve_batch`` call each; any other solver scores maze by maze."""
    solve_batch = getattr(solver, "solve_batch", None)
    if solve_batch is None:
        return [solver_loss(solver, rec) for rec in records]
    losses = [0.0] * len(records)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, rec in enumerate(records):
        by_shape.setdefault(rec.maze.walls.shape, []).append(i)
    for ids in by_shape.values():
        for lo in range(0, len(ids), CANVAS_COPIES):
            canvas = ids[lo : lo + CANVAS_COPIES]
            preds = solve_batch([records[i].maze for i in canvas])
            for i, pred in zip(canvas, preds):
                losses[i] = prediction_loss(pred, records[i])
    return losses


def label_maze(maze: Maze, task: str) -> tuple[np.ndarray, int]:
    """Oracle label: (solution mask, solution length in tiles)."""
    if task == "shortest_path":
        d, mask = canonical_shortest_path(maze)
        return mask, d + 1
    if task == "diameter":
        length, (u, v) = diameter_oracle(maze)
        if u == v:
            mask = np.zeros(maze.walls.shape, dtype=bool)
            mask[u] = True
        else:
            _, mask = canonical_shortest_path(
                Maze(walls=maze.walls, source=u, target=v)
            )
        return mask, length
    raise MazeError(f"unknown task {task!r}")


def mutate_maze(maze: Maze, rng: np.random.Generator, n_flips: int,
                task: str = "shortest_path", max_tries: int = 100) -> Maze | None:
    """Flip ``n_flips`` distinct non-endpoint tiles between empty and wall.
    For the shortest-path task an offspring that breaks reachability is
    resampled; after ``max_tries`` the offspring is abandoned (None)."""
    if n_flips < 1:
        raise MazeError("n_flips must be at least 1")
    H, W = maze.walls.shape
    mutable = np.ones(H * W, dtype=bool)
    for pos in (maze.source, maze.target):
        if pos is not None:
            mutable[pos[0] * W + pos[1]] = False
    candidates = np.flatnonzero(mutable)  # flat indices, row-major
    if n_flips > len(candidates):
        raise MazeError("n_flips exceeds the number of mutable tiles")
    if task == "shortest_path" and (maze.source is None or maze.target is None):
        raise MazeError("shortest-path oracle needs both source and target")
    for _ in range(max_tries):
        walls = maze.walls.copy()
        picks = candidates[rng.choice(len(candidates), size=n_flips, replace=False)]
        walls.reshape(-1)[picks] ^= True
        child = Maze(walls=walls, source=maze.source, target=maze.target)
        if task == "shortest_path":
            if not reachable(child, maze.source, maze.target):
                continue
        elif not np.any(~walls):
            continue
        return child
    return None


def _default_flips(maze: Maze) -> int:
    return math.ceil(0.05 * maze.height * maze.width)


def evolve_step(
    dataset: list[DatasetRecord],
    solver,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> tuple[list[DatasetRecord], GenerationStats]:
    if cfg.batch_size > len(dataset):
        raise MazeError("batch_size exceeds dataset size")
    fitness = [solver_loss(solver, rec) for rec in dataset]
    mean_loss = float(np.mean(fitness))
    mean_len = float(np.mean([rec.meta.get("d_tiles", int(rec.solution.sum()))
                              for rec in dataset]))
    if mean_loss >= cfg.loss_threshold:
        return dataset, GenerationStats(mean_loss, mean_len, 0, mutated=False)

    parents = rng.choice(len(dataset), size=cfg.batch_size, replace=False)
    children: list[DatasetRecord] = []
    for i in parents:
        parent = dataset[int(i)]
        n_flips = cfg.n_flips if cfg.n_flips is not None else _default_flips(parent.maze)
        child_maze = mutate_maze(parent.maze, rng, n_flips, task=cfg.task)
        if child_maze is None:
            continue
        mask, length = label_maze(child_maze, cfg.task)
        child = DatasetRecord(
            id=parent.id, task=cfg.task, maze=child_maze, solution=mask,
            meta={**parent.meta, "d_tiles": length},
        )
        children.append(child)
    offspring = list(zip(batch_losses(solver, children), children))

    new_dataset = list(dataset)
    order = np.argsort(fitness, kind="stable")  # least fit first
    offspring.sort(key=lambda pair: pair[0], reverse=True)
    replacements = 0
    oi = 0
    for pos in order:
        if oi >= len(offspring):
            break
        fit, child = offspring[oi]
        if fit > fitness[int(pos)]:
            new_dataset[int(pos)] = child
            replacements += 1
            oi += 1
        else:
            break
    mean_len = float(np.mean([rec.meta.get("d_tiles", int(rec.solution.sum()))
                              for rec in new_dataset]))
    return new_dataset, GenerationStats(mean_loss, mean_len, replacements, mutated=True)


def run_evolution(
    dataset: list[DatasetRecord],
    solver,
    cfg: EvolutionConfig,
) -> tuple[list[DatasetRecord], list[GenerationStats]]:
    for i, rec in enumerate(dataset, start=1):
        if rec.task != cfg.task:
            raise MazeError(f"record {i} ({rec.id}) has task {rec.task!r}, "
                            f"not the evolution's {cfg.task!r}")
    rng = np.random.default_rng(cfg.seed)
    stats: list[GenerationStats] = []
    for _ in range(cfg.generations):
        dataset, gen_stats = evolve_step(dataset, solver, cfg, rng)
        stats.append(gen_stats)
    return dataset, stats
