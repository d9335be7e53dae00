import hashlib

import numpy as np
import pytest

from mazenca.dataset import DatasetRecord
from mazenca import evolve
from mazenca.evolve import (
    EvolutionConfig,
    batch_losses,
    evolve_step,
    label_maze,
    mutate_maze,
    run_evolution,
    solver_loss,
)
from mazenca.grid import GenConfig, Maze, MazeError, generate_maze, parse_maze
from mazenca.oracle import distance_map, shortest_path_union
from mazenca.solvers import BudgetedNcaSolver, OracleSolver, ZerosSolver
from sweep import endpoint_sweep


def make_dataset(n, size=8, seed=0):
    records = []
    for i in range(n):
        maze = generate_maze(GenConfig(width=size, height=size),
                             rng=np.random.default_rng([seed, i]))
        mask, length = label_maze(maze, "shortest_path")
        records.append(DatasetRecord(id=f"r{i}", task="shortest_path", maze=maze,
                                     solution=mask, meta={"d_tiles": length, "seed": i}))
    return records


def test_label_shortest_path():
    maze = parse_maze("S...T")
    mask, length = label_maze(maze, "shortest_path")
    assert length == 5 and mask.all()


def test_label_diameter():
    maze = parse_maze("...\n#.#")
    mask, length = label_maze(maze, "diameter")
    assert length == 3
    assert mask.sum() == 3


def test_label_unknown_task():
    with pytest.raises(MazeError):
        label_maze(parse_maze("S.T"), "coloring")


def test_solver_loss_anchors():
    rec = make_dataset(1)[0]
    zeros = solver_loss(ZerosSolver(), rec)
    assert zeros == pytest.approx(rec.solution.mean())
    # the union solver disagrees with the single-path label only off-path
    assert solver_loss(OracleSolver(), rec) < zeros


def test_mutation_preserves_endpoints_and_reachability():
    maze = make_dataset(1)[0].maze
    rng = np.random.default_rng(0)
    for _ in range(20):
        child = mutate_maze(maze, rng, n_flips=3)
        assert child is not None
        assert child.source == maze.source and child.target == maze.target
        assert distance_map(child, child.source)[child.target] >= 0
        flips = np.count_nonzero(child.walls != maze.walls)
        assert flips == 3


def test_mutation_flip_count_validation():
    maze = make_dataset(1)[0].maze
    rng = np.random.default_rng(0)
    with pytest.raises(MazeError):
        mutate_maze(maze, rng, n_flips=0)
    with pytest.raises(MazeError):
        mutate_maze(maze, rng, n_flips=maze.height * maze.width)
    # a shortest-path maze needs both endpoints to test reachability
    with pytest.raises(MazeError, match="source and target"):
        mutate_maze(Maze(walls=maze.walls), rng, n_flips=1)


def test_no_mutation_while_solver_is_failing():
    dataset = make_dataset(8)
    cfg = EvolutionConfig(generations=1, batch_size=4, loss_threshold=1e-9)
    # zeros solver is above any tiny threshold, so the dataset is left alone
    out, stats = run_evolution(dataset, ZerosSolver(), cfg)
    assert out == dataset
    assert stats[0].mutated is False and stats[0].replacements == 0


def test_replacement_requires_strict_improvement():
    dataset = make_dataset(8)
    solver = OracleSolver()
    cfg = EvolutionConfig(generations=1, batch_size=4, loss_threshold=1.0,
                          n_flips=2, seed=5)
    rng = np.random.default_rng(cfg.seed)
    out, stats = evolve_step(dataset, solver, cfg, rng)
    # every offspring is re-labeled by the oracle, so the oracle solver still
    # scores near-perfectly and fitness rarely improves strictly
    for old, new in zip(dataset, out):
        if old is not new:
            assert solver_loss(solver, new) > solver_loss(solver, old)
    assert stats.mutated is True


def test_evolution_against_budgeted_solver_grows_paths():
    dataset = make_dataset(32, size=8)
    solver = BudgetedNcaSolver(flood_budget=4)
    cfg = EvolutionConfig(generations=10, batch_size=16, loss_threshold=1.0,
                          n_flips=3, seed=2)
    base = np.mean([r.meta["d_tiles"] for r in dataset])
    out, stats = run_evolution(dataset, solver, cfg)
    final = np.mean([r.meta["d_tiles"] for r in out])
    assert final > base
    assert all(s.mutated for s in stats)
    # labels stay consistent with the mazes after replacement
    for rec in out:
        d, _ = shortest_path_union(rec.maze)
        assert rec.meta["d_tiles"] == d + 1
        assert rec.solution.sum() == d + 1


def test_batch_losses_equal_single_losses(monkeypatch):
    # mixed shapes, 1xN and Nx1 among them; the 48 20x20 records split
    # into canvases of CANVAS_COPIES
    canvases = []
    solve_batch = BudgetedNcaSolver.solve_batch

    def recording(solver, mazes):
        canvases.append((len(mazes), {maze.walls.shape for maze in mazes}))
        return solve_batch(solver, mazes)

    monkeypatch.setattr(BudgetedNcaSolver, "solve_batch", recording)
    records = []
    for maze in [maze for group in endpoint_sweep(60, seed=37) for maze in group][::-1]:
        mask = np.zeros(maze.walls.shape, dtype=bool)
        mask[maze.source] = mask[maze.target] = True
        records.append(DatasetRecord(id="r", task="shortest_path", maze=maze, solution=mask))
    for solver in (BudgetedNcaSolver(6), OracleSolver(), ZerosSolver()):
        assert batch_losses(solver, records) == [solver_loss(solver, rec) for rec in records]
    assert all(len(shapes) == 1 for _, shapes in canvases)
    sizes = [n for n, _ in canvases]
    assert max(sizes) == evolve.CANVAS_COPIES and sizes.count(evolve.CANVAS_COPIES) >= 6
    assert batch_losses(BudgetedNcaSolver(6), []) == []


def test_batch_size_validation():
    dataset = make_dataset(4)
    cfg = EvolutionConfig(generations=1, batch_size=8)
    with pytest.raises(MazeError):
        run_evolution(dataset, ZerosSolver(), cfg)


def test_evolution_is_deterministic():
    dataset = make_dataset(16)
    cfg = EvolutionConfig(generations=3, batch_size=8, loss_threshold=1.0,
                          n_flips=3, seed=9)
    out1, stats1 = run_evolution(dataset, BudgetedNcaSolver(4), cfg)
    out2, stats2 = run_evolution(dataset, BudgetedNcaSolver(4), cfg)
    assert [r.maze for r in out1] == [r.maze for r in out2]
    assert [s.mean_loss for s in stats1] == [s.mean_loss for s in stats2]


def evolution_digest(dataset, solver, cfg):
    """sha256 of every record ``run_evolution`` returns (id, walls,
    endpoints, solution, meta) and of every generation's stats."""
    out, stats = run_evolution(dataset, solver, cfg)
    digest = hashlib.sha256()
    for rec in out:
        digest.update(repr((rec.id, rec.task, rec.maze.walls.shape, rec.maze.source,
                            rec.maze.target, sorted(rec.meta.items()))).encode())
        digest.update(rec.maze.walls.tobytes())
        digest.update(rec.solution.tobytes())
    for s in stats:
        digest.update(repr((s.mean_loss, s.mean_solution_length, s.replacements,
                            s.mutated)).encode())
    return digest.hexdigest()


def labelled(task, size, count, seed):
    records = []
    for i in range(count):
        maze = generate_maze(GenConfig(width=size, height=size, task=task),
                             rng=np.random.default_rng([seed, i]))
        mask, length = label_maze(maze, task)
        records.append(DatasetRecord(id=f"{task}-{i}", task=task, maze=maze,
                                     solution=mask, meta={"d_tiles": length, "seed": i}))
    return records


# sha256 of the evolutions below, pinned before offspring were scored in
# canvases and before the oracle's flat-frame BFS
EVOLUTION_SHA256 = {
    "budget": "37c9a2066044d71f2e79467cb7214a50b12ca608414c5a7d9addbeeab5d5db6f",
    "diameter": "844d2b72f5a3e353156550ae8d4e242a87acd79cf57c0f79520646a4dc8610bf",
    "oracle": "319f36fdc8e7762a704a80bb8f2a3a1312a0cd872fcaf0cf933208dddff1d17d",
}


def test_evolutions_are_unchanged():
    # the benchmark's set-up: 512 16x16 records, the budget-16 automaton,
    # every generation mutating 128 parents with 13 flips each
    cfg = EvolutionConfig(generations=3, loss_threshold=1.0, batch_size=128,
                          n_flips=13, seed=1234)
    got = {"budget": evolution_digest(labelled("shortest_path", 16, 512, 1234),
                                      BudgetedNcaSolver(16), cfg)}
    # diameter labels and mutations under the default flip count, scored
    # maze by maze by the zeros solver
    cfg = EvolutionConfig(generations=3, task="diameter", loss_threshold=1.0,
                          batch_size=16, seed=1234)
    got["diameter"] = evolution_digest(labelled("diameter", 9, 64, 1234), ZerosSolver(), cfg)
    cfg = EvolutionConfig(generations=3, loss_threshold=1.0, batch_size=16, seed=1234)
    got["oracle"] = evolution_digest(labelled("shortest_path", 9, 64, 1234), OracleSolver(), cfg)
    assert got == EVOLUTION_SHA256
