"""Acceptance gate: eight end-to-end criteria, each printing one PASS/FAIL
line to the terminal (bypassing pytest capture) before asserting.

All runs are seeded; reported runtimes are wall-clock on the test machine.
"""

import hashlib
import subprocess
import sys
import time

import numpy as np
import pytest

from mazenca.dataset import DatasetRecord
from mazenca.evolve import EvolutionConfig, label_maze, run_evolution
from mazenca.grid import GenConfig, generate_maze
from mazenca.oracle import canonical_shortest_path, normalized_accuracy
from mazenca.solvers import BudgetedNcaSolver
from mazenca.verify import check_shortest_path, verify_task

SEED = 1234


def report(capsys, number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def flood_run():
    """1,000 seeded 16x16 shortest-path mazes, checked single-threaded for
    per-step flood-ball equality, the meet-step formula, and extraction
    exactness.  Shared by criteria 1 and 2."""
    start = time.monotonic()
    failures = [msg for msg in check_shortest_path([(SEED, i, 16) for i in range(1000)])
                if msg is not None]
    return failures, time.monotonic() - start


def test_criterion_1_bfs_extraction_exactness(flood_run, capsys):
    failures, elapsed = flood_run
    ok = not failures and elapsed < 60.0
    report(capsys, 1, "BFS+extraction exactness", ok,
           f"{1000 - len(failures)}/1000 exact, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_2_flood_ball_equality(flood_run, capsys):
    failures, _ = flood_run
    ball_failures = [m for m in failures if "ball" in m or "meet_step" in m]
    ok = not failures
    report(capsys, 2, "flood-ball + meet-step formula", ok,
           f"{len(ball_failures)} step-level violations")
    assert not failures, failures[:5]


def test_criterion_3_dfs_order_exactness(capsys):
    passed, failures = verify_task("dfs", 1000, SEED, size=16)
    ok = passed == 1000
    report(capsys, 3, "DFS order exactness", ok, f"{passed}/1000 exact")
    assert ok, failures[:5]


def test_criterion_4_diameter_exactness(capsys):
    start = time.monotonic()
    passed, failures = verify_task("diameter", 200, SEED, size=16)
    elapsed = time.monotonic() - start
    ok = passed == 200 and elapsed < 300.0
    report(capsys, 4, "diameter exactness", ok,
           f"{passed}/200 exact, {elapsed:.1f}s")
    assert passed == 200, failures[:5]
    assert elapsed < 300.0


def test_criterion_5_dataset_statistics(capsys):
    means = {}
    for size, lo, hi in ((16, 8.0, 10.0), (32, 11.5, 14.5)):
        lens = []
        for i in range(8192):
            maze = generate_maze(GenConfig(width=size, height=size),
                                 rng=np.random.default_rng([SEED, size, i]))
            d, _ = canonical_shortest_path(maze)
            lens.append(d + 1)
        means[size] = float(np.mean(lens))
    ok = 8.0 <= means[16] <= 10.0 and 11.5 <= means[32] <= 14.5
    report(capsys, 5, "dataset statistics", ok,
           f"16x16 mean {means[16]:.2f} in [8,10]; "
           f"32x32 mean {means[32]:.2f} in [11.5,14.5]")
    assert 8.0 <= means[16] <= 10.0
    assert 11.5 <= means[32] <= 14.5


def test_criterion_6_adversarial_evolution(capsys):
    start = time.monotonic()
    records = []
    for i in range(512):
        maze = generate_maze(GenConfig(width=16, height=16),
                             rng=np.random.default_rng([SEED, i]))
        mask, length = label_maze(maze, "shortest_path")
        records.append(DatasetRecord(id=f"sp-{i}", task="shortest_path",
                                     maze=maze, solution=mask,
                                     meta={"d_tiles": length, "seed": i}))
    base = float(np.mean([r.meta["d_tiles"] for r in records]))
    solver = BudgetedNcaSolver(flood_budget=16)
    # threshold 1.0 keeps the adversary mutating every generation; 13 flips
    # is 5% of the 256 tiles
    cfg = EvolutionConfig(generations=50, loss_threshold=1.0, batch_size=128,
                          n_flips=13, seed=SEED)
    evolved, _ = run_evolution(records, solver, cfg)
    final = float(np.mean([r.meta["d_tiles"] for r in evolved]))
    elapsed = time.monotonic() - start
    ratio = final / base
    ok = ratio >= 1.5 and elapsed < 600.0
    report(capsys, 6, "adversarial evolution direction", ok,
           f"mean length {base:.2f} -> {final:.2f}, x{ratio:.2f}, {elapsed:.0f}s")
    assert ratio >= 1.5
    assert elapsed < 600.0


def test_criterion_7_metric_anchors(capsys):
    bad = 0
    for task in ("shortest_path", "diameter"):
        for i in range(64):
            maze = generate_maze(GenConfig(width=12, height=12, task=task),
                                 rng=np.random.default_rng([SEED, i]))
            truth, _ = label_maze(maze, task)
            truth = truth.astype(float)
            if normalized_accuracy(np.zeros_like(truth), truth) != 0.0:
                bad += 1
            if normalized_accuracy(truth, truth) != 100.0:
                bad += 1
    report(capsys, 7, "metric anchors", bad == 0, f"{bad} anchor violations")
    assert bad == 0


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "mazenca.cli", *args],
                          capture_output=True, timeout=300)


def test_criterion_8_determinism(tmp_path, capsys):
    results = {}
    for cmd, paths in (
        ("gen", [tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"]),
        ("trace", [tmp_path / "t1.trace", tmp_path / "t2.trace"]),
    ):
        digests = []
        for path in paths:
            if cmd == "gen":
                proc = _cli("gen", "--task", "shortest_path", "--n", "20",
                            "--size", "16", "--seed", str(SEED), "--out", str(path))
            else:
                maze = tmp_path / "maze.txt"
                maze.write_text("S.....\n.####.\n....#.\n.##.#.\n....#T")
                proc = _cli("trace", "--maze", str(maze), "--algo", "bfs",
                            "--out", str(path))
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        results[cmd] = digests[0] == digests[1]
    outs = [_cli("verify", "--task", "shortest_path", "--n", "10", "--size",
                 "16", "--seed", str(SEED)).stdout for _ in range(2)]
    results["verify"] = outs[0] == outs[1] and b"10/10 exact" in outs[0]
    ok = all(results.values())
    report(capsys, 8, "determinism (gen/verify/trace)", ok,
           ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in results.items()))
    assert ok, results
