import gc
import shlex
import sys
import textwrap
import warnings

import numpy as np
import pytest

from mazenca.bfs import run_bfs
from mazenca.evolve import label_maze
from mazenca.extract import run_extract
from mazenca.grid import GenConfig, generate_maze, parse_maze
from mazenca.oracle import normalized_accuracy, shortest_path_union
from mazenca.solvers import (
    BudgetedNcaSolver,
    ExternalSolver,
    OracleSolver,
    SolverProtocolError,
    ZerosSolver,
    make_solver,
)
from sweep import endpoint_sweep

MAZE = parse_maze("S...T\n.....\n.....")


def stub_child(tmp_path, body):
    """Write a protocol child whose per-request reply is produced by ``body``
    (python statements with H, W, rows in scope, printing the reply)."""
    script = tmp_path / "child.py"
    script.write_text(textwrap.dedent("""\
        import sys
        for line in sys.stdin:
            parts = line.split()
            if not parts or parts[0] != "SOLVE":
                continue
            H, W = int(parts[1]), int(parts[2])
            rows = [sys.stdin.readline().rstrip("\\n") for _ in range(H)]
        """) + textwrap.indent(textwrap.dedent(body), "    ")
        + "    sys.stdout.flush()\n")
    return [sys.executable, str(script)]


def test_zeros_solver_anchor():
    pred = ZerosSolver().solve(MAZE)
    _, truth = shortest_path_union(MAZE)
    assert normalized_accuracy(pred, truth) == 0.0


def test_oracle_solver_anchor():
    pred = OracleSolver().solve(MAZE)
    _, truth = shortest_path_union(MAZE)
    assert normalized_accuracy(pred, truth) == 100.0


def test_oracle_solver_covers_diameter_labels():
    # a diameter maze has no endpoints; the oracle solver's paths join the
    # diameter oracle's, so they cover the diameter label
    for i in range(40):
        maze = generate_maze(GenConfig(width=9, height=9, task="diameter"),
                             rng=np.random.default_rng([11, i]))
        label, _ = label_maze(maze, "diameter")
        pred = OracleSolver().solve(maze)
        assert pred.shape == label.shape and (pred[label] == 1.0).all()
    single = parse_maze("#.#\n###")
    np.testing.assert_array_equal(OracleSolver().solve(single), [[0, 1, 0], [0, 0, 0]])


def test_budgeted_solver_within_budget():
    solver = BudgetedNcaSolver(flood_budget=16)
    _, truth = shortest_path_union(MAZE)
    np.testing.assert_array_equal(solver.solve(MAZE), truth.astype(float))


def test_budgeted_solver_fails_long_mazes():
    long_maze = parse_maze("S" + "." * 30 + "T")
    solver = BudgetedNcaSolver(flood_budget=4)
    np.testing.assert_array_equal(solver.solve(long_maze), np.zeros((1, 32)))


def single_run(maze, budget):
    """The budgeted pipeline as one flood and one extraction of its own."""
    bfs = run_bfs(maze, max_steps=budget)
    if not bfs.met:
        return np.zeros(maze.walls.shape)
    return run_extract(bfs).mask.astype(np.float64)


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_solve_batch_equals_single_runs(budget):
    # sweep mazes of every shape, 1xN and Nx1 among them, one canvas per
    # shape; the 48 20x20 mazes share one canvas
    groups = endpoint_sweep(160, seed=31)
    shapes = {group[0].walls.shape for group in groups}
    assert {(1, 12), (12, 1)} <= shapes and max(map(len, groups)) > 8
    solver = BudgetedNcaSolver(flood_budget=budget)
    solved = total = 0
    for group in groups:
        preds = solver.solve_batch(group)
        assert len(preds) == len(group)
        for maze, pred in zip(group, preds):
            want = single_run(maze, budget)
            for got in (pred, solver.solve(maze)):
                assert got.dtype == want.dtype and np.array_equal(got, want), str(maze.walls)
            solved += bool(want.any())
            total += 1
    # a flood of one step holds only its own endpoint, so nothing meets
    assert solved < total and (solved > 0) == (budget > 1)
    assert solver.solve_batch([]) == []


def test_external_zeros_child(tmp_path):
    cmd = stub_child(tmp_path, """\
        for _ in range(H):
            print(" ".join(["0.0"] * W))
        print("END")
        """)
    solver = ExternalSolver(cmd)
    try:
        pred = solver.solve(MAZE)
        np.testing.assert_array_equal(pred, np.zeros((3, 5)))
        _, truth = shortest_path_union(MAZE)
        assert normalized_accuracy(pred, truth) == 0.0
    finally:
        solver.close()


def test_external_echo_solution_child(tmp_path):
    # child marks S/T tiles 1.0 and everything else 0: a crude maze reader,
    # proving the request rows arrive intact
    cmd = stub_child(tmp_path, """\
        for row in rows:
            print(" ".join("1.0" if ch in "ST" else "0.0" for ch in row))
        print("END")
        """)
    solver = ExternalSolver(cmd)
    try:
        pred = solver.solve(MAZE)
        assert pred[0, 0] == 1.0 and pred[0, 4] == 1.0
        assert pred.sum() == 2.0
    finally:
        solver.close()


def test_external_child_output_is_clipped(tmp_path):
    cmd = stub_child(tmp_path, """\
        for _ in range(H):
            print(" ".join(["1.7"] * W))
        print("END")
        """)
    solver = ExternalSolver(cmd)
    try:
        np.testing.assert_array_equal(solver.solve(MAZE), np.ones((3, 5)))
    finally:
        solver.close()


def test_external_malformed_reply(tmp_path):
    cmd = stub_child(tmp_path, """\
        for _ in range(H):
            print("0.0 0.0")
        print("END")
        """)
    solver = ExternalSolver(cmd)
    try:
        with pytest.raises(SolverProtocolError, match="values per row"):
            solver.solve(MAZE)
    finally:
        solver.close()


def test_external_missing_trailer(tmp_path):
    cmd = stub_child(tmp_path, """\
        for _ in range(H):
            print(" ".join(["0.0"] * W))
        print("DONE")
        """)
    solver = ExternalSolver(cmd)
    try:
        with pytest.raises(SolverProtocolError, match="END"):
            solver.solve(MAZE)
    finally:
        solver.close()


def test_external_timeout(tmp_path):
    cmd = stub_child(tmp_path, """\
        import time
        time.sleep(60)
        """)
    solver = ExternalSolver(cmd, timeout=0.5)
    try:
        with pytest.raises(SolverProtocolError, match="timed out"):
            solver.solve(MAZE)
    finally:
        solver.close()


def test_external_dead_child(tmp_path):
    script = tmp_path / "dead.py"
    script.write_text("import sys; sys.exit(3)\n")
    solver = ExternalSolver([sys.executable, str(script)])
    try:
        with pytest.raises(SolverProtocolError):
            solver.solve(MAZE)
    finally:
        solver.close()


def test_external_solver_leaves_no_pipe_open(tmp_path, monkeypatch):
    # An unclosed pipe warns when it is collected.  Under the "error" filter
    # the warning is raised in the pipe's __del__, which hands it to
    # sys.unraisablehook.  Close a working child, and replace a dead one
    # twice before closing its third copy.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    dead = tmp_path / "dead.py"
    dead.write_text("import sys; sys.exit(3)\n")
    zeros = stub_child(tmp_path, """\
        for _ in range(H):
            print(" ".join(["0.0"] * W))
        print("END")
        """)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        solver = make_solver("cmd:" + shlex.join(zeros))
        np.testing.assert_array_equal(solver.solve(MAZE), np.zeros((3, 5)))
        solver.close()
        solver = ExternalSolver([sys.executable, str(dead)])
        for _ in range(3):
            with pytest.raises(SolverProtocolError):
                solver.solve(MAZE)
        solver.close()
        del solver
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


def test_make_solver_specs():
    assert isinstance(make_solver("zeros"), ZerosSolver)
    assert isinstance(make_solver("oracle"), OracleSolver)
    assert make_solver("budget").flood_budget == 16
    assert make_solver("budget:7").flood_budget == 7
    assert isinstance(make_solver("cmd:cat"), ExternalSolver)
    with pytest.raises(Exception):
        make_solver("magic")
