"""Solvers that can sit under evaluation or adversarial evolution.

A solver maps a maze to an H x W real-valued prediction plane (clipped to
[0, 1] by callers).  The budgeted automaton solver is the built-in adversary
target: it fails precisely on mazes whose floods cannot meet within its step
budget, which is what the evolution loop learns to exploit.  A solver may
also offer ``solve_batch(mazes)`` over mazes of one shape, a list of the
predictions ``solve`` gives; the evolution scores each generation's
offspring through it, and the budgeted solver runs it on flood and
extraction canvases.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
from typing import Sequence

import numpy as np

from .bfs import bfs_batch
from .extract import extract_batch
from .grid import Maze, MazeError, render_maze
from .oracle import Unreachable, diameter_oracle, shortest_path_union


class ZerosSolver:
    name = "zeros"

    def solve(self, maze: Maze) -> np.ndarray:
        return np.zeros(maze.walls.shape)


class OracleSolver:
    """Perfect solver: returns the oracle union of shortest paths between
    the maze's endpoints.  A maze without endpoints is a diameter maze, and
    its paths join ``diameter_oracle``'s endpoints; a diameter that is a
    single tile is that tile."""

    name = "oracle"

    def solve(self, maze: Maze) -> np.ndarray:
        if maze.source is None and maze.target is None:
            _, (u, v) = diameter_oracle(maze)
            if u == v:
                mask = np.zeros(maze.walls.shape)
                mask[u] = 1.0
                return mask
            maze = Maze(walls=maze.walls, source=u, target=v)
        try:
            _, mask = shortest_path_union(maze)
        except Unreachable:
            return np.zeros(maze.walls.shape)
        return mask.astype(np.float64)


class BudgetedNcaSolver:
    """Flood + extraction pipeline with a cap on flood steps; outputs zeros
    when the floods cannot meet within the budget.  ``solve_batch`` solves
    mazes of one shape as copies of one flood canvas and one extraction
    canvas; ``solve`` is a batch of one."""

    def __init__(self, flood_budget: int = 16):
        self.flood_budget = flood_budget
        self.name = f"nca-budget{flood_budget}"

    def solve(self, maze: Maze) -> np.ndarray:
        return self.solve_batch([maze])[0]

    def solve_batch(self, mazes: Sequence[Maze]) -> list[np.ndarray]:
        """``solve`` of every maze of ``mazes`` (one shape): one
        ``bfs_batch`` at the flood budget, then one ``extract_batch`` of the
        copies that met.  A copy equals its single run, so each prediction
        is its maze's own."""
        floods = bfs_batch(mazes, max_steps=self.flood_budget)
        paths = iter(extract_batch([bfs for bfs in floods if bfs.met]))
        return [next(paths).mask.astype(np.float64) if bfs.met else np.zeros(bfs.maze.walls.shape)
                for bfs in floods]


class SolverProtocolError(MazeError):
    pass


class ExternalSolver:
    """Child-process solver speaking the line protocol: the parent writes
    "SOLVE <H> <W>" plus H maze rows; the child answers H lines of W
    space-separated reals followed by "END"."""

    def __init__(self, command: str | list[str], timeout: float = 30.0):
        self.command = shlex.split(command) if isinstance(command, str) else command
        self.timeout = timeout
        self.name = "external:" + " ".join(self.command)
        self._proc: subprocess.Popen | None = None

    def _ensure(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self.close()  # the child died or was killed: close its pipes
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def solve(self, maze: Maze) -> np.ndarray:
        proc = self._ensure()
        H, W = maze.walls.shape
        request = f"SOLVE {H} {W}\n" + render_maze(maze) + "\n"

        rows: list[list[float]] = []
        error: list[Exception] = []

        def exchange():
            try:
                proc.stdin.write(request)
                proc.stdin.flush()
                for _ in range(H):
                    line = proc.stdout.readline()
                    if not line:
                        raise SolverProtocolError("child closed its output")
                    vals = [float(v) for v in line.split()]
                    if len(vals) != W:
                        raise SolverProtocolError(
                            f"expected {W} values per row, got {len(vals)}"
                        )
                    rows.append(vals)
                trailer = proc.stdout.readline().strip()
                if trailer != "END":
                    raise SolverProtocolError(f"expected END trailer, got {trailer!r}")
            except Exception as exc:  # noqa: BLE001 - reported to caller
                error.append(exc)

        worker = threading.Thread(target=exchange, daemon=True)
        worker.start()
        worker.join(self.timeout)
        if worker.is_alive():
            proc.kill()
            raise SolverProtocolError(f"solver timed out after {self.timeout}s")
        if error:
            if proc.poll() is not None and proc.returncode != 0:
                raise SolverProtocolError(
                    f"solver exited with code {proc.returncode}"
                ) from error[0]
            raise SolverProtocolError(str(error[0])) from error[0]
        if not np.isfinite(rows).all():  # a NaN would pass the clip
            raise SolverProtocolError("solver answered a value that is not finite")
        return np.clip(np.array(rows, dtype=np.float64), 0.0, 1.0)

    def close(self):
        """Stop the child if it still runs, reap it, and close both of its
        pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:  # unsent input to a child that is gone
            pass
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def make_solver(spec: str):
    """CLI solver specs: "zeros", "oracle", "budget[:N]", or "cmd:<command>"."""
    if spec == "zeros":
        return ZerosSolver()
    if spec == "oracle":
        return OracleSolver()
    if spec == "budget" or spec.startswith("budget:"):
        n = spec[len("budget:"):] or "16"
        if not (n.isascii() and n.isdigit()) or int(n) < 1:
            raise MazeError(f"bad solver spec {spec!r}: the budget must be a positive integer")
        return BudgetedNcaSolver(int(n))
    if spec.startswith("cmd:"):
        return ExternalSolver(spec[4:])
    raise MazeError(f"unknown solver spec {spec!r}")
