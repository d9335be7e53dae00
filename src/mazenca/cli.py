"""Command-line surface: dataset generation, solving, verification,
adversarial evolution, and per-step trace export/rendering.

Exit codes: 0 success, 1 runtime/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .bfs import run_bfs
from .dataset import DatasetRecord, read_dataset, read_utf8, write_dataset, write_trace
from .dfs import run_dfs
from .diameter import diameter_nca
from .evolve import EvolutionConfig, label_maze, run_evolution
from .extract import run_extract
from .grid import TASKS, GenConfig, Maze, MazeError, generate_maze, parse_maze, render_maze
from .solvers import ExternalSolver, make_solver
from .verify import default_workers, verify_task


class UsageError(MazeError):
    """Bad command-line input (exit code 2)."""


def _parse_size(text: str) -> tuple[int, int]:
    """"16" -> (16, 16); "16x24" -> 16 rows by 24 columns."""
    parts = text.lower().split("x")
    try:
        sides = [int(p) for p in parts]
    except ValueError:
        sides = []
    if len(sides) not in (1, 2):
        raise UsageError(f"bad size {text!r} (expected N or HxW)")
    if min(sides) < 1:
        raise UsageError(f"bad size {text!r} (sides must be at least 1)")
    return sides[0], sides[-1]


def _count(value: int, flag: str) -> int:
    """A count given on the command line, which must not be negative."""
    if value < 0:
        raise UsageError(f"{flag} must not be negative, got {value}")
    return value


def _load_maze(path: str) -> Maze:
    return parse_maze(read_utf8(path))


def _parse_start(text: str | None, maze: Maze) -> tuple[int, int] | None:
    """``--start row,col`` as a tile inside the maze, or None if not given."""
    if not text:
        return None
    try:
        r, c = text.split(",")
        tile = int(r), int(c)
    except ValueError:
        raise UsageError(f"bad tile {text!r} (expected row,col)") from None
    if not maze.contains(tile):
        raise UsageError(f"tile {tile} is outside the {maze.height}x{maze.width} maze")
    return tile


def _dfs_start(maze: Maze, start: tuple[int, int] | None) -> tuple[int, int]:
    """The given start tile, which must be empty, or the first empty tile."""
    if start is not None:
        if maze.walls[start]:
            raise UsageError(f"DFS start {start} is a wall")
        return start
    empties = np.argwhere(~maze.walls)
    if len(empties) == 0:
        raise MazeError("maze has no empty tiles")
    return int(empties[0][0]), int(empties[0][1])


def cmd_gen(args) -> int:
    height, width = _parse_size(args.size)
    records = []
    for i in range(_count(args.n, "--n")):
        cfg = GenConfig(width=width, height=height, task=args.task)
        maze = generate_maze(cfg, rng=np.random.default_rng([args.seed, i]))
        mask, length = label_maze(maze, args.task)
        records.append(
            DatasetRecord(
                id=f"{args.task}-{args.seed}-{i}",
                task=args.task,
                maze=maze,
                solution=mask,
                meta={"d_tiles": length, "seed": i},
            )
        )
    write_dataset(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_solve(args) -> int:
    maze = _load_maze(args.maze)
    bfs = run_bfs(maze)
    if not bfs.met:
        print("unreachable", file=sys.stderr)
        return 1
    mask = run_extract(bfs).mask
    # meet_step = ceil(d/2) + 1 pins d to two candidates; the parity of the
    # endpoint offsets picks the right one (the grid graph is bipartite)
    meet = bfs.meet_step
    parity = (
        abs(maze.source[0] - maze.target[0]) + abs(maze.source[1] - maze.target[1])
    ) % 2
    d = 2 * (meet - 1) - (1 if parity == 1 else 0)
    print(render_maze(maze, overlay=mask))
    print(f"d_tiles: {d + 1}")
    return 0


def cmd_dfs(args) -> int:
    maze = _load_maze(args.maze)
    trace = run_dfs(maze, _dfs_start(maze, _parse_start(args.start, maze)))
    for r, c in trace.visit_order:
        print(f"{r},{c}")
    return 0


def cmd_diameter(args) -> int:
    maze = _load_maze(args.maze)
    run = diameter_nca(maze)
    print(f"length: {run.diameter_len}")
    print(f"endpoints: {run.best_endpoint} {run.farthest}")
    print(render_maze(maze, overlay=run.witness))
    return 0


def cmd_verify(args) -> int:
    height, width = _parse_size(args.size)
    if height != width:
        raise UsageError("verify uses square mazes; pass a single size")
    _count(args.n, "--n")
    try:
        workers = default_workers()
    except MazeError as exc:
        raise UsageError(str(exc)) from None
    passed, failures = verify_task(args.task, args.n, args.seed, size=height, workers=workers)
    for msg in failures:
        print(msg, file=sys.stderr)
    print(f"{passed}/{args.n} exact")
    return 0 if passed == args.n else 1


def cmd_evolve(args) -> int:
    _count(args.generations, "--generations")
    _count(args.batch_size, "--batch-size")
    if args.n_flips is not None and args.n_flips < 1:
        raise UsageError(f"--n-flips must be at least 1, got {args.n_flips}")
    dataset = read_dataset(args.dataset)
    if not dataset:
        raise MazeError("empty dataset")
    try:
        solver = make_solver(args.solver)
    except MazeError as exc:
        raise UsageError(str(exc)) from None
    cfg = EvolutionConfig(
        generations=args.generations,
        task=dataset[0].task,
        loss_threshold=args.loss_threshold,
        batch_size=min(args.batch_size, len(dataset)),
        n_flips=args.n_flips,
        seed=args.seed,
    )
    try:
        evolved, stats = run_evolution(dataset, solver, cfg)
    finally:
        if isinstance(solver, ExternalSolver):
            solver.close()
    write_dataset(args.out, evolved)
    with open(args.stats_out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["generation", "mean_loss", "mean_solution_length", "replacements", "mutated"]
        )
        for g, s in enumerate(stats):
            writer.writerow(
                [g, f"{s.mean_loss:.6f}", f"{s.mean_solution_length:.4f}",
                 s.replacements, int(s.mutated)]
            )
    print(f"wrote {len(evolved)} records to {args.out}, stats to {args.stats_out}")
    return 0


def _collect_frames(maze: Maze, algo: str, start: tuple[int, int] | None) -> list[np.ndarray]:
    """Hidden state of every step of one run, the halting step included."""
    frames: list[np.ndarray] = []

    def observe(state):
        frames.append(state.hidden)

    if algo == "dfs":
        run_dfs(maze, _dfs_start(maze, start), observe=observe)
        return frames
    bfs = run_bfs(maze, observe=observe if algo == "bfs" else None)
    if not bfs.met:
        raise MazeError("floods never met; no trace")
    if algo == "extract":
        run_extract(bfs, observe=observe)
    return frames


def cmd_trace(args) -> int:
    maze = _load_maze(args.maze)
    frames = _collect_frames(maze, args.algo, _parse_start(args.start, maze))
    write_trace(args.out, frames)
    print(f"wrote {len(frames)} steps to {args.out}")
    return 0


def _format_plane(plane: np.ndarray) -> str:
    return "\n".join(" ".join(f"{int(v):3d}" for v in row) for row in plane)


def cmd_render(args) -> int:
    maze = _load_maze(args.maze)
    frames = _collect_frames(maze, args.algo, _parse_start(args.start, maze))
    if not 0 <= args.channel < frames[0].shape[0]:
        raise UsageError(
            f"channel {args.channel} out of range (0..{frames[0].shape[0] - 1})"
        )
    for t, frame in enumerate(frames, start=1):
        print(f"step {t}")
        print(_format_plane(frame[args.channel]))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazenca",
        description="Hand-coded cellular-automaton maze algorithms and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a JSON-Lines dataset")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", default="16", help="N or HxW")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="flood + extract a maze file")
    p.add_argument("--maze", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dfs", help="print the DFS visit order")
    p.add_argument("--maze", required=True)
    p.add_argument("--start", help="row,col (default: first empty tile)")
    p.set_defaults(func=cmd_dfs)

    p = sub.add_parser("diameter", help="diameter length, endpoints, witness")
    p.add_argument("--maze", required=True)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("verify", help="automaton-vs-oracle equivalence run")
    p.add_argument("--task", choices=["shortest_path", "dfs", "diameter"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", default="16")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="adversarially evolve a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--solver", required=True,
                   help="zeros | oracle | budget[:N] | cmd:<command>")
    p.add_argument("--generations", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--n-flips", type=int, default=None)
    p.add_argument("--loss-threshold", type=float, default=1e-3)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("trace", help="dump per-step channels to a binary trace")
    p.add_argument("--maze", required=True)
    p.add_argument("--algo", choices=["bfs", "extract", "dfs"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--start", help="row,col for dfs traces")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("render", help="print a per-step animation of one channel")
    p.add_argument("--maze", required=True)
    p.add_argument("--algo", choices=["bfs", "extract", "dfs"], required=True)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--start", help="row,col for dfs animations")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (MazeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
