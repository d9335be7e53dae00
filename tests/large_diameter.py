"""Check a 96 x 96 diameter against the classical diameter oracle.

A p = 0.3 grid of 96 x 96 cells floods several hundred single-source
copies over a few canvas runs.  The tier-1 suite stays at 64 x 64 and
below, so this script is the check at that scale.  It is not collected by
pytest; run it from the root of a checkout:

    PYTHONPATH=src python tests/large_diameter.py

It prints the run's size and exits 1 if the length or the endpoints differ
from ``oracle.diameter_oracle``, or if the witness is not the union of the
shortest paths between the endpoints.
"""

import sys
import time

import numpy as np

from mazenca.diameter import diameter_nca
from mazenca.grid import GenConfig, Maze, generate_maze
from mazenca.oracle import diameter_oracle, shortest_path_union


def main() -> int:
    maze = generate_maze(GenConfig(96, 96, "diameter", wall_probability=0.3, seed=0))
    t0 = time.perf_counter()
    run = diameter_nca(maze)
    t1 = time.perf_counter()
    length, endpoints = diameter_oracle(maze)
    t2 = time.perf_counter()
    print(f"96x96 p=0.3 diameter: length {run.diameter_len} from {run.best_endpoint} "
          f"to {run.farthest}, {run.floods} floods in {t1 - t0:.1f} s; oracle {t2 - t1:.1f} s")
    if (run.diameter_len, (run.best_endpoint, run.farthest)) != (length, endpoints):
        print(f"oracle gives length {length} between {endpoints}", file=sys.stderr)
        return 1
    _, union = shortest_path_union(Maze(walls=maze.walls, source=run.best_endpoint,
                                        target=run.farthest))
    if not np.array_equal(run.witness, union):
        print("witness differs from the shortest-path union of its endpoints", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
