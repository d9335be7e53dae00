"""Check a 256 x 256 DFS against the classical priority DFS.

A p = 0.3 grid of 256 x 256 cells, stepped from the first tile of its
largest component, runs tens of thousands of DFS steps.  The tier-1 suite
stays under 64 x 64, so this script is the check at that scale.  It is not
collected by pytest; run it from the root of a checkout:

    PYTHONPATH=src python tests/large_dfs.py

It prints the run's size and exits 1 if the visit order differs from
``oracle.dfs_order``.
"""

import sys
import time

import numpy as np

from mazenca.dfs import run_dfs
from mazenca.grid import Maze
from mazenca.oracle import dfs_order
from sweep import largest_component_start


def main() -> int:
    maze = Maze(walls=np.random.default_rng([256, 3]).random((256, 256)) < 0.3)
    start = largest_component_start(maze)
    t0 = time.perf_counter()
    trace = run_dfs(maze, start)
    t1 = time.perf_counter()
    expected = dfs_order(maze, start)
    t2 = time.perf_counter()
    print(f"256x256 p=0.3 DFS from {start}: {len(trace.visit_order)} visits, "
          f"{trace.steps_used} steps in {t1 - t0:.1f} s; oracle {t2 - t1:.1f} s")
    if trace.visit_order != expected:
        k = next((i for i, (a, b) in enumerate(zip(trace.visit_order, expected)) if a != b),
                 min(len(trace.visit_order), len(expected)))
        print(f"visit order differs from dfs_order at visit {k}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
