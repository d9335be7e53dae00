"""Hand-coded neural-cellular-automaton maze algorithms.

Deterministic convolutional automata that realize classical graph algorithms
on grid mazes -- bidirectional flood (Dijkstra map), shortest-path
extraction, priority depth-first search with a neural stack, and a
diameter computation that floods from many tiles at once, pruned by
eccentricity bounds -- plus oracles, dataset tooling, and an adversarial
dataset-evolution loop.
"""

from .bfs import BfsResult, BfsState, bfs_batch, run_bfs
from .dataset import (
    DatasetRecord,
    read_dataset,
    read_trace,
    write_dataset,
    write_trace,
)
from .dfs import DfsTrace, run_dfs
from .diameter import DiameterRun, diameter_batch, diameter_nca, schedule_dijkstra_calls
from .evolve import EvolutionConfig, GenerationStats, label_maze, run_evolution
from .extract import ExtractResult, ExtractionFailed, extract_batch, run_extract
from .grid import (
    GenConfig,
    Maze,
    MazeError,
    ParseError,
    generate_maze,
    one_hot,
    parse_maze,
    render_maze,
)
from .oracle import (
    Unreachable,
    canonical_shortest_path,
    dfs_order,
    diameter_oracle,
    distance_map,
    normalized_accuracy,
    shortest_path_union,
)
from .solvers import (
    BudgetedNcaSolver,
    ExternalSolver,
    OracleSolver,
    SolverProtocolError,
    ZerosSolver,
    make_solver,
)
from .verify import verify_task

__version__ = "0.1.0"

__all__ = [
    "BfsResult",
    "BfsState",
    "BudgetedNcaSolver",
    "DatasetRecord",
    "DfsTrace",
    "DiameterRun",
    "EvolutionConfig",
    "ExternalSolver",
    "ExtractResult",
    "ExtractionFailed",
    "GenConfig",
    "GenerationStats",
    "Maze",
    "MazeError",
    "OracleSolver",
    "ParseError",
    "SolverProtocolError",
    "Unreachable",
    "ZerosSolver",
    "bfs_batch",
    "canonical_shortest_path",
    "dfs_order",
    "diameter_batch",
    "diameter_nca",
    "diameter_oracle",
    "distance_map",
    "extract_batch",
    "generate_maze",
    "label_maze",
    "make_solver",
    "normalized_accuracy",
    "one_hot",
    "parse_maze",
    "read_dataset",
    "read_trace",
    "render_maze",
    "run_bfs",
    "run_dfs",
    "run_evolution",
    "run_extract",
    "schedule_dijkstra_calls",
    "shortest_path_union",
    "verify_task",
    "write_dataset",
    "write_trace",
]
