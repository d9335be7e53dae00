import numpy as np

from mazenca import verify
from mazenca.diameter import diameter_nca
from mazenca.verify import seeded_maze, verify_task

SEED = 4321


def test_chunks_check_the_same_in_one_process_and_in_a_pool():
    # 21 mazes make two chunks of 8 and a short last chunk of 5
    in_process = verify_task("diameter", 21, SEED, workers=1)
    assert in_process == verify_task("diameter", 21, SEED, workers=2)
    assert in_process == (21, [])


def test_a_failing_maze_reports_only_its_own_index(monkeypatch):
    # maze 13 sits inside the second chunk, whose diameters run as one batch
    bad = seeded_maze("diameter", 16, 16, SEED, 13)
    length = diameter_nca(bad).diameter_len
    original = verify.diameter_oracle

    def oracle(maze):
        got, pair = original(maze)
        return (got + 1, pair) if np.array_equal(maze.walls, bad.walls) else (got, pair)

    monkeypatch.setattr(verify, "diameter_oracle", oracle)
    assert verify_task("diameter", 21, SEED, workers=1) == (
        20, [f"maze 13: diameter {length} != oracle {length + 1}"])
