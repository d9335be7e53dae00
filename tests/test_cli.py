import hashlib
import json
import os
import shlex
import sys
import time

import numpy as np
import pytest

from mazenca import verify
from mazenca.cli import main
from mazenca.dataset import read_dataset, read_trace
from mazenca.oracle import dfs_order
from mazenca.grid import parse_maze


def write_maze(tmp_path, text, name="maze.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_gen_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["gen", "--task", "shortest_path", "--n", "5",
                 "--size", "8", "--seed", "3", "--out", str(out)]) == 0
    records = read_dataset(out)
    assert len(records) == 5
    for rec in records:
        assert rec.meta["d_tiles"] == int(rec.solution.sum())


def test_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen", "--task", "shortest_path", "--n", "4", "--size", "8",
            "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_prints_overlay_and_length(tmp_path, capsys):
    path = write_maze(tmp_path, "S...T")
    assert main(["solve", "--maze", path]) == 0
    out = capsys.readouterr().out
    assert "SoooT" in out
    assert "d_tiles: 5" in out


def test_solve_odd_distance(tmp_path, capsys):
    path = write_maze(tmp_path, "S..T")
    assert main(["solve", "--maze", path]) == 0
    assert "d_tiles: 4" in capsys.readouterr().out


def test_solve_unreachable(tmp_path, capsys):
    path = write_maze(tmp_path, "S#T")
    assert main(["solve", "--maze", path]) == 1
    assert "unreachable" in capsys.readouterr().err


def test_dfs_prints_visit_order(tmp_path, capsys):
    path = write_maze(tmp_path, "..\n..")
    assert main(["dfs", "--maze", path, "--start", "0,0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["0,0", "1,0", "1,1", "0,1"]


def test_dfs_default_start_is_first_empty(tmp_path, capsys):
    path = write_maze(tmp_path, "#.\n..")
    assert main(["dfs", "--maze", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    expect = dfs_order(parse_maze("#.\n.."), (0, 1))
    assert lines == [f"{r},{c}" for r, c in expect]


def test_diameter_command(tmp_path, capsys):
    path = write_maze(tmp_path, "...\n...\n...")
    assert main(["diameter", "--maze", path]) == 0
    out = capsys.readouterr().out
    assert "length: 5" in out
    assert "endpoints: (0, 0) (2, 2)" in out


def test_verify_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCA_THREADS", "1")
    assert main(["verify", "--task", "shortest_path", "--n", "5",
                 "--size", "8", "--seed", "7"]) == 0
    assert "5/5 exact" in capsys.readouterr().out


@pytest.mark.parametrize("size, sides", [(1, [1]), (2, [2]), (3, [3]), (6, [4, 5, 6])])
def test_verify_dfs_cycles_sizes_up_to_the_given_size(capsys, monkeypatch, size, sides):
    # sizes below 4 once checked 4x4 mazes and reported them as exact
    monkeypatch.setenv("NCA_THREADS", "1")
    seen = []
    original = verify.seeded_maze

    def recording(task, height, width, seed, index):
        seen.append(height)
        assert height == width
        return original(task, height, width, seed, index)

    monkeypatch.setattr(verify, "seeded_maze", recording)
    assert main(["verify", "--task", "dfs", "--n", "6", "--size", str(size)]) == 0
    assert "6/6 exact" in capsys.readouterr().out
    assert seen == [sides[i % len(sides)] for i in range(6)]


def test_evolve_command(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "8", "--size", "8",
          "--seed", "2", "--out", str(data)])
    out = tmp_path / "evolved.jsonl"
    stats = tmp_path / "stats.csv"
    assert main(["evolve", "--dataset", str(data), "--solver", "budget:4",
                 "--generations", "3", "--out", str(out),
                 "--stats-out", str(stats), "--batch-size", "4",
                 "--n-flips", "3", "--loss-threshold", "1.0"]) == 0
    assert len(read_dataset(out)) == 8
    rows = stats.read_text().strip().split("\n")
    assert rows[0] == "generation,mean_loss,mean_solution_length,replacements,mutated"
    assert len(rows) == 4


def test_evolve_scores_a_diameter_dataset_with_the_oracle(tmp_path):
    data = tmp_path / "data.jsonl"
    assert main(["gen", "--task", "diameter", "--n", "24", "--size", "8",
                 "--seed", "5", "--out", str(data)]) == 0
    out, stats = tmp_path / "evolved.jsonl", tmp_path / "stats.csv"
    assert main(["evolve", "--dataset", str(data), "--solver", "oracle",
                 "--generations", "2", "--out", str(out), "--stats-out", str(stats),
                 "--batch-size", "8", "--n-flips", "3", "--loss-threshold", "1.0"]) == 0
    assert len(read_dataset(out)) == 24


@pytest.mark.parametrize("threshold", ["1.0", "0.0"])
@pytest.mark.parametrize("flips", ["0", "-3"])
def test_evolve_without_flips_is_usage_error(tmp_path, capsys, flips, threshold):
    # with threshold 1.0 every generation mutates, with 0.0 none does; both
    # fail before any work, and write nothing
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "4", "--size", "6",
          "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    out, stats = tmp_path / "e.jsonl", tmp_path / "s.csv"
    assert main(["evolve", "--dataset", str(data), "--solver", "zeros",
                 "--generations", "2", "--out", str(out), "--stats-out", str(stats),
                 "--batch-size", "2", "--n-flips", flips, "--loss-threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"--n-flips must be at least 1, got {flips}"
    assert not out.exists() and not stats.exists()


def test_trace_command_and_determinism(tmp_path):
    path = write_maze(tmp_path, "S...T")
    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["trace", "--maze", path, "--algo", "bfs", "--out", str(t1)]) == 0
    assert main(["trace", "--maze", path, "--algo", "bfs", "--out", str(t2)]) == 0
    assert hashlib.sha256(t1.read_bytes()).digest() == \
        hashlib.sha256(t2.read_bytes()).digest()
    frames = read_trace(t1)
    assert frames.shape == (3, 3, 1, 5)  # meet_step 3, three hidden channels
    assert frames[0, 0, 0, 0] == 1.0  # flood_s starts at the source


def test_trace_extract_and_dfs(tmp_path):
    path = write_maze(tmp_path, "S...T")
    out = tmp_path / "e.trace"
    assert main(["trace", "--maze", path, "--algo", "extract",
                 "--out", str(out)]) == 0
    assert read_trace(out).shape[1] == 5
    path2 = write_maze(tmp_path, "...\n...", name="open.txt")
    out2 = tmp_path / "d.trace"
    assert main(["trace", "--maze", path2, "--algo", "dfs", "--out", str(out2),
                 "--start", "0,0"]) == 0
    assert read_trace(out2).shape[1] == 9


def test_render_command(tmp_path, capsys):
    path = write_maze(tmp_path, "S..T")
    assert main(["render", "--maze", path, "--algo", "bfs",
                 "--channel", "0"]) == 0
    out = capsys.readouterr().out
    assert "step 1" in out and "step 2" in out


def test_render_channel_out_of_range(tmp_path, capsys):
    path = write_maze(tmp_path, "S..T")
    assert main(["render", "--maze", path, "--algo", "bfs",
                 "--channel", "9"]) == 2
    assert "channel" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["9,9", "-1,0", "0,-1", "3,0"])
def test_dfs_start_outside_maze_is_usage_error(tmp_path, capsys, start):
    path = write_maze(tmp_path, "...\n...\n...")
    assert main(["dfs", "--maze", path, f"--start={start}"]) == 2
    captured = capsys.readouterr()
    assert "outside" in captured.err and captured.out == ""


@pytest.mark.parametrize("cmd", [
    ["dfs"],
    ["trace", "--algo", "dfs", "--out", "unused.trace"],
    ["render", "--algo", "dfs"],
])
def test_dfs_start_on_a_wall_is_usage_error(tmp_path, capsys, cmd):
    path = write_maze(tmp_path, ".#\n..")
    assert main([cmd[0], "--maze", path, "--start", "0,1", *cmd[1:]]) == 2
    captured = capsys.readouterr()
    assert "(0, 1) is a wall" in captured.err and captured.out == ""


@pytest.mark.parametrize("cmd", [
    ["trace", "--algo", "bfs", "--out", "unused.trace"],
    ["render", "--algo", "bfs"],
])
def test_unreachable_target_has_no_flood_trace(tmp_path, capsys, cmd):
    path = write_maze(tmp_path, "S.#..\n..#.T")
    assert main([cmd[0], "--maze", path, *cmd[1:]]) == 1
    captured = capsys.readouterr()
    assert "floods never met; no trace" in captured.err and captured.out == ""


def test_verify_bad_thread_count_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NCA_THREADS", "abc")
    assert main(["verify", "--task", "dfs", "--n", "1", "--size", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "NCA_THREADS must be an integer, got 'abc'\n"


def test_verify_non_square_size_is_usage_error(capsys):
    assert main(["verify", "--task", "dfs", "--n", "1", "--size", "8x12"]) == 2
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["budget:x", "budget:0", "budgetx"])
def test_evolve_bad_solver_spec_is_usage_error(tmp_path, capsys, spec):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "2", "--size", "6",
          "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    assert main(["evolve", "--dataset", str(data), "--solver", spec,
                 "--generations", "1", "--out", str(tmp_path / "e.jsonl"),
                 "--stats-out", str(tmp_path / "s.csv")]) == 2
    assert spec in capsys.readouterr().err


BAD_RECORDS = {
    "list": lambda record: [1],
    "maze-number": lambda record: {**record, "maze": 5},
    "maze-row-number": lambda record: {**record, "maze": ["S.", 5]},
    "solution-string": lambda record: {**record, "solution": "01"},
    "id-number": lambda record: {**record, "id": 3},
    "meta-list": lambda record: {**record, "meta": [1]},
    "d_tiles-string": lambda record: {**record, "meta": {"d_tiles": "x"}},
    "d_tiles-bool": lambda record: {**record, "meta": {"d_tiles": True}},
}


@pytest.mark.parametrize("edit", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_evolve_rejects_a_structurally_bad_record_in_one_line(tmp_path, capsys, edit):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "2", "--size", "6",
          "--seed", "2", "--out", str(data)])
    first, second = data.read_text().splitlines()
    data.write_text(first + "\n" + json.dumps(edit(json.loads(second))) + "\n")
    capsys.readouterr()
    assert main(["evolve", "--dataset", str(data), "--solver", "zeros",
                 "--generations", "1", "--out", str(tmp_path / "e.jsonl"),
                 "--stats-out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{data}:2: ") and err.count("\n") == 1
    assert "Traceback" not in err


EVOLVE_ONE = ["--solver", "zeros", "--generations", "1", "--loss-threshold", "1.0",
              "--batch-size", "1"]


def test_evolve_rejects_a_record_of_an_unknown_task(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "2", "--size", "6",
          "--seed", "2", "--out", str(data)])
    first, second = data.read_text().splitlines()
    data.write_text(first + "\n" + json.dumps({**json.loads(second), "task": "foo"}) + "\n")
    capsys.readouterr()
    out, stats = tmp_path / "e.jsonl", tmp_path / "s.csv"
    assert main(["evolve", "--dataset", str(data), *EVOLVE_ONE,
                 "--out", str(out), "--stats-out", str(stats)]) == 1
    err = capsys.readouterr().err
    assert err == f"{data}:2: unknown task 'foo'\n"
    assert not out.exists() and not stats.exists()


def test_evolve_rejects_a_dataset_of_mixed_tasks(tmp_path, capsys):
    # the evolution takes its task from the first record; a later record of
    # another task would be mutated and labelled as the first one's
    diameter, shortest = tmp_path / "d.jsonl", tmp_path / "sp.jsonl"
    for task, path in (("diameter", diameter), ("shortest_path", shortest)):
        main(["gen", "--task", task, "--n", "1", "--size", "6", "--seed", "2",
              "--out", str(path)])
    data = tmp_path / "data.jsonl"
    data.write_text(diameter.read_text() + shortest.read_text())
    capsys.readouterr()
    out, stats = tmp_path / "e.jsonl", tmp_path / "s.csv"
    assert main(["evolve", "--dataset", str(data), *EVOLVE_ONE,
                 "--out", str(out), "--stats-out", str(stats)]) == 1
    err = capsys.readouterr().err
    assert err == "record 2 (shortest_path-2-0) has task 'shortest_path', " \
        "not the evolution's 'diameter'\n"
    assert "Traceback" not in err
    assert not out.exists() and not stats.exists()


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_evolve_closes_external_solver(tmp_path):
    # the child answers every request with zeros, then lingers after EOF, so
    # only an explicit close ends it
    pid_file = tmp_path / "child.pid"
    script = tmp_path / "zeros_solver.py"
    script.write_text(
        "import os, sys, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "while True:\n"
        "    line = sys.stdin.readline()\n"
        "    if not line:\n"
        "        time.sleep(30)\n"
        "        break\n"
        "    _, h, w = line.split()\n"
        "    for _ in range(int(h)):\n"
        "        sys.stdin.readline()\n"
        "    for _ in range(int(h)):\n"
        "        print(' '.join(['0'] * int(w)))\n"
        "    print('END', flush=True)\n"
    )
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "4", "--size", "6",
          "--seed", "2", "--out", str(data)])
    assert main(["evolve", "--dataset", str(data),
                 "--solver", "cmd:" + shlex.join([sys.executable, str(script)]),
                 "--generations", "1", "--out", str(tmp_path / "e.jsonl"),
                 "--stats-out", str(tmp_path / "s.csv"), "--batch-size", "2"]) == 0
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while _pid_alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = _pid_alive(pid)
    if alive:
        os.kill(pid, 9)
    assert not alive, "external solver still running after evolve returned"


def test_evolve_rejects_a_solver_that_answers_nan(tmp_path, capsys):
    # a NaN loss would compare False with the threshold, so every generation
    # would mutate on a solver that says nothing
    script = tmp_path / "nan_solver.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    _, h, w = line.split()\n"
        "    for _ in range(int(h)):\n"
        "        sys.stdin.readline()\n"
        "    for _ in range(int(h)):\n"
        "        print(' '.join(['nan'] * int(w)))\n"
        "    print('END', flush=True)\n"
    )
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "4", "--size", "6",
          "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    out, stats = tmp_path / "e.jsonl", tmp_path / "s.csv"
    assert main(["evolve", "--dataset", str(data),
                 "--solver", "cmd:" + shlex.join([sys.executable, str(script)]),
                 "--generations", "2", "--out", str(out), "--stats-out", str(stats),
                 "--batch-size", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.strip() == "solver answered a value that is not finite"
    assert not out.exists() and not stats.exists()


def test_evolve_nan_loss_threshold_is_usage_error(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "4", "--size", "6",
          "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    out, stats = tmp_path / "e.jsonl", tmp_path / "s.csv"
    assert main(["evolve", "--dataset", str(data), "--solver", "zeros",
                 "--generations", "2", "--out", str(out), "--stats-out", str(stats),
                 "--batch-size", "2", "--loss-threshold", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.strip() == "--loss-threshold must be a number, got nan"
    assert not out.exists() and not stats.exists()


def test_missing_file_is_runtime_error(tmp_path, capsys):
    assert main(["solve", "--maze", str(tmp_path / "nope.txt")]) == 1


@pytest.mark.parametrize("args", [
    ["verify", "--task", "dfs", "--n", "-3"],
    ["gen", "--task", "shortest_path", "--n", "-1", "--out", "unused.jsonl"],
    ["gen", "--task", "shortest_path", "--n", "1", "--size", "0", "--out", "unused.jsonl"],
    ["gen", "--task", "shortest_path", "--n", "1", "--size", "3x0", "--out", "unused.jsonl"],
    ["evolve", "--dataset", "unused.jsonl", "--solver", "zeros", "--generations", "-1",
     "--out", "unused.jsonl", "--stats-out", "unused.csv"],
    ["evolve", "--dataset", "unused.jsonl", "--solver", "zeros", "--generations", "1",
     "--batch-size", "-2", "--out", "unused.jsonl", "--stats-out", "unused.csv"],
])
def test_negative_counts_and_empty_sizes_are_usage_errors(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "negative" in captured.err or "at least 1" in captured.err


@pytest.mark.parametrize("cmd", [
    ["solve", "--maze"],
    ["evolve", "--solver", "zeros", "--generations", "1", "--out", "unused.jsonl",
     "--stats-out", "unused.csv", "--dataset"],
])
def test_non_utf8_file_is_runtime_error(tmp_path, capsys, cmd):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfeS\x00.\x00T\x00")
    assert main([*cmd, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"{path}: not UTF-8 text (byte 0: invalid start byte)"


# sha256 of the files ``evolve --out/--stats-out`` writes for a seeded
# dataset, pinned before offspring were scored in canvases
EVOLVE_OUT_SHA256 = ("5938b3c2df9aedbb8fe294c6749f393dd46f8b38b91f0c5dc0b4ea892ea8e0c2",
                     "b074ea1fc7747f6a44d774942863c61293ccc6b93afea56b9aa94a94be1b9ae2")


def test_evolve_outputs_are_unchanged(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["gen", "--task", "shortest_path", "--n", "24", "--size", "10",
          "--seed", "7", "--out", str(data)])
    out = tmp_path / "evolved.jsonl"
    stats = tmp_path / "stats.csv"
    assert main(["evolve", "--dataset", str(data), "--solver", "budget:6",
                 "--generations", "4", "--out", str(out), "--stats-out", str(stats),
                 "--batch-size", "12", "--n-flips", "4", "--loss-threshold", "1.0",
                 "--seed", "3"]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, stats))
    assert got == EVOLVE_OUT_SHA256
