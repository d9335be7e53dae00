"""The shared run loop: trace frames come from the automata's own runs, the
traces are unchanged, and step functions are looked up at call time."""

import hashlib
from collections import Counter

import numpy as np
import pytest

import mazenca.bfs
from mazenca import bfs, dfs, extract, loop
from mazenca.bfs import run_bfs
from mazenca.cli import main
from mazenca.dataset import read_trace
from mazenca.dfs import run_dfs
from mazenca.extract import ExtractionFailed, run_extract
from mazenca.grid import (CH_SOURCE, CH_TARGET, GenConfig, Maze, MazeError, generate_maze,
                          parse_maze, render_maze)
from mazenca.tensor import KernelStack
from sweep import endpoint_sweep
from test_tensor import naive_conv2d

# 12 x 9 maze whose traces are pinned byte for byte; the DFS starts at S,
# inside the largest component, so its trace pushes and pops
GOLDEN_MAZE = """\
.#..###.#
##.#.#.#.
.#.##.#..
#####.#..
..#.#.#..
...###.#.
.##......
###......
#..S.#...
#..##...T
####..#.#
......#..
"""
GOLDEN_SHA256 = {
    "bfs": "6d4e5554fb427a2121ee06f15d09dc1f893dbb085b539ba46a64baa083164904",
    "extract": "bf9f6a41b6a4e9128111651a1fdcdffcd3cfb02143e4dd893cd12def67a24317",
    "dfs": "4f5deeb7b19a72b7afd5d2ee1467b0109efa563050f9c8d6fbe4acb52ad3c62d",
}


def _mazes():
    texts = ["S......T", "S\n.\n.\n.\n.\nT", "S...\n....\n....\n...T", "ST"]
    for i, (h, w) in enumerate([(6, 6), (8, 8), (5, 11), (10, 4)]):
        maze = generate_maze(GenConfig(width=w, height=h), rng=np.random.default_rng([5, i]))
        texts.append(render_maze(maze))
    return texts


def _trace_frames(tmp_path, text, algo):
    path = tmp_path / "maze.txt"
    path.write_text(text)
    out = tmp_path / f"{algo}.trace"
    assert main(["trace", "--maze", str(path), "--algo", algo, "--out", str(out)]) == 0
    return read_trace(out)


@pytest.mark.parametrize("text", _mazes())
def test_trace_frame_counts_match_the_runs(tmp_path, text):
    maze = parse_maze(text)
    bfs = run_bfs(maze)
    assert len(_trace_frames(tmp_path, text, "bfs")) == bfs.meet_step
    # the fixpoint is detected one step after the path last changed
    fixpoint_step = run_extract(bfs).steps_used + 1
    assert len(_trace_frames(tmp_path, text, "extract")) == fixpoint_step
    start = tuple(int(v) for v in np.argwhere(~maze.walls)[0])
    assert len(_trace_frames(tmp_path, text, "dfs")) == run_dfs(maze, start).steps_used


@pytest.mark.parametrize("algo", ["bfs", "extract", "dfs"])
def test_trace_bytes_are_unchanged(tmp_path, algo):
    path = tmp_path / "maze.txt"
    path.write_text(GOLDEN_MAZE)
    out = tmp_path / "run.trace"
    start = ["--start", "8,3"] if algo == "dfs" else []
    assert main(["trace", "--maze", str(path), "--algo", algo, "--out", str(out), *start]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[algo]


def test_step_function_is_looked_up_at_call_time(monkeypatch):
    # the benchmark's tracer swaps mazenca.bfs.bfs_step by name
    calls = []
    original = mazenca.bfs.bfs_step

    def counting(state):
        calls.append(state.step)
        return original(state)

    monkeypatch.setattr(mazenca.bfs, "bfs_step", counting)
    result = run_bfs(parse_maze(GOLDEN_MAZE))
    assert result.met and len(calls) == result.meet_step


def test_run_loop_halts_observes_and_stops_at_horizon():
    # a canvas of one copy never drops rows, so its state needs no planes
    def halts_at(step):
        return lambda prev, s, m: np.arange(m) if s == step else np.arange(0)

    seen, reads = [], []

    def record(s, m, at, ids):
        reads.append((s, m, at.tolist(), ids.tolist()))

    left = loop.run_canvas(lambda s: s + 1, 0, 1, halts_at(3), record, 10, seen.append)
    assert (left.tolist(), seen, reads) == ([], [1, 2, 3], [(3, 1, [0], [0])])
    reads.clear()
    left = loop.run_canvas(lambda s: s + 1, 0, 1, halts_at(5), record, 4)
    assert (left.tolist(), reads) == ([0], [(4, 1, [0], [0])])

    # flood copies meet or prove their target unreachable at different
    # steps; each is read once, at its own single run's halting step
    mazes = [parse_maze(text) for text in
             ("S......T", "ST......", "S..#...T", ".S...T..", "S.T.....", "S.....T.")]
    want = [run_bfs(maze).final.step for maze in mazes]
    assert len(set(want)) > 3
    seen, reads = [], []

    def read(state, m, at, ids):
        reads.extend((i, state.step) for i in ids.tolist())

    ends = ((CH_SOURCE, np.array([maze.source for maze in mazes])),
            (CH_TARGET, np.array([maze.target for maze in mazes])))
    canvas = bfs.flood_canvas(np.array([maze.walls for maze in mazes]), ends, bfs.N_HIDDEN)
    left = loop.run_canvas(bfs.bfs_step, canvas, len(mazes), bfs.floods_halted, read, 10,
                           seen.append)
    assert left.tolist() == [] and len(seen) == max(want)
    assert sorted(reads) == list(enumerate(want))


def _run_states(algo):
    """Every state of one run over the golden maze, and its step function."""
    maze = parse_maze(GOLDEN_MAZE)
    states = []
    if algo == "bfs":
        run_bfs(maze, observe=states.append)
        return states, bfs.bfs_step
    run_extract(run_bfs(maze), observe=states.append)
    return states, extract.extract_step


@pytest.mark.parametrize("algo", ["bfs", "extract"])
def test_step_returns_a_fresh_state_and_never_writes_its_input(algo):
    # loop.run_canvas hands the previous state to the halting rule uncopied, and the
    # trace keeps every state, so a flood or extraction step must not write
    # its input
    states, step_fn = _run_states(algo)
    for state in (states[0], states[len(states) // 2]):
        hidden, const = state.hidden.copy(), state.const.copy()
        a, b = step_fn(state), step_fn(state)
        assert a.step == b.step == state.step + 1
        np.testing.assert_array_equal(a.hidden, b.hidden)
        assert not np.shares_memory(a.hidden, state.hidden)
        np.testing.assert_array_equal(state.hidden, hidden)
        np.testing.assert_array_equal(state.const, const)
        np.testing.assert_array_equal(a.const, const)


def test_a_dfs_state_stays_readable_until_its_successor_is_stepped():
    # A DFS run writes its planes and its base in place and keeps the undo
    # of its last step, so a tracer wrapped around dfs_step reads the state
    # it stepped: a state reads the same until its successor is stepped, and
    # only the run's last state can be stepped.  A step adds the route's
    # stamps, the conv of the tiles it routes, to the run's base.
    maze, start = parse_maze(GOLDEN_MAZE), (8, 3)
    n = run_dfs(maze, start).steps_used
    state = dfs.initial_state(maze, start, 2 * int((~maze.walls).sum()))
    route = dfs.build_dfs_weights().weights[:, dfs.ROUTE : dfs.ROUTE + 1]
    route = KernelStack(route, np.zeros(dfs.N_HIDDEN))
    for _ in range(n):
        hidden, const = state.hidden, state.arrays.base.copy()
        a = dfs.dfs_step(state)
        assert a.step == state.step + 1
        assert not np.shares_memory(a.hidden, state.hidden)
        np.testing.assert_array_equal(state.hidden, hidden)
        routed = a.hidden[dfs.ROUTE] - hidden[dfs.ROUTE]
        assert routed.sum() <= 1
        np.testing.assert_array_equal(a.arrays.base, const + naive_conv2d(routed[None], route))
        with pytest.raises(RuntimeError, match="last state"):
            dfs.dfs_step(state)
        state, prev = a, state
    dfs.dfs_step(state)
    with pytest.raises(RuntimeError, match="2 steps behind"):
        prev.hidden


def test_static_stack_is_convolved_once_per_run(monkeypatch):
    maze = parse_maze(GOLDEN_MAZE)
    calls = Counter()
    # the DFS adds its route's and pebble's shares as stamps, and convolves
    # only the centre taps of its dynamic stack
    stacks = {bfs: bfs.flood_stacks(bfs.N_HIDDEN), extract: (extract.DYNAMIC, extract.STATIC),
              dfs: (dfs._centre(), dfs.STATIC)}
    for module, (dynamic, static) in stacks.items():
        original = module.conv2d

        def counting(x, kernels, base=None, name=module.__name__, dynamic=dynamic,
                     static=static, original=original):
            kind = "static" if kernels is static else "dynamic" if kernels is dynamic else "?"
            calls[name, kind] += 1
            return original(x, kernels, base)

        monkeypatch.setattr(module, "conv2d", counting)

    # the flood convolves no static stack: its constant plane is looked up
    # from the static stack's centre taps, once per run
    canvas = bfs.flood_canvas

    def counting_canvas(walls, ends, planes):
        calls["mazenca.bfs", "canvas"] += 1
        return canvas(walls, ends, planes)

    monkeypatch.setattr(bfs, "flood_canvas", counting_canvas)
    result = run_bfs(maze)
    assert calls == {("mazenca.bfs", "canvas"): 1, ("mazenca.bfs", "dynamic"): result.meet_step}
    calls.clear()
    steps = run_extract(result).steps_used + 1
    assert calls == {("mazenca.extract", "static"): 1, ("mazenca.extract", "dynamic"): steps}
    calls.clear()
    steps = run_dfs(maze, (8, 3)).steps_used
    assert calls == {("mazenca.dfs", "static"): 1, ("mazenca.dfs", "dynamic"): steps}


def assert_same_flood(got, want, msg):
    assert (got.met, got.meet_step, got.final.step, got.maze) == \
        (want.met, want.meet_step, want.final.step, want.maze), msg
    for plane in ("frame", "const"):
        a, b = getattr(got.final, plane), getattr(want.final, plane)
        assert a.dtype == b.dtype and np.array_equal(a, b), (plane, msg)


@pytest.mark.parametrize("max_steps", [None, 16, 3])
def test_flood_and_extraction_batches_match_their_single_runs(monkeypatch, max_steps):
    # Sweep mazes grouped by shape run as one flood batch and one
    # extraction batch of their met floods.  Copies meet, prove their target
    # unreachable, or run out of steps at different steps, so the canvases
    # drop halted copies while others still run.
    kept = []
    keep = loop._keep

    def recording_keep(frame, live):
        kept.append(len(live))
        return keep(frame, live)

    monkeypatch.setattr(loop, "_keep", recording_keep)
    groups = endpoint_sweep(320, seed=29)
    assert sum(len(group) for group in groups) >= 300
    outcomes = Counter()
    for group in groups:
        singles = [run_bfs(maze, max_steps) for maze in group]
        batch = bfs.bfs_batch(group, max_steps)
        assert len(batch) == len(group)
        for got, want in zip(batch, singles):
            assert_same_flood(got, want, str(want.maze.walls))
            outcomes["met" if want.met else "capped" if want.final.step == max_steps
                     else "unreachable"] += 1
        met = [result for result in batch if result.met]
        paths = extract.extract_batch(met)
        for got, result in zip(paths, met):
            want = run_extract(result)
            assert got.steps_used == want.steps_used, str(result.maze.walls)
            assert got.mask.dtype == want.mask.dtype and np.array_equal(got.mask, want.mask)
    assert outcomes["met"] > 100 and outcomes["unreachable"] > 10
    assert outcomes["capped"] > 10 if max_steps else outcomes["capped"] == 0
    assert len(kept) > 20


def test_extraction_batch_raises_what_its_copies_raise():
    # a flood whose maze names a target off its extracted path fails its
    # single extraction; a batch fails with it, and without it does not
    mazes = [parse_maze("S....\n.....\n....T"), parse_maze("S.#..\n..#..\n....T"),
             parse_maze(".....\n.S.T.\n.....")]
    floods = bfs.bfs_batch(mazes)
    bad = floods[1]
    moved = bfs.BfsResult(met=True, meet_step=bad.meet_step, final=bad.final,
                          maze=Maze(walls=bad.maze.walls, source=bad.maze.source, target=(0, 4)))
    with pytest.raises(ExtractionFailed) as single:
        run_extract(moved)
    with pytest.raises(ExtractionFailed) as batch:
        extract.extract_batch([floods[0], moved, floods[2]])
    assert str(batch.value) == str(single.value)
    assert [r.mask.tolist() for r in extract.extract_batch(floods)] == \
        [run_extract(f).mask.tolist() for f in floods]
    with pytest.raises(MazeError, match="met flood"):
        extract.extract_batch([floods[0], run_bfs(parse_maze("S#T"))])
    with pytest.raises(MazeError, match="one shape"):
        bfs.bfs_batch([mazes[0], parse_maze("S.T")])
    assert bfs.bfs_batch([]) == [] and extract.extract_batch([]) == []
