import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca import diameter, loop
from mazenca.bfs import N_HIDDEN, SOURCE_PLANES, build_bfs_weights, flood_stacks, run_bfs
from mazenca.dfs import run_dfs
from mazenca.diameter import (
    DiameterRun,
    diameter_batch,
    diameter_nca,
    schedule_dijkstra_calls,
    source_ages,
)
from mazenca.extract import run_extract
from mazenca.grid import GenConfig, Maze, MazeError, generate_maze, parse_maze
from mazenca.oracle import diameter_oracle, distance_map, shortest_path_union
from mazenca.verify import seeded_maze
from sweep import sweep_mazes


def walls_only(text):
    return Maze(walls=parse_maze(text).walls)


def single_ages(maze, tiles):
    """source_ages of one maze: its tiles tagged with maze 0, its one upper
    bound plane."""
    ages, far, upper = source_ages([maze], np.column_stack([np.zeros(len(tiles), int), tiles]))
    return ages, far, upper[0]


def oracle_path_max(maze):
    expected = np.zeros(maze.walls.shape, dtype=np.int64)
    for y, x in np.argwhere(~maze.walls):
        expected[y, x] = distance_map(maze, (int(y), int(x))).max() + 1
    return expected


def test_open_square():
    run = diameter_nca(walls_only("...\n...\n..."))
    assert run.diameter_len == 5
    assert run.best_endpoint == (0, 0)
    assert run.farthest == (2, 2)


def test_corridor():
    run = diameter_nca(walls_only("....."))
    assert run.diameter_len == 5
    assert run.witness.all()


def test_singleton_component():
    run = diameter_nca(walls_only(".#"))
    assert run.diameter_len == 1
    assert run.witness.sum() == 1 and run.witness[0, 0]


def test_componentwise_restarts():
    # two components; the right one is longer and wins
    maze = walls_only(".#...")
    run = diameter_nca(maze)
    assert run.diameter_len == 3
    assert run.best_endpoint == (0, 2)
    assert diameter_oracle(maze) == (run.diameter_len, (run.best_endpoint, run.farthest))
    # the first round floods each component's first tile; (0, 3) and (0, 4)
    # get bounds 4 and 5 above the best age 3 and flood in the second round
    assert run.floods == 4
    # source_ages covers every empty tile across both components
    tiles = np.argwhere(~maze.walls)
    ages, _, _ = single_ages(maze, tiles)
    assert ages.tolist() == oracle_path_max(maze)[~maze.walls].tolist() == [1, 3, 2, 3]


def test_schedule_waits_match_visit_gaps():
    maze = walls_only("...\n.#.\n.#.")
    trace = run_dfs(maze, (0, 1))
    schedule = schedule_dijkstra_calls(trace)
    assert schedule[0][2] == 0  # first launch waits for nothing
    assert [tile for _, tile, _ in schedule] == trace.visit_order
    waits = [w for _, _, w in schedule]
    gaps = [b - a for a, b in zip(trace.visit_steps, trace.visit_steps[1:])]
    assert waits[1:] == gaps
    # launch steps are the running sum of the waits
    launches = [s for s, _, _ in schedule]
    assert launches == list(np.cumsum(waits))


def test_path_max_is_eccentricity_plus_one():
    maze = walls_only("...\n#..")
    tiles = np.argwhere(~maze.walls)
    ages, _, _ = single_ages(maze, tiles)
    for (y, x), age in zip(tiles, ages):
        ecc = int(distance_map(maze, (int(y), int(x))).max())
        assert age == ecc + 1


def test_path_max_matches_oracle_across_shapes_and_densities():
    # diameter_nca's ages, endpoints and bounds come from source_ages; here
    # every empty tile is a source, and no witness run is made.  Each
    # source's age is its eccentricity + 1, and its farthest tile is the
    # first row-major tile at the greatest distance from it.  With every tile
    # a source, each tile's bound comes down to its own age.
    mazes = sweep_mazes(1000, 12, seed=31)
    assert len(mazes) >= 1000
    for maze in mazes:
        tiles = np.argwhere(~maze.walls)
        ages, far, upper = single_ages(maze, tiles)
        dists = [distance_map(maze, (int(y), int(x))) for y, x in tiles]
        assert ages.tolist() == [int(d.max()) + 1 for d in dists], str(maze.walls)
        assert far.tolist() == [list(divmod(int(np.argmax(d)), maze.width)) for d in dists], \
            str(maze.walls)
        assert upper[~maze.walls].tolist() == ages.tolist(), str(maze.walls)
        assert (upper[maze.walls] == diameter.NO_BOUND).all()


def test_bound_fold_matches_oracle_on_chunks_of_chosen_tiles():
    # diameter_batch floods some of each maze's tiles, maze by maze, in
    # chunks that may cut a maze or hold none of its tiles.  Each flood's
    # age is its source's eccentricity + 1 and its farthest tile the first
    # row-major tile at its greatest distance; each maze's bound on v is the
    # least ecc(u) + d(u, v) + 1 over its sources u in the chunk, and
    # NO_BOUND where none of them reached v.
    by_shape = {}
    for maze in sweep_mazes(480, 6, seed=89):
        by_shape.setdefault(maze.walls.shape, []).append(maze)
    rng = np.random.default_rng(89)
    chunks = cut = skipped = 0
    for (H, W), group in by_shape.items():
        lo = 0
        while len(group) - lo >= 2:
            size = int(rng.integers(2, 9))
            mazes, lo = group[lo : lo + size], lo + size
            dists = [{(int(y), int(x)): distance_map(maze, (int(y), int(x)))
                      for y, x in np.argwhere(~maze.walls)} for maze in mazes]
            # the second maze of a longer chunk keeps none of its tiles
            chosen = [(i, *tile) for i, d in enumerate(dists) for tile in d
                      if rng.random() < 0.5 and not (i == 1 and len(mazes) > 2)]
            if not chosen:
                continue
            # a slice of the maze-major list, as diameter_batch cuts its runs
            a = int(rng.integers(0, (len(chosen) + 1) // 2))
            b = int(rng.integers(a + 1, len(chosen) + 1))
            tiles = np.array(chosen[a:b])
            ages, far, upper = source_ages(mazes, tiles)
            for (i, y, x), age, f in zip(tiles.tolist(), ages.tolist(), far.tolist()):
                d = dists[i][y, x]
                assert age == d.max() + 1, str(mazes[i].walls)
                assert f == list(divmod(int(np.argmax(d)), W)), str(mazes[i].walls)
            assert upper.shape == (len(mazes), H, W)
            for i, maze_dists in enumerate(dists):
                want = np.full((H, W), diameter.NO_BOUND, dtype=np.int64)
                for j, y, x in tiles.tolist():
                    if j == i:
                        d = maze_dists[y, x]
                        reached = d >= 0
                        want[reached] = np.minimum(want[reached], d.max() + d[reached] + 1)
                np.testing.assert_array_equal(upper[i], want, str(mazes[i].walls))
            chunks += 1
            first, last = chosen[a][0], chosen[b - 1][0]
            cut += (a > 0 and chosen[a - 1][0] == first) or (b < len(chosen) and chosen[b][0] == last)
            skipped += len(set(tiles[:, 0].tolist())) < len(mazes)
    assert chunks >= 100 and cut >= 50 and skipped >= 50, (chunks, cut, skipped)


# sha256 of every DiameterRun field of the seeded verify mazes (seed 1234):
# 64 of 16 x 16, then 32 of 9 x 9, as check_diameter runs them, in batches
# of 8.  Pinned before the two-plane canvas, its one bound fold and its
# gathered constant plane.
DIAMETER_SHA256 = "6a9c89c0d071a38597860406d0b1398a60cd87ea915985351c4bfb6385504d1c"


def test_diameter_runs_are_unchanged():
    digest = hashlib.sha256()
    for size, count in ((16, 64), (9, 32)):
        mazes = [seeded_maze("diameter", size, size, 1234, i) for i in range(count)]
        for lo in range(0, count, 8):
            for run in diameter_batch(mazes[lo : lo + 8]):
                fields = (run.diameter_len, run.best_endpoint, run.farthest, run.floods,
                          run.witness.dtype.str, run.witness.shape)
                digest.update(repr(fields).encode())
                digest.update(run.witness.tobytes())
    assert digest.hexdigest() == DIAMETER_SHA256


def exhaustive_diameter(maze):
    """Reference: a flood from every empty tile, the first row-major tile of
    greatest age, its flood's farthest tile and the witness between them."""
    tiles = np.argwhere(~maze.walls)
    ages, far, _ = single_ages(maze, tiles)
    k = int(np.argmax(ages))
    best = (int(tiles[k][0]), int(tiles[k][1]))
    farthest = (int(far[k][0]), int(far[k][1]))
    if best == farthest:
        witness = np.zeros(maze.walls.shape, dtype=bool)
        witness[best] = True
    else:
        witness = run_extract(run_bfs(Maze(walls=maze.walls, source=best, target=farthest))).mask
    return int(ages[k]), best, farthest, witness


def test_bounded_floods_match_exhaustive_canvas():
    open_grids = [Maze(walls=np.zeros((h, w), dtype=bool)) for h in range(1, 9) for w in range(1, 9)]
    mazes = sweep_mazes(1000, 12, seed=53) + open_grids
    for maze in mazes:
        run = diameter_nca(maze)
        length, best, far, witness = exhaustive_diameter(maze)
        assert (run.diameter_len, run.best_endpoint, run.farthest) == (length, best, far), \
            str(maze.walls)
        np.testing.assert_array_equal(run.witness, witness)
        assert 1 <= run.floods <= np.count_nonzero(~maze.walls)


def test_later_component_tying_the_diameter_does_not_win():
    # both components span 3 tiles.  The first round floods the corners
    # (0, 0) (age 2) and (0, 3) (age 3), so (0, 3) leads.  (0, 1) ties it
    # with bound 2 * 2 - 1 = 3 and comes earlier, so it floods and wins;
    # (1, 0) ties it too but comes later, so it never floods.
    maze = walls_only("..#.\n.#..")
    run = diameter_nca(maze)
    assert (run.diameter_len, run.best_endpoint, run.farthest) == (3, (0, 1), (1, 0))
    assert (3, ((0, 1), (1, 0))) == diameter_oracle(maze)
    assert run.floods == 5


def test_verify_mazes_flood_fewer_tiles_than_they_have():
    floods = tiles = 0
    for index in range(32):
        maze = seeded_maze("diameter", 16, 16, 1234, index)
        run = diameter_nca(maze)
        empty = np.count_nonzero(~maze.walls)
        assert run.floods < empty
        floods += run.floods
        tiles += empty
    assert floods < tiles / 2


def test_diameter_at_64_matches_oracle():
    maze = generate_maze(
        GenConfig(width=64, height=64, task="diameter", wall_probability=0.3, seed=0)
    )
    run = diameter_nca(maze)
    length, endpoints = diameter_oracle(maze)
    assert (run.diameter_len, (run.best_endpoint, run.farthest)) == (length, endpoints)
    pair = Maze(walls=maze.walls, source=run.best_endpoint, target=run.farthest)
    d, union = shortest_path_union(pair)
    assert d + 1 == length
    np.testing.assert_array_equal(run.witness, union)
    assert run.floods < np.count_nonzero(~maze.walls)


@pytest.mark.parametrize("cells", [diameter.CANVAS_CELLS, 40])
def test_gutter_isolates_copies_on_open_grid(monkeypatch, cells):
    # on an all-open grid every copy's last row would flood into the next
    # copy's first row if the wall row between them were missing; 40 cells
    # force one copy per canvas run
    monkeypatch.setattr(diameter, "CANVAS_CELLS", cells)
    maze = Maze(walls=np.zeros((6, 9), dtype=bool))
    run = diameter_nca(maze)
    assert diameter_oracle(maze) == (run.diameter_len, (run.best_endpoint, run.farthest))
    # (0, 0) is the only corner, and every other tile's bound 14 + d beats
    # its age 14, so the second round floods them all
    assert run.floods == maze.walls.size
    ages, _, _ = single_ages(maze, np.argwhere(~maze.walls))
    np.testing.assert_array_equal(ages.reshape(maze.walls.shape), oracle_path_max(maze))


def test_static_flood_taps_are_centre_taps():
    # the canvas fills each cell's constant plane from its own one-hot
    # channel's centre taps, and drops a settled copy's rows from it instead
    # of rebuilding it, which is exact only while every plane cell depends
    # on its own one-hot cell alone
    for static in (build_bfs_weights().split(N_HIDDEN)[1], flood_stacks(SOURCE_PLANES)[1]):
        assert static.taps()
        assert all((i, j) == (1, 1) for _, _, i, j, _ in static.taps())


def test_canvas_builds_its_constant_plane_once(monkeypatch):
    calls = []
    original = diameter.flood_canvas

    def counting(walls, ends, planes):
        calls.append((walls.shape, planes))
        return original(walls, ends, planes)

    monkeypatch.setattr(diameter, "flood_canvas", counting)
    maze = walls_only("....\n.#..\n....")
    tiles = np.argwhere(~maze.walls)
    ages, _, _ = single_ages(maze, tiles)
    # floods from different tiles settle at different steps, yet the canvas
    # is built once, for all 11 copies
    assert len(set(ages.tolist())) > 1
    assert calls == [((11, 3, 4), SOURCE_PLANES)]


def test_canvas_drops_settled_copies_once_half_have_settled(monkeypatch):
    # on a 1 x 9 corridor the flood from tile x settles at step
    # max(x, 8 - x) + 2: one copy at step 6, two at each later step.  At
    # step 8 five of nine have settled, so four copies stay; at step 9 two
    # of those four settle, so two stay; at step 10 the last two settle.
    # Frame and constant plane leave together, and the canvas is built once.
    kept, canvases = [], []
    keep, canvas = loop._keep, diameter.flood_canvas

    def recording_keep(frame, live):
        kept.append((len(live), int(live.sum())))
        return keep(frame, live)

    def counting_canvas(walls, ends, planes):
        canvases.append(walls.shape)
        return canvas(walls, ends, planes)

    monkeypatch.setattr(loop, "_keep", recording_keep)
    monkeypatch.setattr(diameter, "flood_canvas", counting_canvas)
    maze = walls_only(".........")
    ages, far, _ = single_ages(maze, np.argwhere(~maze.walls))
    assert ages.tolist() == [max(x, 8 - x) + 1 for x in range(9)]
    assert far.tolist() == [[0, 8] if x < 4 else [0, 0] for x in range(9)]
    assert kept == [(9, 4), (9, 4), (4, 2), (4, 2)]
    assert canvases == [(9, 1, 9)]


def assert_same_run(got, want, msg):
    for field in dataclasses.fields(DiameterRun):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), (field.name, msg)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (field.name, msg)
        else:
            assert a == b, (field.name, msg)


@pytest.mark.parametrize("cells", [diameter.CANVAS_CELLS, 40])
def test_batches_match_batches_of_one(monkeypatch, cells):
    # the sweep's mazes grouped by shape (corridors, all-open and
    # single-tile grids, multi-component random grids) run as batches; 40
    # cells split one maze's tiles over several canvases inside a batch
    mazes = sweep_mazes(300, 8, seed=71)
    singles = [diameter_batch([maze])[0] for maze in mazes]
    by_shape = {}
    for maze, single in zip(mazes, singles):
        by_shape.setdefault(maze.walls.shape, []).append((maze, single))
    assert max(len(group) for group in by_shape.values()) >= 8
    monkeypatch.setattr(diameter, "CANVAS_CELLS", cells)
    for group in by_shape.values():
        runs = diameter_batch([maze for maze, _ in group])
        assert len(runs) == len(group)
        for run, (maze, single) in zip(runs, group):
            assert_same_run(run, single, str(maze.walls))


def test_batch_of_mixed_shapes_or_without_empty_tiles_is_rejected():
    assert diameter_batch([]) == []
    with pytest.raises(MazeError, match="one shape"):
        diameter_batch([walls_only("..."), walls_only("..")])
    with pytest.raises(MazeError, match="no empty tiles"):
        diameter_batch([walls_only(".."), walls_only("##")])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(4, 8))
def test_matches_oracle_with_valid_witness(seed, size):
    maze = generate_maze(GenConfig(width=size, height=size, task="diameter", seed=seed))
    run = diameter_nca(maze)
    length, _ = diameter_oracle(maze)
    assert run.diameter_len == length
    if run.best_endpoint == run.farthest:
        assert length == 1
    else:
        pair = Maze(walls=maze.walls, source=run.best_endpoint, target=run.farthest)
        d, union = shortest_path_union(pair)
        assert d + 1 == length
        np.testing.assert_array_equal(run.witness, union)
