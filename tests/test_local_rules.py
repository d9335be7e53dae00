"""Exhaustive local-rule certificates of the automata's kernels.

A cellular automaton's local rule is its whole semantics (Wolfram,
"Statistical mechanics of cellular automata", Rev. Mod. Phys. 1983), and
every output channel of these kernels reads at most five kernel cells, so
each channel's rule can be checked on every input.  For each output channel
of the flood (both ``bfs.flood_stacks`` plane counts), extraction and the
DFS, this file writes the classical local rule in plain code and the local
invariants that reachable states keep.  A certificate enumerates every
input over the channel's kernel support that the invariants allow: each
cell's one-hot is empty, wall, source, target or outside the grid, binary
channels are 0 or 1, and ages, ranks and direction codes take a range wide
enough to cross every threshold.  On each input, the real stack's
pre-activation, passed through the real activation, must be the rule.
ROUTE and PATH take the four activated directions of their own step as
inputs, so no certificate enumerates more than one channel's support.  The
DFS host code (the re-added-tile fix, the zeroing under the pebble, the
pops) is not a local rule; the golden traces cover it.

``test_certified_invariants_hold_on_real_runs`` asserts every invariant a
certificate assumes on every state of real runs, so none is only assumed.
``test_mutants_the_certificates_cannot_tell_apart`` runs every tap deleted,
+1 and -1 through the certificates (mutation testing: DeMillo, Lipton and
Sayward, IEEE Computer 1978).  A mutant that passes computes the kernel's
step on every input the invariants allow; a deletion that passes is a dead
tap, and the builders keep none but the one they name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import numpy as np
import pytest

from mazenca import bfs, dfs, diameter, extract
from mazenca.bfs import run_bfs
from mazenca.dfs import PEBBLE, ROUTE, ROUTE_DIRS, STACK, STACK_DIR, STACK_RANK, run_dfs
from mazenca.extract import DIR_CHANNELS, PATH, run_extract
from mazenca.grid import CH_EMPTY, CH_SOURCE, CH_TARGET, CH_WALL, Maze
from mazenca.tensor import relu, sawtooth, step
from sweep import sweep_mazes

# a cell's category: its one-hot channel, or outside the grid
EMPTY, WALL, SOURCE, TARGET, OUTSIDE = CH_EMPTY, CH_WALL, CH_SOURCE, CH_TARGET, 4
CATEGORIES = range(5)

# the 3x3 kernel cell of each von Neumann neighbour of the centre (1, 1)
NEIGHBOURS = {"up": (0, 1), "left": (1, 0), "right": (1, 2), "down": (2, 1)}
# the DFS move that reaches the 5x5 centre (2, 2) from each cell of
# dfs.DIR_OFFSETS, in order; its direction code is its position + 1
MOVES = ("down", "right", "up", "left")


def cases(**values) -> dict[str, np.ndarray]:
    """Every combination of the named variables' values, one flat int64
    array per variable."""
    grids = np.meshgrid(*(np.asarray(v, np.int64) for v in values.values()), indexing="ij")
    return {name: g.ravel() for name, g in zip(values, grids)}


def allowed(v: dict, keep: np.ndarray) -> dict:
    """The cases of ``v`` where ``keep`` holds."""
    return {name: a[keep] for name, a in v.items()}


def any_of(v: dict, names) -> np.ndarray:
    return np.logical_or.reduce([v[n] > 0 for n in names])


def one_hot(cat: np.ndarray, first: int, cell: tuple[int, int], outside: int) -> dict:
    """The one-hot conv inputs (``first`` + channel, *cell) of a cell of
    category ``cat``; a cell outside the grid reads as category
    ``outside``, and OUTSIDE matches no channel."""
    seen = np.where(cat == OUTSIDE, outside, cat)
    return {(first + c, *cell): (seen == c).astype(np.int64) for c in range(4)}


@dataclass
class Certificate:
    """One output channel's classical local rule, over every input its
    invariants allow."""

    name: str
    channel: int  # output channel of the stack
    cases: dict  # the allowed inputs, one flat array per variable
    inputs: dict  # (input channel, i, j) -> that conv input over the cases
    activate: Callable[[np.ndarray], np.ndarray]  # as the step applies it
    rule: np.ndarray

    def counterexample(self, weights: np.ndarray, bias: np.ndarray) -> dict | None:
        """The first allowed input on which the stack's channel breaks the
        rule, or None.  Every tap of the channel must read an enumerated
        input."""
        pre = np.full(len(self.rule), bias[self.channel], np.int64)
        for ci, i, j in np.argwhere(weights[self.channel]).tolist():
            assert (ci, i, j) in self.inputs, f"{self.name}: tap {ci, i, j} is not enumerated"
            pre += int(weights[self.channel, ci, i, j]) * self.inputs[ci, i, j]
        bad = np.flatnonzero(self.activate(pre) != self.rule)
        return None if not len(bad) else {k: int(a[bad[0]]) for k, a in self.cases.items()}


def flood_certificates(planes: int) -> list[Certificate]:
    """The fronts and the age of a flood of ``planes`` planes.  A cell
    outside the grid reads as a wall: ``flood_canvas`` gives the border and
    the gutters a wall's constant plane."""
    age, single = planes - 1, planes == bfs.SOURCE_PLANES
    fronts = [("FLOOD_S", bfs.FLOOD_S, SOURCE)]
    if not single:
        fronts.append(("FLOOD_T", bfs.FLOOD_T, TARGET))
    certs = []
    for name, plane, end in fronts:
        v = cases(cat=CATEGORIES, here=(0, 1), **{n: (0, 1) for n in NEIGHBOURS})
        blocked = (v["cat"] == WALL) | (v["cat"] == OUTSIDE)
        v = allowed(v, ~(blocked & (v["here"] > 0))  # walls and the outside never flood
                    # a flooded tile is its flood's end or has a flooded neighbour
                    & ~((v["here"] > 0) & (v["cat"] != end) & ~any_of(v, NEIGHBOURS))
                    # a single-source flood's one-hot marks no target
                    & ~(single & (v["cat"] == TARGET)))
        blocked = (v["cat"] == WALL) | (v["cat"] == OUTSIDE)
        inputs = {(plane, 1, 1): v["here"], **one_hot(v["cat"], planes, (1, 1), WALL)}
        inputs.update({(plane, *cell): v[n] for n, cell in NEIGHBOURS.items()})
        # a tile floods iff it is in the grid, is not a wall, and is the
        # flood's end, or it or a von Neumann neighbour is flooded
        rule = ~blocked & ((v["cat"] == end) | any_of(v, ["here", *NEIGHBOURS]))
        certs.append(Certificate(f"flood{planes} {name}", plane, v, inputs,
                                 lambda pre: step(pre, out=pre), rule))

    names = [n for n, _, _ in fronts]
    v = cases(cat=CATEGORIES, age=range(4), **{n: (0, 1) for n in names})
    blocked = (v["cat"] == WALL) | (v["cat"] == OUTSIDE)
    # walls and the outside never flood and never age; a single-source
    # flood's one-hot marks no target
    v = allowed(v, ~(blocked & ((v["age"] > 0) | any_of(v, names)))
                & ~(single & (v["cat"] == TARGET)))
    inputs = {(age, 1, 1): v["age"], **one_hot(v["cat"], planes, (1, 1), WALL)}
    inputs.update({(plane, 1, 1): v[n] for n, plane, _ in fronts})
    # a tile ages by one for each flood that holds it; bfs_step applies no
    # activation to the age
    rule = v["age"] + sum(v[n] for n in names)
    certs.append(Certificate(f"flood{planes} AGE", age, v, inputs, lambda pre: pre, rule))
    return certs


def extract_certificates() -> list[Certificate]:
    """The path and its four directions.  Outside the grid every channel,
    the frozen flood's included, is zero: the border of a frame."""
    certs = []
    for ch, cell in zip(DIR_CHANNELS, extract.DIR_OFFSETS):
        v = cases(inside=(0, 1), age=range(5), nb_inside=(0, 1), nb_age=range(5), nb_path=(0, 1))
        # a cell outside the grid holds nothing; ages are not negative
        v = allowed(v, ((v["inside"] > 0) | (v["age"] == 0))
                    & ((v["nb_inside"] > 0) | ((v["nb_age"] == 0) & (v["nb_path"] == 0))))
        inputs = {(extract.IN_AGE, 1, 1): v["age"], (extract.IN_AGE, *cell): v["nb_age"],
                  (PATH, *cell): v["nb_path"]}
        # the path arrives from a path neighbour whose age is one less
        rule = ((v["inside"] > 0) & (v["nb_inside"] > 0) & (v["nb_path"] > 0)
                & (v["nb_age"] == v["age"] - 1))
        certs.append(Certificate(f"extract direction {cell}", ch, v, inputs,
                                 lambda pre: sawtooth(pre, -1, out=pre), rule))

    dirs = [f"d{ch}" for ch in DIR_CHANNELS]
    v = cases(inside=(0, 1), flood_s=(0, 1), flood_t=(0, 1), **{d: (0, 1) for d in dirs})
    # outside the grid nothing is flooded and no direction fires (the
    # directions' certificates above)
    v = allowed(v, (v["inside"] > 0) | ~any_of(v, ["flood_s", "flood_t", *dirs]))
    inputs = {(extract.IN_FLOOD_S, 1, 1): v["flood_s"], (extract.IN_FLOOD_T, 1, 1): v["flood_t"]}

    def path(pre, v=v):
        # as extract_step: the seed, then the seed plus the directions
        seed = step(pre, out=pre)
        return step(seed + sum(v[d] for d in dirs), out=seed)

    # a tile is on the path if both floods hold it, or the path arrives
    rule = ((v["flood_s"] > 0) & (v["flood_t"] > 0)) | any_of(v, dirs)
    certs.append(Certificate("extract PATH", PATH, v, inputs, path, rule))
    return certs


def dfs_centre(v: dict, *planes: str) -> dict:
    """The conv inputs of the DFS's centre cell: its one-hot and the named
    hidden planes.  Outside the grid the one-hot is zero padding."""
    channels = {"route": ROUTE, "stack": STACK, "rank": STACK_RANK, "code": STACK_DIR,
                "pebble": PEBBLE}
    inputs = one_hot(v["cat"], dfs.IN_EMPTY, (2, 2), OUTSIDE)
    inputs.update({(channels[p], 2, 2): v[p] for p in planes})
    return inputs


def dfs_allowed(v: dict, keep: np.ndarray) -> dict:
    """``keep`` and the DFS invariants of a centre cell: the DFS steps only
    the grid's cells, its one-hot marks no target, walls are never routed
    or stacked, and a routed tile is never stacked."""
    wall, route, stack = v["cat"] == WALL, v["route"] > 0, v["stack"] > 0
    return allowed(v, keep & (v["cat"] != OUTSIDE) & (v["cat"] != TARGET)
                   & ~(wall & (route | stack)) & ~(route & stack))


def dfs_certificates() -> list[Certificate]:
    """The route, its four arrivals and the three stack channels.  PEBBLE
    has no taps: ``dfs_step`` computes it."""
    certs = []
    for ch, cell in zip(ROUTE_DIRS, dfs.DIR_OFFSETS):
        ahead = [tuple(c) for c in np.argwhere(dfs.W_PRIORITY[cell]).tolist()]
        cells = [cell, *ahead]
        v = cases(**{f"cat{c}": CATEGORIES for c in cells}, **{f"route{c}": (0, 1) for c in cells})
        keep, sources = True, 0
        for c in cells:
            cat, routed = v[f"cat{c}"], v[f"route{c}"] > 0
            # only an open tile (empty, or the start) is routed; the one-hot
            # marks no target
            keep &= ~(routed & (cat != EMPTY) & (cat != SOURCE)) & (cat != TARGET)
            sources = sources + (cat == SOURCE)
        v = allowed(v, keep & (sources <= 1))  # one start
        inputs = {}
        for c in cells:
            inputs[(ROUTE, *c)] = v[f"route{c}"]
            inputs.update(one_hot(v[f"cat{c}"], dfs.IN_EMPTY, c, OUTSIDE))
        # the route arrives from a routed neighbour whose higher-priority
        # moves all meet a wall, the outside or the route
        rule = v[f"route{cell}"] > 0
        for c in ahead:
            rule &= (v[f"route{c}"] > 0) | (v[f"cat{c}"] == WALL) | (v[f"cat{c}"] == OUTSIDE)
        certs.append(Certificate(f"dfs arrival {MOVES[ch - 1]}", ch, v, inputs,
                                 lambda pre: step(pre, out=pre), rule))

    arrivals = [f"d{ch}" for ch in ROUTE_DIRS]
    v = cases(cat=CATEGORIES, route=(0, 1), stack=(0, 1), **{d: (0, 1) for d in arrivals})
    v = dfs_allowed(v, ~((v["cat"] == SOURCE) & (v["stack"] > 0))  # the start is never stacked
                    # a routed tile other than the start still has the
                    # arrival from the tile that routed it: neither that tile
                    # nor the ones that blocked its other moves leave the route
                    & ~((v["route"] > 0) & (v["cat"] != SOURCE) & ~any_of(v, arrivals)))

    def route(pre, v=v):
        # as dfs_step: the route adds its strongest arrival
        return step(pre + np.maximum.reduce([v[d] for d in arrivals]), out=pre)

    # a tile is routed iff it is not a wall, not stacked, and is the start,
    # routed already, or an arrival reaches it
    rule = ((v["cat"] != WALL) & (v["stack"] == 0)
            & ((v["cat"] == SOURCE) | any_of(v, ["route", *arrivals])))
    certs.append(Certificate("dfs ROUTE", ROUTE, v, dfs_centre(v, "route", "stack"), route, rule))

    by = [f"by_{move}" for move in MOVES]  # the pebble reaches this tile by that move
    pebbles = {(PEBBLE, *cell): name for cell, name in zip(dfs.DIR_OFFSETS, by)}
    v = cases(cat=CATEGORIES, route=(0, 1), stack=(0, 1), **{b: (0, 1) for b in by})
    v = dfs_allowed(v, sum(v[b] for b in by) <= 1)  # one pebble
    inputs = dfs_centre(v, "route", "stack")
    inputs.update({key: v[b] for key, b in pebbles.items()})
    # walls and the route hold no stack; any other neighbour of the pebble
    # is pushed, a tile on the stack already to 2, which the step resets as
    # a freshly stacked tile
    rule = np.where((v["cat"] == WALL) | (v["route"] > 0), 0, v["stack"] + sum(v[b] for b in by))
    certs.append(Certificate("dfs STACK", STACK, v, inputs, lambda pre: relu(pre, out=pre), rule))

    v = cases(cat=CATEGORIES, route=(0, 1), stack=(0, 1), rank=range(4), pebble=(0, 1))
    # only a stacked tile holds a rank; the pebble is the tile the route
    # reached last
    v = dfs_allowed(v, ((v["stack"] > 0) | (v["rank"] == 0))
                    & ((v["pebble"] == 0) | (v["route"] > 0)))
    # a stacked tile's rank counts its steps on the stack: a tile pushed
    # this step starts at 0, and a re-added one is reset by the step
    rule = np.where(v["stack"] > 0, v["rank"] + 1, 0)
    certs.append(Certificate("dfs STACK_RANK", STACK_RANK, v,
                             dfs_centre(v, "route", "stack", "rank", "pebble"),
                             lambda pre: relu(pre, out=pre), rule))

    v = cases(cat=CATEGORIES, route=(0, 1), stack=(0, 1), code=range(5), **{b: (0, 1) for b in by})
    # a stacked tile holds the code 1..4 of the move that reaches it, and an
    # unstacked one none; one pebble
    v = dfs_allowed(v, np.where(v["stack"] > 0, v["code"] > 0, v["code"] == 0)
                    & (sum(v[b] for b in by) <= 1))
    inputs = dfs_centre(v, "route", "code")
    inputs.update({key: v[b] for key, b in pebbles.items()})
    # walls and the route hold no code; a stacked tile keeps its code, and a
    # neighbour of the pebble adds the code of the move from the pebble (a
    # re-added tile's old code is removed by the step)
    codes = sum((k + 1) * v[b] for k, b in enumerate(by))
    rule = np.where((v["cat"] == WALL) | (v["route"] > 0), 0, v["code"] + codes)
    certs.append(Certificate("dfs STACK_DIR", STACK_DIR, v, inputs,
                             lambda pre: relu(pre, out=pre), rule))
    return certs


@functools.cache
def certificates() -> dict[str, list[Certificate]]:
    """Every certificate, by the stack it certifies."""
    return {"flood3": flood_certificates(bfs.N_HIDDEN),
            "flood2": flood_certificates(bfs.SOURCE_PLANES),
            "extract": extract_certificates(), "dfs": dfs_certificates()}


def as_stepped(dynamic, static) -> tuple[np.ndarray, np.ndarray]:
    """A split stack's weights and bias as one stack: the dynamic stack's
    hidden columns, then the static stack's, which carries the bias."""
    assert not dynamic.bias.any()
    return np.concatenate([dynamic.weights, static.weights], axis=1), static.bias


def stacks(build: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The weights and bias of every certified stack, from the builders
    ``build`` (automaton -> builder): the flood's through
    ``bfs.flood_stacks`` at both plane counts."""
    with mock.patch.object(bfs, "build_bfs_weights", build["flood"]):
        floods = {f"flood{p}": as_stepped(*bfs.flood_stacks.__wrapped__(p))
                  for p in (bfs.N_HIDDEN, bfs.SOURCE_PLANES)}
    ext, dfs_ks = build["extract"](), build["dfs"]()
    return {**floods, "extract": (ext.weights, ext.bias), "dfs": (dfs_ks.weights, dfs_ks.bias)}


BUILDERS = {"flood": bfs.build_bfs_weights, "extract": extract.build_extract_weights,
            "dfs": dfs.build_dfs_weights}


def real_stacks() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every certified stack as the runs step it."""
    return {"flood3": as_stepped(*bfs.flood_stacks(bfs.N_HIDDEN)),
            "flood2": as_stepped(*bfs.flood_stacks(bfs.SOURCE_PLANES)),
            "extract": as_stepped(extract.DYNAMIC, extract.STATIC),
            "dfs": as_stepped(dfs.DYNAMIC, dfs.STATIC)}


def test_every_output_channel_has_a_certificate():
    for name, (weights, bias) in real_stacks().items():
        certified = sorted(c.channel for c in certificates()[name])
        computed = [co for co in range(len(weights)) if weights[co].any() or bias[co]]
        assert certified == computed, name
    # the one channel no kernel computes
    weights, bias = real_stacks()["dfs"]
    assert not (weights[PEBBLE].any() or bias[PEBBLE])


@pytest.mark.parametrize("name", ["flood3", "flood2", "extract", "dfs"])
def test_the_kernels_keep_their_local_rules(name):
    for cert in certificates()[name]:
        assert len(cert.rule) > 0, cert.name
        assert cert.counterexample(*real_stacks()[name]) is None, cert.name


# channel names for the mutants' ids, output then input, by automaton
HIDDEN = {"flood": ["FLOOD_S", "FLOOD_T", "AGE"],
          "extract": ["PATH", "FROM_UP", "FROM_LEFT", "FROM_RIGHT", "FROM_DOWN"],
          "dfs": ["ROUTE", "DOWN", "RIGHT", "UP", "LEFT", "STACK", "STACK_RANK", "STACK_DIR",
                  "PEBBLE"]}
STATIC = {"flood": ["EMPTY", "WALL", "SOURCE", "TARGET"],
          "extract": ["IN_FLOOD_S", "IN_FLOOD_T", "IN_AGE"],
          "dfs": ["EMPTY", "WALL", "SOURCE", "TARGET"]}


def mutants():
    """(id, automaton, mutated builder) of every tap of every builder,
    deleted, +1 and -1."""
    for automaton, build in BUILDERS.items():
        ks = build()
        for co, ci, i, j, w in ks.taps():
            for change, value in (("deleted", 0), ("+1", w + 1), ("-1", w - 1)):
                weights = ks.weights.copy()
                weights[co, ci, i, j] = value
                names = HIDDEN[automaton] + STATIC[automaton]
                yield (f"{automaton} {names[co]} <- {names[ci]} ({i}, {j}) {change}", automaton,
                       lambda ks=type(ks)(weights=weights, bias=ks.bias): ks)


def passes(build: dict, automaton: str) -> bool:
    """Whether every certificate of ``automaton``'s stacks holds on the
    stacks that ``build`` builds."""
    return all(cert.counterexample(*stack) is None
               for name, stack in stacks(build).items() if name.startswith(automaton)
               for cert in certificates()[name])


# The mutants that pass every certificate.  None is a deletion: the
# builders keep no tap that a certificate proves dead.  Each one moves a
# weight that has slack on every allowed input: an inhibition that already
# outweighs what it opposes, a one-hot tap whose step is already past its
# threshold, or a flood neighbour whose weight 2 still fires.  The 246
# mutants of the 82 taps the builders had before the dead ones were deleted
# left 61 that pass, among them the deletion of each of those taps but
# STACK_RANK <- ROUTE, which is dead once STACK_RANK <- PEBBLE is gone.
PASSING_MUTANTS = {
    "flood FLOOD_S <- FLOOD_S (0, 1) +1", "flood FLOOD_S <- FLOOD_S (1, 0) +1",
    "flood FLOOD_S <- FLOOD_S (1, 2) +1", "flood FLOOD_S <- FLOOD_S (2, 1) +1",
    "flood FLOOD_S <- SOURCE (1, 1) +1",
    "flood FLOOD_S <- WALL (1, 1) +1", "flood FLOOD_S <- WALL (1, 1) -1",
    "flood FLOOD_T <- FLOOD_T (0, 1) +1", "flood FLOOD_T <- FLOOD_T (1, 0) +1",
    "flood FLOOD_T <- FLOOD_T (1, 2) +1", "flood FLOOD_T <- FLOOD_T (2, 1) +1",
    "flood FLOOD_T <- TARGET (1, 1) +1",
    "flood FLOOD_T <- WALL (1, 1) +1", "flood FLOOD_T <- WALL (1, 1) -1",
    "dfs DOWN <- ROUTE (1, 2) +1",
    "dfs ROUTE <- SOURCE (2, 2) +1", "dfs ROUTE <- STACK (2, 2) -1", "dfs ROUTE <- WALL (2, 2) -1",
    "dfs STACK <- ROUTE (2, 2) +1", "dfs STACK <- ROUTE (2, 2) -1",
    "dfs STACK <- WALL (2, 2) +1", "dfs STACK <- WALL (2, 2) -1",
    "dfs STACK_DIR <- ROUTE (2, 2) +1", "dfs STACK_DIR <- ROUTE (2, 2) -1",
    "dfs STACK_DIR <- WALL (2, 2) +1", "dfs STACK_DIR <- WALL (2, 2) -1",
}


def test_mutants_the_certificates_cannot_tell_apart():
    ids = [mid for mid, _, _ in mutants()]
    assert len(ids) == len(set(ids)) == 3 * sum(len(b().taps()) for b in BUILDERS.values()) == 210
    same = {mid for mid, automaton, mutant in mutants()
            if passes({**BUILDERS, automaton: mutant}, automaton)}
    assert same == PASSING_MUTANTS


def von_neumann_any(planes: np.ndarray) -> np.ndarray:
    """Per cell of ... x H x W planes: some von Neumann neighbour is
    nonzero; cells beyond the planes count as zero."""
    p = np.pad(planes != 0, [(0, 0)] * (planes.ndim - 2) + [(1, 1), (1, 1)])
    return p[..., :-2, 1:-1] | p[..., 2:, 1:-1] | p[..., 1:-1, :-2] | p[..., 1:-1, 2:]


def check_flood(height: int, state) -> None:
    """The invariants the flood certificates assume, on a state of a flood
    canvas of mazes of ``height`` rows.  Each cell's category is read back
    from the constant plane, which holds its one-hot channel's static
    centre taps."""
    planes = len(state.frame)
    taps = bfs._centre_taps(planes, state.const.dtype)
    is_cat = [(state.const == taps[:, c, None, None]).all(axis=0) for c in range(4)]
    assert np.logical_or.reduce(is_cat).all()
    blocked = is_cat[WALL]
    # the border and the gutters read as walls
    assert blocked[:: height + 1].all() and blocked[:, [0, -1]].all()
    floods, age = state.frame[:-1], state.frame[-1]
    assert np.isin(floods, (0, 1)).all()
    # walls and the outside never flood and never age; ages are not negative
    assert not (floods[:, blocked].any() or age[blocked].any()) and (age >= 0).all()
    # a flooded tile is its flood's end or has a flooded neighbour
    ends = [SOURCE, TARGET][: planes - 1]
    for flood, end in zip(floods, ends):
        assert not (flood.astype(bool) & ~is_cat[end] & ~von_neumann_any(flood)).any()


def check_extract(state) -> None:
    """The invariants the extraction certificates assume, on an extraction
    state: the path and the directions are binary, and every channel is
    zero outside the grid (the frame's border)."""
    frame = state.frame
    assert np.isin(frame, (0, 1)).all()
    assert not (frame[:, [0, -1]].any() or frame[:, :, [0, -1]].any())


class DfsInvariants:
    """The invariants the DFS certificates assume, on every state of one
    run from ``start``, each checked against the state before it."""

    def __init__(self, maze: Maze, start: tuple[int, int]):
        self.walls, self.start = maze.walls, start
        self.prev = np.zeros((dfs.N_HIDDEN, *maze.walls.shape), np.int64)

    def __call__(self, state) -> None:
        h = state.hidden
        route, stack, rank, code, pebble = (h[c] for c in (ROUTE, STACK, STACK_RANK, STACK_DIR,
                                                           PEBBLE))
        assert np.isin(h[[ROUTE, *ROUTE_DIRS, STACK, PEBBLE]], (0, 1)).all()
        # walls are never routed or stacked, a routed tile is never stacked,
        # and neither is the start
        assert not ((route | stack)[self.walls].any() or (route & stack).any()
                    or stack[self.start])
        # a routed tile other than the start still has an arrival, from the
        # tile that routed it
        waiting = self.prev[ROUTE].astype(bool)
        waiting[self.start] = False
        assert h[ROUTE_DIRS].any(axis=0)[waiting].all()
        # one pebble, on the route; only a stacked tile holds a rank, and it
        # holds a code 1..4 where an unstacked tile holds none
        assert pebble.sum() <= 1 and not (pebble & ~route.astype(bool)).any()
        assert not rank[stack == 0].any() and (rank >= 0).all()
        assert ((code >= 1) & (code <= 4))[stack == 1].all() and not code[stack == 0].any()
        self.prev = h


def test_certified_invariants_hold_on_real_runs(monkeypatch):
    one_hots, canvases = [], []
    real_one_hot, real_canvas, real_step = dfs.one_hot, diameter.flood_canvas, diameter.bfs_step

    def dfs_one_hot(maze):
        one_hots.append(maze)
        return real_one_hot(maze)

    def source_canvas(walls, ends, planes):
        canvases.append([channel for channel, _ in ends])
        return real_canvas(walls, ends, planes)

    def source_step(state):
        check_flood(height, state)
        return real_step(state)

    monkeypatch.setattr(dfs, "one_hot", dfs_one_hot)
    monkeypatch.setattr(diameter, "flood_canvas", source_canvas)
    monkeypatch.setattr(diameter, "bfs_step", source_step)
    met = 0
    for maze in sweep_mazes(160, 10, seed=26):
        height = maze.height
        empties = [tuple(int(v) for v in t) for t in np.argwhere(~maze.walls)]
        for start in {empties[0], empties[-1]}:
            run_dfs(maze, start, observe=DfsInvariants(maze, start))
        diameter.diameter_nca(maze)
        if len(empties) > 1:
            result = run_bfs(Maze(walls=maze.walls, source=empties[0], target=empties[-1]),
                             observe=functools.partial(check_flood, height))
            if result.met:
                met += 1
                frozen = result.final.frame
                assert not (frozen[:, [0, -1]].any() or frozen[:, :, [0, -1]].any())
                assert (frozen[bfs.AGE] >= 0).all()
                run_extract(result, observe=check_extract)
    assert met > 80
    # the DFS one-hot marks no target, and a single-source flood's none
    assert one_hots and all(maze.target is None for maze in one_hots)
    assert canvases and all(ends == [CH_SOURCE] for ends in canvases)
