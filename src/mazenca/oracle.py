"""Classical reference implementations: ground truth for every automaton
and for dataset labeling.

Each oracle is a plain deque BFS, DFS or heap over Python lists, and shares
no code with the automata it checks.  ``distance_map``,
``canonical_shortest_path`` and ``reachable`` search one framed flat byte
copy of the walls (``flat_open_tiles``): a move is an index offset and a
visit a byte test, so the frame needs no bounds check and no numpy scalar is
read per neighbour.  ``diameter_oracle`` runs one full BFS
from every empty tile, over neighbour lists built once per maze; it prunes
nothing, so it stays independent of the eccentricity bounds that
``diameter_nca`` uses.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .grid import Maze, MazeError

# neighbour order encodes the move priority: down, right, up, left
PRIORITY_MOVES = [(1, 0), (0, 1), (-1, 0), (0, -1)]
DIRECTION_RANKS = [0.2, 0.4, 0.6, 0.8]


class Unreachable(MazeError):
    pass


def _open_source(maze: Maze, src: tuple[int, int]) -> None:
    """Raise unless ``src`` is an empty tile of the grid."""
    if not maze.contains(src):
        raise MazeError(f"distance source {src} lies outside the grid")
    if maze.walls[src]:
        raise MazeError(f"distance source {src} is a wall")


def _flat_distances(maze: Maze, src: tuple[int, int]) -> tuple[list[int], list[int], int]:
    """BFS over ``flat_open_tiles`` from the empty tile ``src``: moves to
    every cell of the framed flat grid (-1 where unreachable), the cells
    reached in the order they were dequeued, and the row stride."""
    _open_source(maze, src)
    unseen, stride = flat_open_tiles(maze)
    s = (src[0] + 1) * stride + src[1]
    dist = [-1] * len(unseen)
    dist[s] = 0
    unseen[s] = 0
    reached = [s]  # also the queue: the loop reads the cells it appends
    moves = (stride, 1, -stride, -1)
    for i in reached:
        d = dist[i] + 1
        for m in moves:
            j = i + m
            if unseen[j]:
                unseen[j] = 0
                dist[j] = d
                reached.append(j)
    return dist, reached, stride


def distance_map(maze: Maze, src: tuple[int, int]) -> np.ndarray:
    """BFS distance in moves from ``src``; -1 marks unreachable tiles."""
    dist, reached, stride = _flat_distances(maze, src)
    H, W = maze.walls.shape
    framed = np.full((H + 2) * stride, -1, dtype=np.int64)
    framed[reached] = [dist[i] for i in reached]  # costs the component, not the grid
    return np.ascontiguousarray(framed.reshape(H + 2, stride)[1 : H + 1, :W])


def shortest_path_union(maze: Maze) -> tuple[int, np.ndarray]:
    """Distance in moves plus the union of all shortest paths:
    { v : d_s(v) + d_t(v) = d(s, t) }."""
    if maze.source is None or maze.target is None:
        raise MazeError("shortest-path oracle needs both source and target")
    ds = distance_map(maze, maze.source)
    if ds[maze.target] < 0:
        raise Unreachable("target unreachable from source")
    dt = distance_map(maze, maze.target)
    d = int(ds[maze.target])
    mask = (ds >= 0) & (dt >= 0) & (ds + dt == d)
    return d, mask


def canonical_shortest_path(maze: Maze) -> tuple[int, np.ndarray]:
    """Distance in moves plus a single deterministic shortest path: from the
    source, repeatedly take the highest-priority move (down > right > up >
    left) that decreases the remaining distance to the target.  The mask has
    exactly d + 1 true tiles."""
    if maze.source is None or maze.target is None:
        raise MazeError("shortest-path oracle needs both source and target")
    dt, _, stride = _flat_distances(maze, maze.target)
    cur = (maze.source[0] + 1) * stride + maze.source[1]
    d = dt[cur]
    if d < 0:
        raise Unreachable("target unreachable from source")
    moves = (stride, 1, -stride, -1)  # PRIORITY_MOVES in flat steps
    path = [cur]
    while dt[cur]:  # 0 only at the target; the frame reads -1
        cur = next(cur + m for m in moves if dt[cur + m] == dt[cur] - 1)
        path.append(cur)
    H, W = maze.walls.shape
    mask = np.zeros(len(dt), dtype=bool)
    mask[path] = True
    return d, np.ascontiguousarray(mask.reshape(H + 2, stride)[1 : H + 1, :W])


def dfs_order(maze: Maze, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Priority depth-first search visit order (down > right > up > left).

    Neighbours not moved onto are put on a stack with the current event
    counter and their direction rank; re-encountered entries refresh their
    recency.  When stuck, the entry minimising (recency, direction rank) --
    i.e. the most recent push, ties broken toward higher-priority moves --
    is popped and the search teleports there.  A heap finds that entry in
    O(log stack) per pop.
    """
    if not maze.contains(start):
        raise MazeError(f"DFS start {start} is outside the {maze.height}x{maze.width} maze")
    if maze.walls[start]:
        raise MazeError(f"DFS start {start} is a wall")
    H, W = maze.walls.shape
    visited = {start}
    order = [start]
    stack: dict[tuple[int, int], tuple[int, float]] = {}  # tile -> (event, rank)
    # (-event, rank, tile) for every push; an entry whose tile was since
    # visited or pushed again is stale and skipped when it surfaces
    heap: list[tuple[int, float, tuple[int, int]]] = []
    event = 0
    cur = start
    while True:
        cands = []
        for (dy, dx), rank in zip(PRIORITY_MOVES, DIRECTION_RANKS):
            ny, nx = cur[0] + dy, cur[1] + dx
            if 0 <= ny < H and 0 <= nx < W and not maze.walls[ny, nx] and (ny, nx) not in visited:
                cands.append((rank, (ny, nx)))
        event += 1
        if cands:
            _, nxt = cands[0]
            for rank, tile in cands[1:]:
                stack[tile] = (event, rank)
                heapq.heappush(heap, (-event, rank, tile))
            stack.pop(nxt, None)
        elif stack:
            # most recent event first; direction rank breaks same-event ties
            while True:
                neg_event, rank, nxt = heapq.heappop(heap)
                if stack.get(nxt) == (-neg_event, rank):
                    break
            del stack[nxt]
        else:
            return order
        visited.add(nxt)
        order.append(nxt)
        cur = nxt


def flat_open_tiles(maze: Maze) -> tuple[bytearray, int]:
    """The maze as one flat byte array, 1 on an open tile and 0 elsewhere,
    framed by walls, and its row stride: a wall row above and below, and a
    wall column after each row, which is also the wall left of the next
    row.  Tile (y, x) is at (y + 1) * stride + x.  A BFS may clear the
    bytes it visits: each call returns a fresh copy."""
    H, W = maze.walls.shape
    stride = W + 1
    framed = np.zeros((H + 2, stride), dtype=bool)
    framed[1 : H + 1, :W] = ~maze.walls
    return bytearray(framed.tobytes()), stride


def neighbour_lists(open_tiles: bytearray, stride: int) -> list[tuple[int, ...]]:
    """For each cell of a framed flat grid (``flat_open_tiles``), the open
    cells one move away, in the order down, right, up, left; empty for a
    wall.  The frame keeps every move of an open cell inside the list."""
    moves = (stride, 1, -stride, -1)
    return [tuple(i + m for m in moves if open_tiles[i + m]) if is_open else ()
            for i, is_open in enumerate(open_tiles)]


def tile_distances(neighbours: list[tuple[int, ...]], src: int) -> tuple[list[int], int]:
    """Deque BFS over ``neighbour_lists``: moves from ``src`` to every cell,
    -1 where unreachable, and the last cell dequeued, which lies at the
    greatest distance."""
    dist = [-1] * len(neighbours)
    dist[src] = 0
    q = deque([src])
    while q:
        last = q.popleft()
        d = dist[last] + 1
        for j in neighbours[last]:
            if dist[j] < 0:
                dist[j] = d
                q.append(j)
    return dist, last


def reachable(maze: Maze, src: tuple[int, int], dst: tuple[int, int]) -> bool:
    """Whether a path joins the empty tile ``src`` to ``dst``: one deque BFS
    over ``flat_open_tiles`` that stops when it reaches ``dst``."""
    _open_source(maze, src)
    if not maze.contains(dst):
        raise MazeError(f"destination {dst} lies outside the grid")
    unseen, stride = flat_open_tiles(maze)
    s, t = (src[0] + 1) * stride + src[1], (dst[0] + 1) * stride + dst[1]
    if s == t:
        return True
    unseen[s] = 0
    q = deque([s])
    moves = (stride, 1, -stride, -1)
    while q:
        i = q.popleft()
        for m in moves:
            j = i + m
            if unseen[j]:
                if j == t:
                    return True
                unseen[j] = 0
                q.append(j)
    return False


def diameter_oracle(maze: Maze) -> tuple[int, tuple[tuple[int, int], tuple[int, int]]]:
    """Longest shortest path over all components, in tiles (= moves + 1).

    Returns (length, (u, v)) with u the first tile (row-major) achieving the
    maximum eccentricity and v the first tile farthest from u.  One full BFS
    runs from every empty tile, and its last dequeued tile gives the
    eccentricity.
    """
    open_tiles, stride = flat_open_tiles(maze)
    if not any(open_tiles):
        raise MazeError("maze has no empty tiles")
    neighbours = neighbour_lists(open_tiles, stride)
    best_len = -1
    best_pair = None
    for u, is_open in enumerate(open_tiles):  # flat order is row-major
        if not is_open:
            continue
        dist, last = tile_distances(neighbours, u)
        ecc = dist[last]
        if ecc + 1 > best_len:
            far = dist.index(ecc)
            best_len = ecc + 1
            best_pair = (divmod(u, stride), divmod(far, stride))
    (uy, ux), (vy, vx) = best_pair
    return best_len, ((uy - 1, ux), (vy - 1, vx))


def normalized_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """100 * (1 - mse / mse_of_all_zeros), after clipping predictions to
    [0, 1].  Can be negative for confidently wrong outputs."""
    if predicted.shape != truth.shape:
        raise MazeError(
            f"prediction shape {predicted.shape} does not match truth {truth.shape}"
        )
    truth = truth.astype(np.float64)
    clipped = np.clip(predicted, 0.0, 1.0)
    mse = float(np.mean((clipped - truth) ** 2))
    mse_zero = float(np.mean(truth ** 2))
    if mse_zero == 0.0:
        if mse == 0.0:
            return 100.0
        raise MazeError("empty ground truth with nonzero prediction error")
    return 100.0 * (1.0 - mse / mse_zero)
