"""Dataset records, JSON-Lines files, and the binary trace format."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import TASKS, Maze, MazeError, parse_maze, render_maze


@dataclass
class DatasetRecord:
    id: str
    task: str  # one of grid.TASKS
    maze: Maze
    solution: np.ndarray  # bool H x W
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.solution.shape != self.maze.walls.shape:
            raise MazeError(
                f"solution shape {self.solution.shape} does not match maze"
            )


def _mask_rows(mask: np.ndarray) -> list[str]:
    return ["".join("1" if b else "0" for b in row) for row in mask]


def _rows_mask(rows: list[str], width: int) -> np.ndarray:
    mask = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != width or set(row) - {"0", "1"}:
            raise MazeError(f"bad solution row {r}: {row!r}")
        mask[r] = [ch == "1" for ch in row]
    return mask


def record_to_json(rec: DatasetRecord) -> str:
    obj = {
        "id": rec.id,
        "task": rec.task,
        "maze": render_maze(rec.maze).split("\n"),
        "solution": _mask_rows(rec.solution),
        "meta": rec.meta,
    }
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def _typed(value, kind: type, what: str):
    """``value`` when it is a ``kind`` and not a bool, which JSON keeps apart
    from numbers, else a MazeError naming ``what`` it should have been."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MazeError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _rows(obj: dict, name: str) -> list[str]:
    return [_typed(row, str, f"a row of {name}") for row in _typed(obj[name], list, name)]


def record_from_json(line: str) -> DatasetRecord:
    obj = _typed(json.loads(line), dict, "a record")
    task = _typed(obj["task"], str, "task")
    if task not in TASKS:
        raise MazeError(f"unknown task {task!r}")
    meta = _typed(obj.get("meta", {}), dict, "meta")
    _typed(meta.get("d_tiles", 0), int, "meta d_tiles")
    maze = parse_maze("\n".join(_rows(obj, "maze")))
    rows = _rows(obj, "solution")
    solution = _rows_mask(rows, maze.width)
    if len(rows) != maze.height:
        raise MazeError("solution height does not match maze")
    return DatasetRecord(id=_typed(obj["id"], str, "id"), task=task, maze=maze,
                         solution=solution, meta=meta)


def write_dataset(path: str | Path, records: list[DatasetRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; any other bytes are bad content."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MazeError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def read_dataset(path: str | Path) -> list[DatasetRecord]:
    records = []
    for lineno, line in enumerate(read_utf8(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(record_from_json(line))
        except (MazeError, KeyError, json.JSONDecodeError) as exc:
            raise MazeError(f"{path}:{lineno}: {exc}") from exc
    return records


TRACE_MAGIC = b"NCAT"
TRACE_VERSION = 1


def write_trace(path: str | Path, frames: list[np.ndarray]) -> None:
    """Binary per-step channel dump: magic, version, C, H, W, steps as
    little-endian u32, then float32 values in step/channel/row-major order."""
    if not frames:
        raise MazeError("trace needs at least one frame")
    C, H, W = frames[0].shape
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(struct.pack("<IIIII", TRACE_VERSION, C, H, W, len(frames)))
        for frame in frames:
            if frame.shape != (C, H, W):
                raise MazeError("inconsistent frame shape in trace")
            fh.write(frame.astype("<f4").tobytes(order="C"))


def read_trace(path: str | Path) -> np.ndarray:
    """Returns a steps x C x H x W float32 array."""
    data = Path(path).read_bytes()
    if data[:4] != TRACE_MAGIC:
        raise MazeError("not a trace file (bad magic)")
    if len(data) < 24:
        raise MazeError(f"trace header truncated at {len(data)} of 24 bytes")
    version, C, H, W, steps = struct.unpack("<IIIII", data[4:24])
    if version != TRACE_VERSION:
        raise MazeError(f"unsupported trace version {version}")
    expected = 24 + 4 * steps * C * H * W
    if len(data) != expected:
        raise MazeError(f"trace payload length {len(data)} != {expected}")
    values = np.frombuffer(data[24:], dtype="<f4")
    return values.reshape(steps, C, H, W)
