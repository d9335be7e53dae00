import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazenca.dataset import (
    DatasetRecord,
    read_dataset,
    read_trace,
    record_from_json,
    record_to_json,
    write_dataset,
    write_trace,
)
from mazenca.grid import GenConfig, MazeError, generate_maze, parse_maze
from mazenca.oracle import canonical_shortest_path


def make_record(seed=0, ident="r0"):
    maze = generate_maze(GenConfig(width=6, height=6, seed=seed))
    d, mask = canonical_shortest_path(maze)
    return DatasetRecord(id=ident, task="shortest_path", maze=maze,
                         solution=mask, meta={"d_tiles": d + 1, "seed": seed})


def test_solution_shape_validated():
    maze = parse_maze("S.T")
    with pytest.raises(MazeError):
        DatasetRecord(id="x", task="shortest_path", maze=maze,
                      solution=np.zeros((2, 2), dtype=bool))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_json_round_trip(seed):
    rec = make_record(seed)
    back = record_from_json(record_to_json(rec))
    assert back.id == rec.id and back.task == rec.task
    assert back.maze == rec.maze
    np.testing.assert_array_equal(back.solution, rec.solution)
    assert back.meta == rec.meta


def test_json_field_order_is_stable():
    line = record_to_json(make_record())
    keys = [part.split('":')[0].strip('{"') for part in line.split(',"')][:2]
    assert line.startswith('{"id":')
    assert '"task":' in line and line.index('"task":') < line.index('"maze":')
    assert line.index('"maze":') < line.index('"solution":')


def test_dataset_file_round_trip(tmp_path):
    records = [make_record(s, f"r{s}") for s in range(3)]
    path = tmp_path / "data.jsonl"
    write_dataset(path, records)
    back = read_dataset(path)
    assert [r.id for r in back] == ["r0", "r1", "r2"]
    np.testing.assert_array_equal(back[1].solution, records[1].solution)


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_dataset(path) == []


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(record_to_json(make_record()) + "\n{broken\n")
    with pytest.raises(MazeError, match="2"):
        read_dataset(path)


def test_mismatched_solution_dims_reported(tmp_path):
    line = '{"id":"x","task":"shortest_path","maze":["S.T"],"solution":["111","000"],"meta":{}}'
    path = tmp_path / "dims.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(MazeError, match="1"):
        read_dataset(path)


def test_trace_round_trip(tmp_path):
    frames = [np.arange(12, dtype=np.float64).reshape(2, 2, 3) * k for k in range(4)]
    path = tmp_path / "run.trace"
    write_trace(path, frames)
    back = read_trace(path)
    assert back.shape == (4, 2, 2, 3)
    np.testing.assert_array_equal(back, np.stack(frames).astype(np.float32))


def test_trace_header_and_payload_length(tmp_path):
    frames = [np.zeros((3, 4, 5))]
    path = tmp_path / "run.trace"
    write_trace(path, frames)
    blob = path.read_bytes()
    assert blob[:4] == b"NCAT"
    # u32 header fields + 4 bytes per float32 value
    assert len(blob) == 24 + 4 * 1 * 3 * 4 * 5


def test_trace_errors(tmp_path):
    path = tmp_path / "run.trace"
    with pytest.raises(MazeError):
        write_trace(path, [])
    with pytest.raises(MazeError):
        write_trace(path, [np.zeros((1, 2, 2)), np.zeros((1, 3, 3))])
    path.write_bytes(b"BAD!" + b"\x00" * 20)
    with pytest.raises(MazeError, match="magic"):
        read_trace(path)
    path.write_bytes(b"NCAT\x01\x00")
    with pytest.raises(MazeError, match="truncated"):
        read_trace(path)
    write_trace(path, [np.zeros((1, 2, 2))])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(MazeError, match="length"):
        read_trace(path)
