"""Atomic write: a round trip, and a failed write leaves the old file and no temporary."""

import pytest

from tightnav.fileio import atomic_write


def test_atomic_write_round_trip_and_overwrite(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "first\n")
    assert path.read_text() == "first\n"
    atomic_write(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_write_failure_keeps_old_file_and_no_tmp(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "kept\n")
    with pytest.raises(TypeError):
        atomic_write(str(path), None)  # the write itself raises
    assert path.read_text() == "kept\n"
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(TypeError):
        atomic_write(str(tmp_path / "new.txt"), b"bytes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
