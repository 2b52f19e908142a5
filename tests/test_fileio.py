"""Atomic write: a round trip, the file's mode, and a failed write leaves
the old file and no temporary."""

import os
import stat

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


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_atomic_write_mode_is_the_replaced_files_or_the_umasks(tmp_path):
    umask = os.umask(0o022)
    try:
        plain = tmp_path / "plain.txt"
        plain.write_text("plain\n")
        path = tmp_path / "out.txt"
        atomic_write(str(path), "first\n")
        assert file_mode(path) == file_mode(plain) == 0o644
        os.chmod(path, 0o640)
        atomic_write(str(path), "second\n")
        assert file_mode(path) == 0o640
        os.chmod(path, 0o664)
        atomic_write(str(path), "third\n")
        assert file_mode(path) == 0o664
        os.umask(0o077)
        atomic_write(str(tmp_path / "private.txt"), "private\n")
        assert file_mode(tmp_path / "private.txt") == 0o600
    finally:
        os.umask(umask)
