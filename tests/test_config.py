"""key=value configuration text round-trips and diagnostics, and the one
file writer every output goes through."""

import ast
import glob
import os
import stat
import threading

import numpy as np
import pytest

import qmiheat
from qmiheat import cli
from qmiheat.config import load_config, parse_config, save_config, serialize_config, write_file
from qmiheat.data import SynthSpec, generate_synthetic, write_packed, write_pgm, write_ppm
from qmiheat.errors import DataFormatError
from qmiheat.heatmap import BenchReport, Heatmap, write_heatmap
from qmiheat.models import build_model, save_model
from qmiheat.training import RunHistory, write_history


def test_parse_basic_and_order_preserved():
    cfg = parse_config("b=2\na = 1\nc=three four\n")
    assert cfg == {"b": "2", "a": "1", "c": "three four"}
    assert list(cfg) == ["b", "a", "c"]


def test_comments_and_blanks_ignored():
    cfg = parse_config("# top\n\nx=1  # trailing\n   \n# mid\ny=2\n")
    assert cfg == {"x": "1", "y": "2"}


def test_value_may_contain_equals():
    assert parse_config("expr=a=b\n") == {"expr": "a=b"}


def test_duplicate_key_keeps_last():
    assert parse_config("k=1\nk=2\n") == {"k": "2"}


def test_parse_error_names_source_and_line():
    with pytest.raises(DataFormatError) as err:
        parse_config("ok=1\nnot a pair\n", source="settings.txt")
    assert "settings.txt:2" in str(err.value)


def test_empty_key_rejected():
    with pytest.raises(DataFormatError) as err:
        parse_config("=5\n")
    assert "empty key" in str(err.value)


def test_serialize_then_parse_round_trip():
    cfg = {"alpha": "0.5", "name": "run one", "flag": ""}
    assert parse_config(serialize_config(cfg)) == cfg


def test_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    save_config({"epochs": "10", "eta": "0.001"}, p)
    assert load_config(p) == {"epochs": "10", "eta": "0.001"}


def test_load_error_names_path(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("junk line\n")
    with pytest.raises(DataFormatError) as err:
        load_config(p)
    assert "broken.cfg:1" in str(err.value)


def _bench_out(path):
    assert cli.run_cli(["bench", "--height", "32", "--width", "32", "--out", str(path)]) == 0


_WRITERS = {
    "save_model": lambda path: save_model(build_model("rf64", 3), path),
    "save_config": lambda path: save_config({"epochs": 10, "eta": 0.001}, path),
    "write_heatmap": lambda path: write_heatmap(
        Heatmap(np.arange(24, dtype=np.float32).reshape(3, 4, 2), "rf32", 64, 80), path
    ),
    "write_history": lambda path: write_history(
        RunHistory([1, 2], [0.7, 0.5], [-0.2, -0.1], [0.6, 0.8]), path
    ),
    "write_packed": lambda path: write_packed(generate_synthetic(SynthSpec(32, 2, 0)), path),
    "write_ppm": lambda path: write_ppm(np.arange(30, dtype=np.uint8).reshape(2, 5, 3), path),
    "write_pgm": lambda path: write_pgm(np.arange(10, dtype=np.uint8).reshape(2, 5), path),
    "bench --out": _bench_out,
}


class _Crash(Exception):
    """Not an OSError or ValueError, so ``run_cli`` lets it through."""


def _crash(*args):
    raise _Crash()


@pytest.mark.parametrize("writer", _WRITERS.values(), ids=_WRITERS.keys())
def test_every_writer_writes_whole_or_not_at_all(writer, tmp_path, monkeypatch):
    # bench --out reports a fixed measurement, so its bytes repeat.
    monkeypatch.setattr(cli, "benchmark_fps", lambda *a, **k: BenchReport("rf32", 32, 32, 5, 0.25))
    plain, target = tmp_path / "plain", tmp_path / "target"
    with open(plain, "w"):
        pass
    writer(target)
    written = target.read_bytes()
    assert written and os.stat(target).st_mode == os.stat(plain).st_mode

    # A failure before the rename leaves the old bytes and no other file.
    target.write_bytes(b"old")
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _crash)
        with pytest.raises(_Crash):
            writer(target)
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "target"]

    # A symlink is written through and stays a link.
    link = tmp_path / "link"
    link.symlink_to(target)
    writer(link)
    assert link.is_symlink() and target.read_bytes() == written

    # A pipe is written in place, never renamed over.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    writer(fifo)
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [written]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link", "plain", "target"]


def test_a_write_that_fails_partway_leaves_the_target(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_file(target, b"new bytes", "not bytes-like")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_a_write_that_cannot_start_names_the_target(tmp_path):
    target = tmp_path / "nodir" / "x.txt"
    with pytest.raises(FileNotFoundError) as info:
        save_config({"a": 1}, target)
    assert info.value.filename == target
    assert str(target) in str(info.value) and ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def _opens_for_writing(node):
    """An ``open`` call whose mode writes, or is not a literal."""
    if not isinstance(node, ast.Call):
        return False
    if getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
        return False
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
    mode = node.args[1] if len(node.args) > 1 else mode
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _package_modules():
    """(file name, source lines, syntax tree) of every package module."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(qmiheat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        yield os.path.basename(path), source.splitlines(), ast.parse(source, path)


def test_write_file_holds_the_only_open_for_writing():
    """An ``open`` for writing anywhere else in the package would bypass
    the whole-or-nothing write."""
    sites = []
    for name, _, tree in _package_modules():
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "write_file"
            for node in ast.walk(func)
        }
        sites += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if _opens_for_writing(node) and id(node) not in allowed
        ]
    assert sites == []


def test_every_import_is_read():
    """A name a module imports but never reads is dead weight; the only
    exceptions carry ``# noqa: F401`` on their import line."""
    unread = []
    for name, lines, tree in _package_modules():
        read = _read_names(tree)
        unread += [
            f"{name}:{alias.lineno} {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for bound in [(alias.asname or alias.name).split(".")[0]]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]
        ]
    assert unread == []


def test_every_private_name_is_read():
    """A module-level ``_name`` that its own module never reads is dead
    code, such as a constant left behind by a deleted path."""
    unread = []
    for name, _, tree in _package_modules():
        read = _read_names(tree)
        unread += [
            f"{name}:{node.lineno} {bound}"
            for node in tree.body
            for bound in _bound_names(node)
            if bound.startswith("_") and not bound.startswith("__") and bound not in read
        ]
    assert unread == []


def _read_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _bound_names(node):
    """Names a module-level statement binds, other than by import."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
