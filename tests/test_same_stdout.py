"""tools/same_stdout.py tells equal source trees from ones whose stdout
differs, on the `analyze` workload at one seed, or whose error line
differs, on its extra commands, and those print what the library
gives."""

import hashlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tokenslide
from tokenslide import build_TSk, export_dot, parse_graph6

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(tokenslide.__file__).resolve().parent


def copy_src(dest):
    shutil.copytree(PACKAGE, dest / "tokenslide",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def same_stdout(old, new, workload="analyze"):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_stdout.py"), str(old),
         str(new), "--workload", workload, "--seeds", "1"],
        capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def parent(tmp_path_factory):
    return copy_src(tmp_path_factory.mktemp("old"))


def test_equal_trees(parent, tmp_path):
    proc = same_stdout(parent, copy_src(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 of 5 commands differ\n"


def test_one_extra_byte(parent, tmp_path):
    cli = copy_src(tmp_path) / "tokenslide" / "cli.py"
    text = cli.read_text()
    emit_end = '    _encode(obj, "\\n", sys.stdout.write)\n' \
        '    sys.stdout.write("\\n")\n'
    assert emit_end in text
    cli.write_text(text.replace(emit_end, emit_end.replace(
        'write("\\n")', 'write("\\n ")')))
    proc = same_stdout(parent, tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "5 of 5 commands differ"
    assert len(lines) == 6
    for line in lines[:-1]:
        assert line.startswith("seed 1 analyze-")
        assert ": exit 0 -> 0, stdout " in line


def test_changed_error_message(parent, tmp_path):
    io_py = copy_src(tmp_path) / "tokenslide" / "io.py"
    text = io_py.read_text()
    assert text.count('"nonzero padding bits"') == 1
    io_py.write_text(text.replace('"nonzero padding bits"',
                                  '"nonzero padding bit"'))
    proc = same_stdout(parent, tmp_path, "extra")
    assert proc.returncode == 1, proc.stderr
    empty = hashlib.sha256(b"").hexdigest()[:16]
    old, new = (hashlib.sha256(f"error: {m}\n".encode()).hexdigest()[:16]
                for m in ("nonzero padding bits", "nonzero padding bit"))
    assert proc.stdout.splitlines() == [
        f"seed 1 bad-graph6-padding: exit 2 -> 2, stdout {empty} -> {empty}"
        f", stderr {old} -> {new}",
        "1 of 13 commands differ"]


def test_extra_command_prints_export_dot(monkeypatch):
    # the DOT build of TS_2(C_67), a host past 64 vertices, as the tool
    # runs it, against export_dot of the same graph in this process
    monkeypatch.syspath_prepend(str(ROOT / "clibench"))
    spec = importlib.util.spec_from_file_location(
        "same_stdout", ROOT / "tools" / "same_stdout.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cmd, = (c for c in tool.extra_commands(1) if c.name == "build-C67-k2-dot")
    g = parse_graph6(cmd.argv[cmd.argv.index("--graph6") + 1])
    assert g.n == 67
    text = export_dot(build_TSk(g, 2))
    assert tool.outcome(PACKAGE.parent, cmd) \
        == (0, hashlib.sha256(text.encode()).hexdigest(), None)
