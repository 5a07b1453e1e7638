"""The command-line surface of the scripts in tools/."""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
# the package of this checkout, whatever else is installed
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_tool(name, *argv):
    return subprocess.run([sys.executable, str(TOOLS / name), *argv], capture_output=True, text=True, env=ENV, timeout=120)


def test_walk_digest_help_digests_nothing():
    start = time.perf_counter()
    proc = run_tool("walk_digest.py", "--help")
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    assert not [line for line in proc.stdout.splitlines() if len(line.split()) == 3 and len(line.split()[2]) == 64]


def test_walk_digest_unknown_section_is_a_usage_error():
    proc = run_tool("walk_digest.py", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "nosuch" in proc.stderr


def test_walk_digest_one_section_prints_its_line_of_a_full_run(monkeypatch, capsys):
    proc = run_tool("walk_digest.py", "search")
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("walk_digest", TOOLS / "walk_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a full run with the five slow sections stubbed: the search line must be the one printed alone
    for name in module.SECTIONS:
        if name != "search":
            monkeypatch.setitem(module.SECTIONS, name, lambda: (0, "0" * 64))
    module.main([])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["walks", "campaigns", "ranges", "orientation", "jsonl", "search"]
    assert proc.stdout.splitlines() == [lines[-1]]
    _, count, digest = lines[-1].split()
    assert (int(count), len(digest)) == (len(module.SEARCH_CONFIGS), 64)


def test_code_lines_total_is_the_sum_of_its_files():
    proc = run_tool("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert [name for _, name in rows[:-1]] == sorted(p.name for p in (ROOT / "src" / "equibound").glob("*.py"))
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
