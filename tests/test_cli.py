import json
import re
import subprocess
import sys

import numpy as np
import pytest

from equibound import InvariantViolation, JointDistribution, ValidationError
from equibound.cli import (
    DistributionParseError,
    distribution_doc,
    main,
    parse_distribution,
)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "equibound", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def write_dist(path, J):
    path.write_text(json.dumps(distribution_doc(J)))
    return str(path)


# ---------------------------------------------------------------- parse_distribution

def test_parse_valid_document():
    J = parse_distribution('{"nx":2,"ny":1,"probs":[[0.5],[0.5]]}')
    assert J == JointDistribution([[0.5], [0.5]])


def test_parse_rejects_bad_mass():
    with pytest.raises(ValidationError, match="mass"):
        parse_distribution('{"nx":2,"ny":1,"probs":[[0.6],[0.5]]}')


def test_parse_equivocation_example():
    from equibound import conditional_entropy

    J = parse_distribution('{"nx":2,"ny":2,"probs":[[0.5,0.25],[0.0,0.25]]}')
    assert conditional_entropy(J) == pytest.approx(0.5, abs=1e-14)


def test_parse_malformed_json_has_position():
    with pytest.raises(DistributionParseError, match="line 1"):
        parse_distribution('{"nx": 2,')


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ('[1, 2]', "object"),
        ('{"ny":1,"probs":[[1.0]]}', "nx"),
        ('{"nx":"2","ny":1,"probs":[[0.5],[0.5]]}', "nx"),
        ('{"nx":2,"ny":1,"probs":[[0.5]]}', "probs"),
        ('{"nx":2,"ny":1,"probs":[[0.5],[0.5,0.5]]}', "probs"),
        ('{"nx":2,"ny":1,"probs":[[0.5],["x"]]}', "probs"),
        ('{"nx":2,"ny":1,"probs":[[0.5],[true]]}', "probs"),
        ('{"nx":2,"ny":1,"probs":[[NaN],[0.5]]}', "finite"),
        ('{"nx":2,"ny":1,"probs":[[Infinity],[0.0]]}', "finite"),
        ('{"nx":2,"ny":1,"probs":[[-0.2],[1.2]]}', "negative"),
    ],
)
def test_parse_rejects_invalid_documents(doc, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_distribution(doc)


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(1812)
    for _ in range(50):
        nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        J = JointDistribution(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        back = parse_distribution(json.dumps(distribution_doc(J)))
        assert back == J


# ---------------------------------------------------------------- subcommand goldens

def test_bound_golden():
    proc = run_cli("bound", "--epsilon", "0.5", "--nx", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": 1.0, "clamped": False}


def test_extremal_golden():
    proc = run_cli("extremal", "--epsilon", "0.5", "--nx", "2", "--ny", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "p": {"nx": 2, "ny": 1, "probs": [[0.5], [0.5]]},
        "q": {"nx": 2, "ny": 1, "probs": [[1.0], [0.0]]},
    }


def test_tv_identical_files(tmp_path):
    J = JointDistribution([[0.3, 0.2], [0.1, 0.4]])
    a = write_dist(tmp_path / "a.json", J)
    b = write_dist(tmp_path / "b.json", J)
    proc = run_cli("tv", a, b)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"tv": 0.0}


def test_entropy_subcommand(tmp_path):
    f = write_dist(tmp_path / "j.json", JointDistribution([[0.5, 0.25], [0.0, 0.25]]))
    proc = run_cli("entropy", f)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["conditional_entropy"] == pytest.approx(0.5, abs=1e-14)
    assert doc["formula"] == "mixture"
    proc = run_cli("entropy", f, "--formula", "difference")
    assert json.loads(proc.stdout)["formula"] == "difference"


def test_walk_subcommand_with_trace(tmp_path):
    p = write_dist(tmp_path / "p.json", JointDistribution([[0.25, 0.25], [0.25, 0.25]]))
    q = write_dist(tmp_path / "q.json", JointDistribution([[0.5, 0.5], [0.0, 0.0]]))
    trace_path = tmp_path / "trace.jsonl"
    proc = run_cli("walk", p, q, "--trace-file", str(trace_path), "--snapshots", "phases")
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["initial_tv"] == 0.5
    assert summary["final_gap"] == pytest.approx(1.0, abs=1e-12)
    assert summary["bound_at_initial_tv"] == pytest.approx(1.0, abs=1e-12)
    assert summary["certificate_ok"] is True

    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(lines) == summary["steps"]
    assert lines[0]["label"] == "initial"
    assert lines[-1]["label"] == "average"
    for line in lines:
        assert set(line) <= {"label", "tv", "gap", "p", "q", "s"}
        assert "p" in line and "q" in line
    tvs = [line["tv"] for line in lines]
    assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:]))


def test_walk_snapshots_none_omits_grids(tmp_path):
    p = write_dist(tmp_path / "p.json", JointDistribution([[0.25, 0.25], [0.25, 0.25]]))
    q = write_dist(tmp_path / "q.json", JointDistribution([[0.5, 0.5], [0.0, 0.0]]))
    trace_path = tmp_path / "trace.jsonl"
    proc = run_cli("walk", p, q, "--trace-file", str(trace_path), "--snapshots", "none")
    assert proc.returncode == 0
    for line in trace_path.read_text().splitlines():
        doc = json.loads(line)
        assert "p" not in doc and "q" not in doc


def test_verify_subcommand_mirrors_report():
    proc = run_cli("verify", "--nx", "2", "--ny", "2", "--trials", "50", "--seed", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"trials", "violations", "max_gap_over_bound_ratio", "worst_pair", "seed", "nx", "ny"}
    assert doc["trials"] == 50
    assert doc["violations"] == 0
    assert doc["worst_pair"]["p"]["nx"] == 2
    # deterministic for fixed seed
    again = run_cli("verify", "--nx", "2", "--ny", "2", "--trials", "50", "--seed", "3")
    assert again.stdout == proc.stdout


def test_verify_subcommand_fixed_eps():
    proc = run_cli("verify", "--nx", "3", "--ny", "1", "--trials", "20", "--seed", "5", "--eps", "0.2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["violations"] == 0


def test_search_subcommand():
    proc = run_cli("search", "--nx", "2", "--ny", "1", "--epsilon", "0.3", "--steps", "30")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["max_gap"] <= doc["bound"] + 1e-9
    assert doc["argmax_pair"]["p"]["nx"] == 2


def test_stdout_is_a_single_json_document(tmp_path):
    f = write_dist(tmp_path / "j.json", JointDistribution([[0.5], [0.5]]))
    for argv in (
        ["bound", "--epsilon", "0.2", "--nx", "3"],
        ["entropy", f],
        ["extremal", "--epsilon", "0.25", "--nx", "3", "--ny", "2"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        json.loads(proc.stdout)  # raises if not exactly one document
        assert proc.stdout.strip().count("\n") == 0


# ---------------------------------------------------------------- exit codes

def test_exit_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nx":2,"ny":1,"probs":[[0.6],[0.5]]}')
    proc = run_cli("entropy", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "mass" in proc.stderr


def test_exit_usage_errors(tmp_path):
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("bound", "--epsilon", "0.5").returncode == 2
    malformed = tmp_path / "m.json"
    malformed.write_text('{"nx": 2,')
    assert run_cli("entropy", str(malformed)).returncode == 2
    assert run_cli("entropy", str(tmp_path / "missing.json")).returncode == 2


@pytest.mark.parametrize("command", ["entropy", "tv", "walk"])
def test_exit_usage_on_non_utf8_file(tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    good = write_dist(tmp_path / "good.json", JointDistribution([[0.5], [0.5]]))
    files = [str(bad)] if command == "entropy" else [good, str(bad)]
    proc = run_cli(command, *files)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed distribution file: not UTF-8 text")
    assert "Traceback" not in proc.stderr


def test_exit_domain_error_is_validation():
    assert run_cli("bound", "--epsilon", "0.5", "--nx", "1").returncode == 1
    assert run_cli("extremal", "--epsilon", "0.9", "--nx", "2").returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--epsilon", "0.3", "--nx", "3", "--ny", "100000000000"],
        ["verify", "--nx", "100000", "--ny", "100000", "--trials", "1"],
    ],
    ids=["extremal", "verify"],
)
def test_exit_validation_on_oversized_grid(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "grid-size guard" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_walk_refuses_a_trace_past_the_guard(tmp_path):
    # a 100 x 100 pair: an "all" trace may take about 4.8 GB, so the walk is refused before it runs
    rng = np.random.default_rng(5)
    p, q = (
        write_dist(tmp_path / f"{name}.json", JointDistribution(rng.dirichlet(np.ones(100 * 100)).reshape(100, 100)))
        for name in "pq"
    )
    proc = run_cli("walk", p, q, "--snapshots", "all")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "trace guard" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_internal_invariant_violation(monkeypatch, tmp_path, capsys):
    # route an InvariantViolation through main's exit-code mapping in-process
    import equibound.cli as cli

    def boom(pair, snapshots="phases"):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "run_walk", boom)
    p = write_dist(tmp_path / "p.json", JointDistribution([[0.5], [0.5]]))
    q = write_dist(tmp_path / "q.json", JointDistribution([[1.0], [0.0]]))
    rc = main(["walk", p, q])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "synthetic failure" in captured.err


def test_main_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ('{"nx":1,"ny":1,"probs":[[1' + "0" * 400 + "]]}", "too large for a float"),
        # past the interpreter's digit limit for int parsing, where it has one
        ('{"nx":1,"ny":1,"probs":[[1' + "0" * 5000 + "]]}", "too large for a float|Exceeds the limit"),
        ('{"nx":2,"ny":1,"nx":1,"probs":[[1.0]]}', "duplicate field 'nx'"),
        ('{"nx":1,"ny":1,"probs":[[1.0]],"meta":{"a":1,"a":2}}', "duplicate field 'a'"),
    ],
    ids=["int-overflows-float", "int-past-digit-limit", "duplicate-top-level-key", "duplicate-nested-key"],
)
def test_exit_validation_on_unrepresentable_or_ambiguous_input(tmp_path, capsys, doc, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    with pytest.raises(ValidationError, match=fragment):
        parse_distribution(doc)
    assert main(["entropy", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(fragment, captured.err)
