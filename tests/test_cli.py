import json
import re
import subprocess
import sys

import numpy as np
import pytest

from equibound import DistributionPair, InvariantViolation, JointDistribution, ValidationError, run_walk
from equibound.cli import (
    DistributionParseError,
    build_parser,
    distribution_doc,
    main,
    parse_distribution,
)
from equibound.core import _COND_FORMULAS
from equibound.walk import _SNAPSHOT_MODES


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
        # a bad entry late in the grid is named by its full field path
        ('{"nx":2,"ny":3,"probs":[[0.5,0,0],[0.5,0,true]]}', r"^probs\[1\]\[2\] must be a number, got True$"),
        ('{"nx":2,"ny":3,"probs":[[0.5,0,0],[0.5,0,null]]}', r"^probs\[1\]\[2\] must be a number, got None$"),
        ('{"nx":2,"ny":3,"probs":[[0.5,0,0],[0.5,0,{}]]}', r"^probs\[1\]\[2\] must be a number, got \{\}$"),
        ('{"nx":2,"ny":3,"probs":[[0.5,0,0],[0.5,0,1' + "0" * 400 + "]]}", r"^probs\[1\]\[2\] is an integer too large for a float$"),
    ],
)
def test_parse_rejects_invalid_documents(doc, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_distribution(doc)


def test_parse_names_the_first_integer_past_the_float_range():
    # float() rounds 2**1024 - 2**970 - 1 to the largest float and 2**1024 - 2**970 to infinity
    edge = 2**1024 - 2**970
    doc = json.dumps({"nx": 2, "ny": 2, "probs": [[edge - 1, 0], [0, -edge]]})
    with pytest.raises(ValidationError, match=r"^probs\[1\]\[1\] is an integer too large for a float$"):
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


@pytest.mark.parametrize("formula", list(_COND_FORMULAS))
def test_entropy_subcommand_prints_positive_zero_for_a_point_mass(tmp_path, formula):
    f = write_dist(tmp_path / "j.json", JointDistribution([[1.0], [0.0]]))
    proc = run_cli("entropy", f, "--formula", formula)
    assert proc.returncode == 0
    assert proc.stdout == f'{{"conditional_entropy": 0.0, "formula": "{formula}"}}\n'


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


def _reference_trace(trace) -> str:
    """The trace file as json.dumps writes each step whole, with its grids as to_lists()."""
    lines = []
    for step in trace.steps:
        obj = {"label": step.label, "tv": step.tv, "gap": step.gap}
        if step.p is not None:
            obj["p"] = step.p.to_lists()
        if step.q is not None:
            obj["q"] = step.q.to_lists()
        if step.transferred is not None:
            obj["s"] = step.transferred
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def _sparse(nx, ny, rng):
    # about half the cells exactly zero
    a = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.5)
    a[0, 0] += 0.5
    return (a / a.sum()).tolist()


def _trace_file_pairs():
    rng = np.random.default_rng(20261019)

    def dense(nx, ny):
        return rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny).tolist()

    return {
        "1x1": ([[1.0]], [[1.0]]),
        "1x5": (dense(1, 5), dense(1, 5)),
        "5x1": (dense(5, 1), dense(5, 1)),
        "12x12": (dense(12, 12), dense(12, 12)),
        "6x24": (dense(6, 24), dense(6, 24)),
        "sparse-6x6": (_sparse(6, 6, rng), _sparse(6, 6, rng)),
        # a -0.0 cell in the file: a step that turns it into 0.0 differs only in its bits
        "negative-zero": ([[0.5, -0.0], [0.5, 0.0]], [[0.25, 0.25], [0.25, 0.25]]),
    }


@pytest.mark.parametrize("mode", _SNAPSHOT_MODES)
@pytest.mark.parametrize("case", list(_trace_file_pairs()))
def test_trace_file_bytes_are_json_dumps_of_each_step(tmp_path, capsys, case, mode):
    paths = [tmp_path / "p.json", tmp_path / "q.json"]
    for path, probs in zip(paths, _trace_file_pairs()[case]):
        path.write_text(json.dumps({"nx": len(probs), "ny": len(probs[0]), "probs": probs}))
    trace_path = tmp_path / "trace.jsonl"
    assert main(["walk", *map(str, paths), "--trace-file", str(trace_path), "--snapshots", mode]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    pair = DistributionPair(*(parse_distribution(path.read_text()) for path in paths))
    expected = _reference_trace(run_walk(pair, snapshots=mode))
    assert expected.count("\n") == steps
    assert trace_path.read_bytes() == expected.encode("utf-8")
    if case == "negative-zero" and mode != "none":
        assert "-0.0" in expected


def test_grid_text_memo_is_shared_and_bounded():
    from equibound.cli import _GridText

    rng = np.random.default_rng(7)
    memo: dict[int, str] = {}
    p, q = _GridText(memo), _GridText(memo)
    a = rng.random((3, 4))
    assert p.render(a) == json.dumps(a.tolist())
    assert len(memo) == a.size
    # the other grid of the trace, permuted, finds every text in the memo
    assert q.render(a[::-1].copy()) == json.dumps(a[::-1].tolist())
    assert len(memo) == a.size
    for _ in range(40):
        a = rng.random((3, 4))
        for grid in (p, q):
            assert grid.render(a) == json.dumps(a.tolist())
            assert len(memo) <= 4 * a.size


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys):
    p = write_dist(tmp_path / "p.json", JointDistribution([[0.25, 0.25], [0.25, 0.25]]))
    q = write_dist(tmp_path / "q.json", JointDistribution([[0.5, 0.5], [0.0, 0.0]]))
    first_trace = tmp_path / "trace.jsonl"
    calls = [
        ["walk", p, q, "--trace-file", str(first_trace), "--snapshots", "all"],
        ["bound", "--epsilon", "0.2", "--nx", "3"],
        ["bound", "--epsilon", "0.2"],
        ["walk", p, q],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
        if argv is calls[0]:
            first_trace.unlink()  # a later walk that took this --trace-file would write it again
    assert in_process[2][0] == 2 and "the following arguments are required: --nx" in in_process[2][2]
    assert not first_trace.exists()
    for argv, (code, out, err) in zip(calls, in_process):
        proc = run_cli(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        if code == 2:
            assert err == proc.stderr
    assert build_parser() is build_parser()


def test_verify_subcommand_mirrors_report():
    proc = run_cli("verify", "--nx", "2", "--ny", "2", "--trials", "50", "--seed", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    # the TrialReport fields in declaration order
    assert list(doc) == ["trials", "violations", "max_gap_over_bound_ratio", "worst_pair", "seed", "nx", "ny"]
    assert list(doc["worst_pair"]) == ["p", "q"]
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
    # the GridSearchResult fields in declaration order
    assert list(doc) == ["max_gap", "bound", "argmax_pair"]
    assert list(doc["argmax_pair"]) == ["p", "q"]
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


@pytest.mark.parametrize("command", ["entropy", "tv", "walk"])
def test_exit_usage_on_deeply_nested_file(tmp_path, command):
    # past the decoder's nesting limit json.loads raises RecursionError, not JSONDecodeError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    good = write_dist(tmp_path / "good.json", JointDistribution([[0.5], [0.5]]))
    files = [str(deep)] if command == "entropy" else [good, str(deep)]
    proc = run_cli(command, *files)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: malformed distribution file: arrays or objects nested too deeply\n"


def test_bound_on_an_alphabet_past_the_float_range():
    # 1.0 / nx overflows for such an nx; the bound is still defined
    proc = run_cli("bound", "--epsilon", "0.5", "--nx", "1" + "0" * 400)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"value": 665.3856189774725, "clamped": False}


def test_exit_domain_error_is_validation():
    assert run_cli("bound", "--epsilon", "0.5", "--nx", "1").returncode == 1
    assert run_cli("extremal", "--epsilon", "0.9", "--nx", "2").returncode == 1


def test_search_refuses_a_zero_radius_grid_past_the_fallback_guard():
    # every orbit ties at gap 0, so the search would scan all 888 030 points against each other
    proc = run_cli("search", "--nx", "4", "--ny", "2", "--epsilon", "1e-300", "--steps", "20")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "past the guard 80000" in proc.stderr


@pytest.mark.parametrize("command", ["search", "extremal"])
def test_a_radius_out_of_range_names_the_epsilon_option(command):
    proc = run_cli(command, "--epsilon", "0", "--nx", "2", "--ny", "1", *(["--steps", "10"] if command == "search" else []))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: epsilon must be in (0, 0.5], got 0.0")


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
    # a 300 x 300 pair: an "all" trace may take about 1.3 GB, so the walk is refused before it runs
    rng = np.random.default_rng(5)
    p, q = (
        write_dist(tmp_path / f"{name}.json", JointDistribution(rng.dirichlet(np.ones(300 * 300)).reshape(300, 300)))
        for name in "pq"
    )
    proc = run_cli("walk", p, q, "--snapshots", "all")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "trace guard" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_walk_refuses_a_trace_file_past_the_guard(tmp_path):
    # a 100 x 100 "all" walk is admitted, but its trace file could hold 16 * 10^4 bytes of grids
    # over 3 * 10^4 + 4 steps, about 4.8 GB: refused before it runs
    rng = np.random.default_rng(6)
    p, q = (
        write_dist(tmp_path / f"{name}.json", JointDistribution(rng.dirichlet(np.ones(100 * 100)).reshape(100, 100)))
        for name in "pq"
    )
    trace = tmp_path / "trace.jsonl"
    proc = run_cli("walk", p, q, "--snapshots", "all", "--trace-file", str(trace))
    assert proc.returncode == 1
    assert proc.stdout == "" and not trace.exists()
    assert proc.stderr == (
        "error: the 'all' trace file of the 100x100 pair may hold 4800640000 bytes of grids, over the trace guard 1073741824\n"
    )
    proc = run_cli("walk", p, q, "--snapshots", "all")
    assert proc.returncode == 0 and json.loads(proc.stdout)["certificate_ok"] is True


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
    "command,option,choices",
    [("entropy", "--formula", list(_COND_FORMULAS)), ("walk", "--snapshots", list(_SNAPSHOT_MODES))],
    ids=["formula", "snapshots"],
)
def test_option_choices_are_the_librarys(capsys, command, option, choices):
    assert main([command, "--help"]) == 0
    assert f"{option} {{{','.join(choices)}}}" in capsys.readouterr().out


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
