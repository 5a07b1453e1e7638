"""Command-line surface and file formats.

Every subcommand writes exactly one JSON document to stdout; diagnostics go
to stderr. Floats are serialized with Python's shortest round-trip
representation, so parse(serialize(J)) reproduces J bit-exactly.

Exit codes: 0 success; 1 validation error (schema or invariant breach,
including NaN/infinite/negative entries and bad total mass); 2 usage error
(bad arguments, unreadable file, a file that is not UTF-8 text, malformed
JSON); 3 internal invariant violation (a walk certificate failed, which
signals a bug).

File formats:

- distribution file: UTF-8 JSON {"nx": int, "ny": int, "probs": [[real; ny]; nx]}
- walk trace file: JSON lines, one step per line:
  {"label": str, "tv": real, "gap": real, "p"?: probs, "q"?: probs, "s"?: real}
  written one step at a time; a step's grids are rendered again only in
  the cells that changed since the step before, and each line's bytes are
  those json.dumps gives for the step
- verify report: the TrialReport fields, in declaration order
- search result: the GridSearchResult fields, in declaration order

A result's document is its type's fields: a grid is a distribution document
and a pair is {"p": ..., "q": ...}, so a field added to a result type
reaches its subcommand's output with no edit here.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .bounds import continuity_bound, extremal_pair
from .core import (
    _COND_FORMULAS,
    DistributionPair,
    JointDistribution,
    ValidationError,
    conditional_entropy,
    tv_distance,
)
from .verify import grid_search_max_gap, verify_trials
from .walk import _SNAPSHOT_MODES, InvariantViolation, WalkTrace, _check_trace_size, run_walk

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class DistributionParseError(ValueError):
    """The document is not well-formed JSON."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads keeps the last of duplicate keys silently; a distribution file must not have any
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ValidationError(f"duplicate field {key!r}")
        doc[key] = value
    return doc


def parse_distribution(text: str) -> JointDistribution:
    """Parse and validate a distribution document.

    Raises DistributionParseError for malformed JSON (with line/column) and
    for nesting too deep to decode, and ValidationError for schema or
    invariant breaches (with the offending field), including NaN and
    infinite entries, integers too large for a float and duplicate keys in
    any object.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DistributionParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:  # arrays or objects nested past the decoder's recursion limit
        raise DistributionParseError("arrays or objects nested too deeply") from None
    except ValidationError:
        raise
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValidationError(str(exc).split(";")[0]) from None
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("nx", "ny", "probs"):
        if key not in doc:
            raise ValidationError(f"missing required field {key!r}")
    for name in ("nx", "ny"):
        if type(doc[name]) is not int or doc[name] < 1:  # a JSON bool's type is bool, not int
            raise ValidationError(f"{name} must be a positive integer, got {doc[name]!r}")
    nx, ny, probs = doc["nx"], doc["ny"], doc["probs"]
    if not isinstance(probs, list) or len(probs) != nx:
        raise ValidationError(f"probs must be a list of nx={nx} rows, got {len(probs) if isinstance(probs, list) else probs!r}")
    for i, row in enumerate(probs):
        if not isinstance(row, list) or len(row) != ny:
            raise ValidationError(f"probs[{i}] must be a list of ny={ny} numbers")
    # JSON values are int, float, bool, str, None, list or dict, and a bool's type is bool:
    # one pass at C level admits numbers only, and the entries are walked only to name a culprit
    if not set(map(type, itertools.chain.from_iterable(probs))) <= {int, float}:
        i, j, x = next((i, j, x) for i, row in enumerate(probs) for j, x in enumerate(row) if type(x) not in (int, float))
        raise ValidationError(f"probs[{i}][{j}] must be a number, got {x!r}")
    try:
        return JointDistribution(probs)
    except OverflowError:  # float() of an int: from 2**1024 - 2**970 on it would round to infinity
        i, j = next((i, j) for i, row in enumerate(probs) for j, x in enumerate(row) if type(x) is int and abs(x) >= 2**1024 - 2**970)
        raise ValidationError(f"probs[{i}][{j}] is an integer too large for a float") from None


def distribution_doc(J: JointDistribution) -> dict[str, Any]:
    return {"nx": J.nx, "ny": J.ny, "probs": J.to_lists()}


def _result_doc(result: Any) -> Any:
    """The document of a result: a grid's distribution document, a dataclass's fields in declaration order."""
    if isinstance(result, JointDistribution):
        return distribution_doc(result)
    if dataclasses.is_dataclass(result):
        return {f.name: _result_doc(getattr(result, f.name)) for f in dataclasses.fields(result)}
    return result


class _GridText:
    """One grid's JSON text as json.dumps writes its to_lists(), re-rendered only in the cells whose bits changed.

    The text is kept as a list of parts, the brackets and separators
    between the cells' texts (cell i is part 2i + 1), so the grid's text is
    one join. Cells are compared with the last grid rendered bit by bit,
    not by value, so a 0.0 that turns into -0.0 is rendered again. A
    changed cell takes its text from `memo`, keyed by its bits, which the
    grids of one trace share: orienting swaps p and q, reordering permutes
    cells, and a block step often moves a value some cell held before. The
    memo is cleared once it holds more than four texts per cell.
    """

    def __init__(self, memo: dict[int, str]) -> None:
        self.shape: tuple[int, ...] | None = None
        self.memo = memo

    def render(self, a: np.ndarray) -> str:
        a = np.ascontiguousarray(a)
        bits = a.view(np.uint64).ravel()
        if a.shape != self.shape:
            nx, ny = self.shape = a.shape
            seps = ([", "] * (ny - 1) + ["], ["]) * nx
            seps[-1] = "]]"
            self.parts = ["[["] + [part for sep in seps for part in ("", sep)]
            changed = np.arange(bits.size)
        else:
            changed = (bits != self.bits).nonzero()[0]
        parts, memo = self.parts, self.memo
        for i, key, x in zip((2 * changed + 1).tolist(), bits[changed].tolist(), a.ravel()[changed].tolist()):
            text = memo.get(key)
            if text is None:
                text = memo[key] = float.__repr__(x)
            parts[i] = text
        if len(memo) > 4 * bits.size:
            memo.clear()
        self.bits = bits.copy()
        return "".join(parts)


def write_trace(trace: WalkTrace, path: str) -> None:
    """Write the trace to `path` as JSON lines, one step at a time.

    Each line is the bytes json.dumps gives for {"label", "tv", "gap",
    "p"?, "q"?, "s"?} with the grids as to_lists(), but a step's grids are
    rendered only in the cells that changed since the step before (a block
    step changes one column). Every value a walk records is certified
    finite, so json's NaN and Infinity spellings are never needed.
    """
    memo: dict[int, str] = {}
    grids = {"p": _GridText(memo), "q": _GridText(memo)}
    with open(path, "w", encoding="utf-8") as fh:
        for step in trace.steps:
            label, tv, gap = encode_basestring_ascii(step.label), float.__repr__(step.tv), float.__repr__(step.gap)
            line = f'{{"label": {label}, "tv": {tv}, "gap": {gap}'
            for key, J in (("p", step.p), ("q", step.q)):
                if J is not None:
                    line += f', "{key}": {grids[key].render(J.probs)}'
            if step.transferred is not None:
                line += f', "s": {float.__repr__(step.transferred)}'
            fh.write(line + "}\n")


def _load(path: str) -> JointDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DistributionParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_distribution(text)


def _cmd_bound(args) -> dict:
    result = continuity_bound(args.epsilon, args.nx)
    return {"value": result.value, "clamped": result.clamped}


def _cmd_entropy(args) -> dict:
    J = _load(args.file)
    return {"conditional_entropy": conditional_entropy(J, args.formula), "formula": args.formula}


def _cmd_tv(args) -> dict:
    return {"tv": tv_distance(_load(args.p_file), _load(args.q_file))}


def _cmd_extremal(args) -> dict:
    return _result_doc(extremal_pair(args.epsilon, args.nx, args.ny))


def _cmd_walk(args) -> dict:
    pair = DistributionPair(_load(args.p_file), _load(args.q_file))
    if args.trace_file:
        _check_trace_size(pair.nx, pair.ny, args.snapshots, to_file=True)
    trace = run_walk(pair, snapshots=args.snapshots)
    if args.trace_file:
        write_trace(trace, args.trace_file)
    bound_at_initial = continuity_bound(trace.initial_tv, pair.nx).value if pair.nx >= 2 else None
    return {
        "initial_tv": trace.initial_tv,
        "initial_gap": trace.initial_gap,
        "final_tv": trace.final_tv,
        "final_gap": trace.final_gap,
        "bound_at_initial_tv": bound_at_initial,
        "steps": len(trace.steps),
        "certificate_ok": True,
    }


def _cmd_verify(args) -> dict:
    return _result_doc(verify_trials(args.nx, args.ny, args.trials, args.seed, eps=args.eps))


def _cmd_search(args) -> dict:
    return _result_doc(grid_search_max_gap(args.nx, args.ny, args.epsilon, args.steps))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equibound",
        description="Tight continuity bound for conditional Shannon entropy in total variation distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the bound eps*log2(nx-1) + h(eps)")
    p_bound.add_argument("--epsilon", type=float, required=True)
    p_bound.add_argument("--nx", type=int, required=True)
    p_bound.set_defaults(handler=_cmd_bound)

    p_entropy = sub.add_parser("entropy", help="conditional entropy H(X|Y) of a distribution file")
    p_entropy.add_argument("file")
    p_entropy.add_argument("--formula", choices=list(_COND_FORMULAS), default="mixture")
    p_entropy.set_defaults(handler=_cmd_entropy)

    p_tv = sub.add_parser("tv", help="total variation distance between two distribution files")
    p_tv.add_argument("p_file")
    p_tv.add_argument("q_file")
    p_tv.set_defaults(handler=_cmd_tv)

    p_walk = sub.add_parser("walk", help="run the invariant-checked simplex walk on a pair")
    p_walk.add_argument("p_file")
    p_walk.add_argument("q_file")
    p_walk.add_argument("--trace-file", default=None, help="write the JSON-lines trace here")
    p_walk.add_argument("--snapshots", choices=_SNAPSHOT_MODES, default="phases")
    p_walk.set_defaults(handler=_cmd_walk)

    p_verify = sub.add_parser("verify", help="seeded random campaign of bound checks and walks")
    p_verify.add_argument("--nx", type=int, required=True)
    p_verify.add_argument("--ny", type=int, required=True)
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--eps", type=float, default=None, help="fixed TV radius; omit for independent sampling")
    p_verify.set_defaults(handler=_cmd_verify)

    p_extremal = sub.add_parser("extremal", help="the saturating pair at a given TV radius")
    p_extremal.add_argument("--epsilon", type=float, required=True)
    p_extremal.add_argument("--nx", type=int, required=True)
    p_extremal.add_argument("--ny", type=int, default=1)
    p_extremal.set_defaults(handler=_cmd_extremal)

    p_search = sub.add_parser("search", help="exhaustive grid search for the maximum gap at TV <= epsilon")
    p_search.add_argument("--nx", type=int, required=True)
    p_search.add_argument("--ny", type=int, required=True)
    p_search.add_argument("--epsilon", type=float, required=True)
    p_search.add_argument("--steps", type=int, default=50)
    p_search.set_defaults(handler=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; 2 on usage errors
        return int(exc.code or 0)
    try:
        out = args.handler(args)
    except DistributionParseError as exc:
        print(f"error: malformed distribution file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps(out))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
