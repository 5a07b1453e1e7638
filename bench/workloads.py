"""The benchmark's workloads: seeded inputs, the timed operation, and its checks.

Each workload is a list of items built from the seed. One operation runs one
item; the benchmark cycles through the items in a closed loop, one call at a
time on one thread. Every output is checked. Each check has a name; with
--tamper <name> the expected value of that one check is shifted, so the
smoke test can show that each check fails when its expectation is wrong.
A traced run executes the same operation with span-recording wrappers
installed (see tracing.py), then probes the layers the operation never
reached on the pairs it touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np

from equibound import (
    DistributionPair,
    JointDistribution,
    average_blocks,
    canonical_orient,
    check_bound,
    conditional_entropy,
    continuity_bound,
    grid_search_max_gap,
    perturb_within_tv,
    reorder,
    run_walk,
    sample_joint,
    tv_distance,
    verify_trials,
)
from equibound import cli

from tracing import count_walk

TOL = 1e-9  # certificate tolerance, as in the package
PINNED_TOL = 1e-12

CAMPAIGN_SHAPES = [(nx, ny) for nx in range(2, 6) for ny in range(1, 5)]
CAMPAIGN_TRIALS = 20
NEAR_EPS = 0.1

PAIR_KINDS = ("independent", "near", "sparse")
PAIRS_PER_CELL = 4
# an `all` walk's cost follows its move count, which varies most from pair to pair
PAIRS_PER_CELL_ALL = 8
LARGE_SHAPES = [(48, 48), (16, 144), (144, 16)]  # about 2 300 cells: modes none and phases
SMALL_SHAPES = [(12, 12), (6, 24), (24, 6)]  # about 150 cells: mode all and the CLI
TINY_SHAPES = [(4, 4), (2, 8), (8, 2)]

ORACLE_SET = [(2, 1, 0.3, 100), (2, 2, 0.3, 40), (3, 2, 0.3, 16), (2, 3, 0.2, 16), (3, 2, 0.3, 22)]
TINY_ORACLE_SET = [(2, 1, 0.3, 100), (3, 2, 0.3, 8)]
# configurations whose grid contains the extremal pair, so the maximum equals the bound
TIGHT = {(2, 1, 0.3, 100), (2, 2, 0.3, 40)}
# maxima computed by grid_search_max_gap at the commit that introduced this benchmark
PINNED_MAX_GAP = {
    (3, 2, 0.3, 8): 1.061278124459133,
    (3, 2, 0.3, 16): 1.061278124459133,
    (2, 3, 0.2, 16): 0.6962122601251458,
    (3, 2, 0.3, 22): 1.1180782093497093,
}
TAMPER_SHIFT = 1e-6


def make_pair(kind: str, nx: int, ny: int, rng: np.random.Generator) -> DistributionPair:
    """Independent, near (TV 0.1 perturbation) or sparse (q ~ Dirichlet(0.1)) pair."""
    p = sample_joint(nx, ny, rng)
    if kind == "independent":
        q = sample_joint(nx, ny, rng)
    elif kind == "near":
        q = perturb_within_tv(p, NEAR_EPS, rng)
    else:
        q = JointDistribution(rng.dirichlet(np.full(nx * ny, 0.1)).reshape(nx, ny))
    return DistributionPair(p, q)


def failed(**results: bool) -> list[str]:
    """Names of the checks that did not hold."""
    return [name for name, ok in results.items() if not ok]


class Workload:
    """Base class: items, named checks with their expectations, and the probe pass."""

    name = ""
    CHECKS: tuple[str, ...] = ()
    HOST_KERNEL = "small"  # reference kernel for host-speed normalisation (hostspeed.py)

    def __init__(self, seed: int, tiny: bool, workdir: str, tamper: str | None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.tamper = tamper
        self.first_seen: dict = {}
        self.items = self.build_items(np.random.default_rng(seed))

    def build_items(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def units(self, item) -> int:
        """Units of work in one operation (trials for a campaign call, else 1)."""
        return 1

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        """Names of the checks the output fails; empty when it is correct."""
        raise NotImplementedError

    def pairs_of(self, item, out) -> list[DistributionPair]:
        """The pairs an operation worked on, for probing the layers it did not reach."""
        raise NotImplementedError

    def warm(self) -> None:
        self.op(self.items[0])

    def expect(self, check: str, value, tampered):
        """The expected value of a check: `tampered` when --tamper names this check."""
        assert check in self.CHECKS, check
        return tampered if self.tamper == check else value

    def repeat_ok(self, key, value, tampered) -> bool:
        """True when `value` equals what this key produced the first time."""
        if key not in self.first_seen:
            self.first_seen[key] = self.expect("repeat", value, tampered)
        return self.first_seen[key] == value

    def probe(self, pairs, reached: set[str], tr) -> None:
        """Time, as probe.<layer>, every layer function the operation did not reach."""
        for n, pair in enumerate(pairs):
            nx, ny = pair.nx, pair.ny
            text = json.dumps(cli.distribution_doc(pair.p))
            tv = tv_distance(pair.p, pair.q)
            probe_seed = self.seed + n
            calls = (
                ("core.JointDistribution", JointDistribution, (pair.p.probs,)),
                ("core.DistributionPair", DistributionPair, (pair.p, pair.q)),
                ("core.conditional_entropy", conditional_entropy, (pair.p,)),
                ("core.tv_distance", tv_distance, (pair.p, pair.q)),
                ("bounds.continuity_bound", continuity_bound, (tv, nx)),
                ("bounds.check_bound", check_bound, (pair,)),
                ("walk.canonical_orient", canonical_orient, (pair,)),
                ("walk.reorder", reorder, (pair,)),
                ("walk.average_blocks", average_blocks, (pair.p,)),
                ("walk.run_walk", run_walk, (pair, "none")),
                ("verify.sample_joint", sample_joint, (nx, ny, probe_seed)),
                ("verify.perturb_within_tv", perturb_within_tv, (pair.p, NEAR_EPS, probe_seed)),
                ("cli.parse_distribution", cli.parse_distribution, (text,)),
            )
            for name, fn, args in calls:
                if name in reached:
                    continue
                with tr.span(f"probe.{name}"):
                    result = fn(*args)
                if name == "walk.run_walk":
                    count_walk(tr, "probe.", args, {}, result)


class Campaign(Workload):
    """verify_trials over every shape nx in 2..5, ny in 1..4, independent and near pairs."""

    name = "campaign"
    CHECKS = ("repeat", "trials", "violations", "ratio")

    def build_items(self, rng):
        shapes = [(2, 1), (3, 2)] if self.tiny else CAMPAIGN_SHAPES
        trials = 2 if self.tiny else CAMPAIGN_TRIALS
        return [
            (nx, ny, eps, int(rng.integers(0, 2**31)), trials)
            for nx, ny in shapes
            for eps in (None, NEAR_EPS)
        ]

    def units(self, item):
        return item[4]

    def op(self, item):
        nx, ny, eps, seed, trials = item
        return verify_trials(nx, ny, trials, seed, eps=eps)

    def check(self, item, rep):
        worst = rep.worst_pair
        ratio = rep.max_gap_over_bound_ratio
        fingerprint = (ratio, worst.p.probs.tobytes(), worst.q.probs.tobytes())
        return failed(
            repeat=self.repeat_ok(item, fingerprint, (ratio + 1.0,) + fingerprint[1:]),
            trials=rep.trials == self.expect("trials", item[4], item[4] + 1),
            violations=rep.violations == self.expect("violations", 0, 1),
            ratio=ratio <= self.expect("ratio", 1.0, 0.0) + TOL,
        )

    def pairs_of(self, item, rep):
        return [rep.worst_pair]


class Walk(Workload):
    """run_walk in one snapshot mode on independent, near and sparse pairs, three shapes."""

    mode = ""
    CHECKS = ("repeat", "initial_tv", "final_gap", "bound")

    def shapes(self):
        if self.tiny:
            return TINY_SHAPES
        return SMALL_SHAPES if self.mode == "all" else LARGE_SHAPES

    def build_items(self, rng):
        count = 1 if self.tiny else PAIRS_PER_CELL_ALL if self.mode == "all" else PAIRS_PER_CELL
        return [
            (f"{kind}/{nx}x{ny}/{r}", make_pair(kind, nx, ny, rng))
            for kind in PAIR_KINDS
            for nx, ny in self.shapes()
            for r in range(count)
        ]

    def op(self, item):
        return run_walk(item[1], snapshots=self.mode)

    def check(self, item, trace):
        # recomputed from the input pair and the final pair, not read from the trace
        key, pair = item
        steps = len(trace.steps)
        tv = tv_distance(pair.p, pair.q)
        gap = conditional_entropy(trace.final.p) - conditional_entropy(trace.final.q)
        bound = continuity_bound(tv, pair.nx).value
        return failed(
            repeat=self.repeat_ok(key, steps, steps + 1),
            initial_tv=abs(trace.initial_tv - self.expect("initial_tv", tv, tv + TAMPER_SHIFT)) <= TOL,
            final_gap=abs(trace.final_gap - self.expect("final_gap", gap, gap + TAMPER_SHIFT)) <= TOL,
            bound=gap <= self.expect("bound", bound, 0.0) + TOL,
        )

    def pairs_of(self, item, trace):
        return [item[1]]


class WalkNone(Walk):
    name, mode = "walk_none", "none"


class WalkPhases(Walk):
    name, mode = "walk_phases", "phases"


class WalkAll(Walk):
    name, mode = "walk_all", "all"


class CliWalk(Workload):
    """`equibound walk p.json q.json --trace-file t.jsonl`, in process, default snapshots."""

    name = "cli_walk"
    HOST_KERNEL = "mixed"
    CHECKS = ("exit", "one_document", "certificate", "trace_lines", "repeat", "bound")

    def build_items(self, rng):
        shapes = TINY_SHAPES if self.tiny else SMALL_SHAPES
        count = 1 if self.tiny else PAIRS_PER_CELL
        items = []
        for kind in PAIR_KINDS:
            for nx, ny in shapes:
                for r in range(count):
                    key = f"{kind}-{nx}x{ny}-{r}"
                    pair = make_pair(kind, nx, ny, rng)
                    paths = []
                    for side, J in (("p", pair.p), ("q", pair.q)):
                        path = os.path.join(self.workdir, f"{key}-{side}.json")
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(json.dumps(cli.distribution_doc(J)))
                        paths.append(path)
                    trace_path = os.path.join(self.workdir, f"{key}-trace.jsonl")
                    items.append((key, pair, ["walk", paths[0], paths[1], "--trace-file", trace_path]))
        return items

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item[2])
        return code, buf.getvalue()

    def check(self, item, out):
        key, pair, argv = item
        code, text = out
        lines = text.splitlines()
        if code != self.expect("exit", cli.EXIT_OK, cli.EXIT_OK + 1):
            return ["exit"]
        if len(lines) != self.expect("one_document", 1, 2):
            return ["one_document"]
        doc = json.loads(lines[0])
        with open(argv[-1], "r", encoding="utf-8") as fh:
            trace_lines = sum(1 for _ in fh)
        steps = doc["steps"]
        bound = continuity_bound(tv_distance(pair.p, pair.q), pair.nx).value
        return failed(
            certificate=doc["certificate_ok"] is self.expect("certificate", True, False),
            trace_lines=trace_lines == self.expect("trace_lines", steps, steps + 1),
            repeat=self.repeat_ok(key, steps, steps + 1),
            bound=doc["final_gap"] <= self.expect("bound", bound, 0.0) + TOL,
        )

    def pairs_of(self, item, out):
        return [item[1]]


class GridSearch(Workload):
    """grid_search_max_gap over the fixed oracle set, one configuration per operation, in a seeded order."""

    name = "grid_search"
    HOST_KERNEL = "scan"
    CHECKS = ("tight", "pinned", "bound", "reported_bound", "argmax_tv", "argmax_gap")

    def build_items(self, rng):
        configs = list(TINY_ORACLE_SET if self.tiny else ORACLE_SET)
        random.Random(int(rng.integers(0, 2**31))).shuffle(configs)
        return configs

    def op(self, cfg):
        return grid_search_max_gap(*cfg)

    def warm(self):
        grid_search_max_gap(2, 1, 0.3, 10)

    def check(self, cfg, res):
        nx, _, eps, _ = cfg
        bound = continuity_bound(eps, nx).value
        # tight configurations reach the bound; the others reach their pinned maximum
        name, expected, tol = ("tight", bound, TOL) if cfg in TIGHT else ("pinned", PINNED_MAX_GAP[cfg], PINNED_TOL)
        # the reported argmax pair must be feasible and attain the reported maximum
        argmax = check_bound(res.argmax_pair)
        return failed(
            **{name: abs(res.max_gap - self.expect(name, expected, expected + TAMPER_SHIFT)) <= tol},
            bound=res.max_gap <= self.expect("bound", bound, 0.0) + TOL,
            reported_bound=res.bound == self.expect("reported_bound", bound, bound + TAMPER_SHIFT),
            argmax_tv=argmax.tv <= self.expect("argmax_tv", eps, 0.0) + TOL,
            argmax_gap=abs(argmax.gap - self.expect("argmax_gap", res.max_gap, res.max_gap + TAMPER_SHIFT)) <= TOL,
        )

    def pairs_of(self, cfg, res):
        return [res.argmax_pair]


WORKLOADS = {cls.name: cls for cls in (Campaign, WalkNone, WalkPhases, WalkAll, CliWalk, GridSearch)}
