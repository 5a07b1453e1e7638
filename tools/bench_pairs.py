"""Collect parent and change benchmark runs into one BENCH_<topic>.json record.

    python tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --runs campaign:3001-3010 walk_none:4001-4003 --out BENCH_campaign_batch.json

Each tree is a checkout in which `python bench/run.py --workload W --seed S`
has run for every workload W and seed S named in --runs; the runs' record
files are read from its `.bench_out/` (`record-<W>-s<S>-t0.json`, untraced
runs only). For each workload the output holds, per side, the git sha and
machine of the runs, every run's end-to-end metrics, and each metric's
median and quartiles; and how many of the parent/change pairs (one per
seed) the change won on each metric, the direction coming from
BENCHMARK.json. The file is a record of measurements, not a gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'3001-3010' or '5,7,9' (or a mix) as a sorted list of seeds."""
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def load_runs(tree: Path, workload: str, seeds: list[int]) -> dict[int, dict]:
    runs = {}
    for seed in seeds:
        path = tree / ".bench_out" / f"record-{workload}-s{seed}-t0.json"
        if not path.exists():
            raise SystemExit(f"missing run record {path}")
        runs[seed] = json.loads(path.read_text())
    return runs


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side(runs: dict[int, dict]) -> dict:
    records = list(runs.values())
    shas = sorted({r["machine"]["git_sha"] for r in records})
    machine = {k: v for k, v in records[0]["machine"].items() if k not in ("git_sha", "src_sha256")}
    metrics = sorted(records[0]["metrics"])
    return {
        "git_sha": shas[0] if len(shas) == 1 else shas,
        "src_sha256": sorted({r["machine"]["src_sha256"] for r in records}),
        "machine": machine,
        "runs": [
            {"seed": seed, "seconds": r["seconds"], "failed_ratio": r["failed_ratio"],
             "metrics": {m: r["metrics"][m]["value"] for m in metrics}}
            for seed, r in runs.items()
        ],
        "summary": {m: spread([r["metrics"][m]["value"] for r in records]) for m in metrics},
    }


def compare(parent: dict[int, dict], change: dict[int, dict], better: dict[str, str]) -> dict:
    """Per metric: how many of the seed-matched pairs the change won (ties count for neither)."""
    wins = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(
            sign * change[s]["metrics"][metric]["value"] < sign * parent[s]["metrics"][metric]["value"] for s in parent
        )
        wins[metric] = {"better": direction, "change_won": won, "pairs": len(parent)}
    return wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--runs", nargs="+", required=True, help="WORKLOAD:SEEDS, e.g. campaign:3001-3010")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {
        "command": "python bench/run.py --workload W --seed S --seconds 15, parent and change alternating",
        "workloads": {},
    }
    for run in args.runs:
        workload, _, seed_text = run.partition(":")
        seeds = parse_seeds(seed_text)
        parent, change = load_runs(args.parent, workload, seeds), load_runs(args.change, workload, seeds)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "parent": side(parent),
            "change": side(change),
            "pairs": compare(parent, change, better),
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for metric, w in entry["pairs"].items():
            p, c = entry["parent"]["summary"][metric], entry["change"]["summary"][metric]
            print(f"{workload:12s} {metric:12s} parent {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g})  "
                  f"change {c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g})  change won {w['change_won']}/{w['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
