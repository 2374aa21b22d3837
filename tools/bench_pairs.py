"""Interleaved pairs of benchmark runs: a parent checkout against a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sod_sg \\
        --pairs 10 --seconds 28 --out BENCH.json [--first-seed 1000]

Pair i runs ``python3 bench/run.py --workload W --seed (first seed + i)
--seconds S --trace 0`` in each checkout, one process after the other, the
parent first in even pairs and the change first in odd ones, so that drift
of the host falls on both sides alike. Both sides of a pair draw the same
inputs, so their steps, Newton counts and ``stats.csv`` hashes must agree.

``--out`` holds one record per workload; a run adds or replaces its
workload's record. The record holds the SHA-256 of each side's
``src/uqfv/*.py`` files, and, for every end-to-end metric of the change's
``BENCHMARK.json``: each side's median, quartiles and values, the per-pair
values, the number of pairs the change wins, and the median of the
per-pair differences (change - parent) against the parent's quartile
spread. It also receives each side's ``failed`` counts and, per seed, the
steps, Newton iterations and ``stats_csv_sha256`` of every run, and whether
the two sides agree on them. A summary goes to standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process in ``root``: its result line and its report."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    return {"result": json.loads(lines[-1]), "report": report}


def source_sha256(root: Path) -> str:
    """SHA-256 of the package sources the runs in ``root`` import."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "uqfv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spread(values: list) -> dict:
    """Median, quartiles and values of one side's metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(runs: list, metrics: list) -> dict:
    """The record of ``runs``, one {side: bench_once output} per pair."""
    record = {"metrics": {}, "failed": {}, "seeds": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [[run[side]["result"]["metrics"][name]["value"] for side in SIDES] for run in runs]
        parent, change = (spread([pair[i] for pair in pairs]) for i in range(2))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        record["metrics"][name] = {
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "pairs": pairs,
            "change_wins": wins,
            "median_difference": statistics.median(c - p for p, c in pairs),
            "parent_quartile_spread": parent["q3"] - parent["q1"],
        }
    for side in SIDES:
        record["failed"][side] = [run[side]["result"]["failed"] for run in runs]
    for run in runs:
        seed = run["parent"]["report"]["inputs"]["seed"]
        outputs = {
            side: {
                method: {key: rec[key] for key in ("steps", "newton_iterations", "stats_csv_sha256")}
                for method, rec in run[side]["report"]["runs"].items()
            }
            for side in SIDES
        }
        outputs["same"] = outputs["parent"] == outputs["change"]
        record["seeds"][str(seed)] = outputs
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs.append({side: bench_once(roots[side], args.workload, seed, args.seconds) for side in order})
        values = {side: runs[-1][side]["result"]["metrics"]["wall_norm"]["value"] for side in SIDES}
        print(f"pair {i} seed {seed} ({order[0]} first): wall_norm {values}", flush=True)
    environment = dict(runs[0]["change"]["report"]["environment"])
    for key in ("git_commit", "seed"):
        environment.pop(key, None)
    record = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "first_seed": args.first_seed,
        "src_sha256": {side: source_sha256(roots[side]) for side in SIDES},
        "environment": environment,
        **summarize(runs, spec["end_to_end"]),
    }
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records[args.workload] = record
    args.out.write_text(json.dumps(records, indent=1) + "\n")
    for name, metric in record["metrics"].items():
        print(
            f"{name}: parent {metric['parent']['median']:.4g} -> change "
            f"{metric['change']['median']:.4g}, change wins {metric['change_wins']}/{args.pairs}, "
            f"median difference {metric['median_difference']:.4g}, "
            f"parent quartile spread {metric['parent_quartile_spread']:.4g}"
        )
    print(f"failed: {record['failed']}; outputs agree on every seed: "
          f"{all(s['same'] for s in record['seeds'].values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
