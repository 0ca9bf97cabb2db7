"""Paired benchmark of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 5 \\
        --workload eskf_csv_long --seed 0 --seed 11

Runs ``perfbench/run.py --trace 0`` on two copies made in a temporary
directory: a ``git archive`` of the parent revision, and the files of the
working tree that git tracks or would track (uncommitted edits included,
ignored outputs left out). Each workload and seed gets N pairs of
invocations, one per side, with the same interpreter and arguments; the
side that runs first alternates from pair to pair.

Writes one JSON file (by default ``BENCH_<yyyymmdd>.json`` at the root of
the repository) with every invocation's end-to-end metrics and its minor
page faults (the child's ``ru_minflt``, set-up and imports included) and, per
workload, seed and metric: each side's median and quartiles, the change's
wins and losses over the pairs (ties count for neither), the ratio of the
medians, whether the change's median stays within the metric's bound from
BENCHMARK.json, whether it is a gain: at least nine tenths of the pairs
won and medians further apart than the parent's interquartile range, and
whether it is unresolved: the parent's interquartile range is wider than
the bound times the parent's median, so the runs spread too widely to
tell, unless every change run beats every parent run. Exits 1 when an
invocation failed or reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
FAULTS = "minor_faults_setup_included"


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def copy_revision(rev: str, dest: Path) -> None:
    """The files of a revision, as ``git archive`` exports them."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """The working-tree files that git tracks or would track."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():    # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def invoke(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench invocation: its last output line, parsed, and
    the minor page faults of the whole child process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}, FAULTS: faults,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            FAULTS: faults}


def side_stats(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(name: str, spec: dict, runs: list) -> dict:
    """Paired statistics of one metric over the pairs where both sides
    reported it."""
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
             for r in runs if all(name in r[s]["metrics"] for s in SIDES)]
    out = {"unit": spec["unit"], "better": spec["better"],
           "bound": spec["bound"], "pairs": len(pairs)}
    if not pairs:
        return out
    sign = 1.0 if spec["better"] == "lower" else -1.0
    parent, change = (side_stats([p[k] for p in pairs]) for k in (0, 1))
    wins = sum(sign * (c - p) < 0.0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0.0 for p, c in pairs)
    gap = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    tolerance = spec["bound"] * abs(parent["median"])
    beats_all = max(sign * c for _, c in pairs) < min(sign * p for p, _ in pairs)
    out.update(parent=parent, change=change, wins=wins, losses=losses,
               change_over_parent=change["median"] / parent["median"],
               within_bound=bool(-gap <= tolerance),
               gain=bool(wins >= 0.9 * len(pairs) and gap > spread),
               unresolved=bool(spread > tolerance and not beats_all))
    return out


def environment(parent_rev: str) -> dict:
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    return {
        "parent": {"rev": parent_rev,
                   "commit": git("rev-parse", parent_rev).decode().strip()},
        "change": {"commit": git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted_edits": dirty},
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="perfbench --seconds of every invocation")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    specs = {m["name"]: m for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out_path = args.out or ROOT / f"BENCH_{datetime.date.today():%Y%m%d}.json"
    record = {"command": ["perfbench/run.py", "--trace", "0", "--seconds",
                          str(args.seconds)],
              "pairs": args.pairs, "environment": environment(args.parent),
              "results": []}

    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        copy_revision(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for workload in args.workload:
            for seed in args.seed:
                runs = []
                for k in range(args.pairs):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    run = {"pair": k, "first": order[0]}
                    for side in order:
                        run[side] = invoke(trees[side], workload, seed, args.seconds)
                        ok = ok and run[side]["correct"]
                    runs.append(run)
                    print(f"{workload} seed {seed} pair {k}: " + "; ".join(
                        f"{side} {run[side]['metrics']}" for side in SIDES),
                        flush=True)
                metrics = {name: compare(name, spec, runs)
                           for name, spec in specs.items()}
                faults = {side: side_stats([r[side][FAULTS] for r in runs])
                          for side in SIDES}
                record["results"].append({"workload": workload, "seed": seed,
                                          "metrics": metrics, FAULTS: faults,
                                          "runs": runs})
                for name, m in metrics.items():
                    if m["pairs"]:
                        print(f"  {name:12s} parent {m['parent']['median']:10.4f} "
                              f"change {m['change']['median']:10.4f} "
                              f"ratio {m['change_over_parent']:.3f} "
                              f"wins {m['wins']}/{m['pairs']} gain {m['gain']} "
                              f"within bound {m['within_bound']} "
                              f"unresolved {m['unresolved']}", flush=True)
                print(f"  {FAULTS} parent {faults['parent']['median']:.0f} "
                      f"change {faults['change']['median']:.0f}", flush=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
