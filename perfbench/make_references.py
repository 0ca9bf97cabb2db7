"""Record the per-seed reference outputs the benchmark checks every run against.

    python3 perfbench/make_references.py --seeds 0-15

Runs each workload once per seed and stores the ESKF ATE and the ATE of the
reported trajectory in perfbench/references.json. Re-record only when a
change is meant to move the estimates, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)

    pipeline = run.import_program()["pipeline"]
    import workloads
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text())
    names = args.workloads or list(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        seeds = refs["workloads"].setdefault(name, {}).setdefault("seeds", {})
        for seed in args.seeds:
            cfg = workloads.prepare(wl, seed,
                                    str(run.OUT / "data" / name))
            result = pipeline.run_experiment(cfg, seed)
            obs = workloads.observe(wl, cfg, result)
            expected = workloads.expected_counts(wl, cfg)
            if obs.counts != expected:
                raise SystemExit(f"{name} seed {seed}: counts {obs.counts} "
                                 f"!= expected {expected}")
            seeds[str(seed)] = {"ate_eskf_m": obs.ate_eskf_m,
                                "ate_out_m": obs.ate_out_m}
            print(name, seed, seeds[str(seed)], flush=True)
        refs["workloads"][name]["seeds"] = dict(
            sorted(seeds.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
