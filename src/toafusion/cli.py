"""Command-line experiment driver.

Subcommands:
  gen-config   write a fully commented configuration template
  gen-traj     emit synthetic IMU and ground-truth CSVs
  simulate     emit ToA range CSVs from ground truth
  run          run estimator(s) and write trajectories plus metrics
  sweep        grid over scenarios, station counts, and estimators

Exit codes: 0 success, 1 configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import metrics as metrics_mod
from . import pipeline, toa_sim
from .config import (OPTION_BY_KEY, ExperimentConfig, default_config_text,
                     load_config)
from .dataset import (save_cov_diag, save_groundtruth, save_imu, save_toa,
                      save_trajectory, write_atomic)
from .errors import ConfigError, DataError, NumericalError
from .pipeline import RUNS_CSV_HEADER, SWEEP_CSV_HEADER
from .synthetic import generate_synthetic_trajectory


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "out", None):
        cfg.run.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.run.seeds = (args.seed,)
    if getattr(args, "workers", None) is not None:
        cfg.run.workers = OPTION_BY_KEY["run", "workers"].parse(str(args.workers))
    if getattr(args, "estimator", None):
        cfg.run.estimator = args.estimator
    return cfg


def cmd_gen_config(args) -> int:
    text = default_config_text()
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_traj(args) -> int:
    cfg = _load(args)
    seed = cfg.run.seeds[0]
    imu, gt = generate_synthetic_trajectory(cfg.trajectory_spec(seed))
    os.makedirs(cfg.run.out_dir, exist_ok=True)
    imu_path = os.path.join(cfg.run.out_dir, "imu.csv")
    gt_path = os.path.join(cfg.run.out_dir, "groundtruth.csv")
    save_imu(imu_path, imu)
    save_groundtruth(gt_path, gt)
    print(f"wrote {imu_path} ({len(imu)} samples)")
    print(f"wrote {gt_path} ({len(gt)} poses)")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.run.out_dir, exist_ok=True)
    scenarios = cfg.sweep.scenarios or (cfg.noise.scenario,)
    count = cfg.stations.count
    stations = cfg.base_stations(count)
    for seed in cfg.run.seeds:
        _, gt = pipeline.load_inputs(cfg, seed)
        for scenario in scenarios:
            model = cfg.noise_model(seed + pipeline.TOA_SEED_OFFSET, count,
                                    scenario)
            sim = toa_sim.simulate(gt, stations, model, cfg.noise.toa_rate_hz)
            path = os.path.join(cfg.run.out_dir,
                                f"toa_{scenario}_seed{seed}.csv")
            save_toa(path, sim.ranges, num_stations=count)
            note = f" ({sim.clamped_count} clamped)" if sim.clamped_count else ""
            print(f"wrote {path} ({len(sim)} rows){note}")
    return 0


def _write_metrics(outdir: str, name: str,
                   report: metrics_mod.MetricsReport) -> None:
    write_atomic(os.path.join(outdir, f"metrics_{name}.txt"), report.to_kv_text())


def _write_cost_log(path, report) -> None:
    lines = ["iter,cost,damping"]
    lines += [f"{it},{cost:.9g},{damping:.3g}" for it, cost, damping
              in report.cost_log]
    write_atomic(path, "\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.run.out_dir, exist_ok=True)
    metrics_rows = ["seed,estimator," + metrics_mod.REPORT_CSV_HEADER]
    for seed in cfg.run.seeds:
        outdir = os.path.join(cfg.run.out_dir, f"seed{seed}")
        os.makedirs(outdir, exist_ok=True)
        result = pipeline.run_experiment(cfg, seed)
        if result.eskf is not None:
            save_trajectory(os.path.join(outdir, "eskf_trajectory.csv"),
                            result.eskf.trajectory)
            save_cov_diag(os.path.join(outdir, "eskf_cov_diag.csv"),
                          result.eskf.trajectory)
            _write_metrics(outdir, "eskf", result.eskf.report)
            metrics_rows.append(f"{seed},eskf," + result.eskf.report.to_csv_row())
            print(f"seed {seed} eskf: ate={result.eskf.report.ate:.4f} m "
                  f"cycle={result.eskf.timing_mean_ms:.3f} ms")
        if result.pgo is not None:
            save_trajectory(os.path.join(outdir, "pgo_trajectory.csv"),
                            result.pgo.trajectory)
            run = result.pgo.extra["run"]
            if run.streamed is not None:
                save_trajectory(os.path.join(outdir, "pgo_streamed.csv"),
                                run.streamed)
            if run.final_report is not None:
                _write_cost_log(os.path.join(outdir, "pgo_cost_log.csv"),
                                run.final_report)
            _write_metrics(outdir, "pgo", result.pgo.report)
            metrics_rows.append(f"{seed},pgo," + result.pgo.report.to_csv_row())
            print(f"seed {seed} pgo: ate={result.pgo.report.ate:.4f} m "
                  f"step={result.pgo.timing_mean_ms:.3f} ms")
    write_atomic(os.path.join(cfg.run.out_dir, "metrics.csv"),
                 "\n".join(metrics_rows) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.run.out_dir, exist_ok=True)
    aggregate, runs = pipeline.run_sweep(cfg, workers=cfg.run.workers)
    agg_lines = [SWEEP_CSV_HEADER]
    for scenario, bs, est, n_seeds, rep in aggregate:
        agg_lines.append(f"{scenario},{bs},{est},{n_seeds}," + rep.to_csv_row())
    write_atomic(os.path.join(cfg.run.out_dir, "sweep.csv"),
                 "\n".join(agg_lines) + "\n")
    run_lines = [RUNS_CSV_HEADER]
    for scenario, bs, est, seed, rep in runs:
        run_lines.append(f"{scenario},{bs},{est},{seed}," + rep.to_csv_row())
    write_atomic(os.path.join(cfg.run.out_dir, "runs.csv"),
                 "\n".join(run_lines) + "\n")
    print(f"wrote {os.path.join(cfg.run.out_dir, 'sweep.csv')} "
          f"({len(aggregate)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toafusion",
        description="IMU + 5G ToA sensor-fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-config", help="write a config template")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen_config)

    for name, func, help_text in (
            ("gen-traj", cmd_gen_traj, "emit synthetic IMU/ground-truth CSVs"),
            ("simulate", cmd_simulate, "emit ToA range CSVs"),
            ("run", cmd_run, "run estimators and write metrics"),
            ("sweep", cmd_sweep, "grid over scenarios/stations/estimators")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config INI")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="single-seed override")
        p.add_argument("--workers", type=int, help="parallel workers (sweep)")
        if name == "run":
            p.add_argument("--estimator", choices=("eskf", "pgo", "both"),
                           help="estimator override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
