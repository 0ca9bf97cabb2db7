"""Sensor-fusion toolkit for MAV pose estimation from IMU and 5G ToA ranges."""

from .config import EskfOptions, PgoOptions
from .dataset import (ImuArrays, ToaArrays, Trajectory, associate_nearest,
                      load_groundtruth, load_imu, load_toa, save_toa)
from .eskf import FilterConfig, ImuNoiseParams, NavState, run_filter
from .metrics import MetricsReport, evaluate
from .pgo import PgoConfig, build_graph, optimize, run_batch, run_sliding_window
from .synthetic import SyntheticTrajectorySpec, generate_synthetic_trajectory
from .toa_sim import BaseStation, NoiseModel, default_stations, scenario_preset, simulate

__version__ = "0.1.0"

__all__ = [
    "BaseStation", "EskfOptions", "FilterConfig", "ImuArrays", "ImuNoiseParams",
    "MetricsReport", "NavState", "NoiseModel", "PgoConfig", "PgoOptions",
    "SyntheticTrajectorySpec", "ToaArrays", "Trajectory",
    "associate_nearest", "build_graph", "default_stations", "evaluate",
    "generate_synthetic_trajectory", "load_groundtruth", "load_imu",
    "load_toa", "optimize", "run_batch", "run_filter", "run_sliding_window",
    "save_toa", "scenario_preset", "simulate",
]
