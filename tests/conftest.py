import csv
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dispdecomp import Dataset, RoleSpec

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("deterministic")

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def src_env():
    """Subprocess environment that imports dispdecomp from this checkout's src/.

    src/ goes in front of any PYTHONPATH the caller set, which is kept.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([SRC_DIR, inherited]) if inherited else SRC_DIR
    return {**os.environ, "PYTHONPATH": path}


def build_dataset(columns, *, group="R", outcome="Y", mediator="M", baseline=(), intermediate=()):
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in columns.items()}
    roles = RoleSpec(
        group=group,
        outcome=outcome,
        mediator=mediator,
        baseline=tuple(baseline),
        intermediate=tuple(intermediate),
    )
    return Dataset(arrays, roles)


def write_dataset_csv(data, path):
    """data as a CSV file: its column names, then each value as repr(float), which round-trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        writer.writerows(zip(*(map(repr, column.tolist()) for column in data.columns.values())))


def random_dataset(seed, n=24, n_baseline=1, n_intermediate=1):
    """Continuous columns from a seeded generator; full rank almost surely."""
    rng = np.random.default_rng(seed)
    half = n // 2
    r = np.array([0.0] * half + [1.0] * (n - half))
    cols = {"R": r}
    baseline = tuple(f"C{i}" for i in range(1, n_baseline + 1))
    intermediate = tuple(f"X{i}" for i in range(1, n_intermediate + 1))
    for name in baseline:
        cols[name] = rng.normal(1.0 - 0.5 * r, 1.0)
    acc = np.zeros(n)
    for name in intermediate:
        cols[name] = rng.normal(0.4 * r, 1.0)
        acc = acc + cols[name]
    cols["M"] = rng.normal(1.0 - 0.6 * r + 0.2 * acc, 1.0)
    cols["Y"] = rng.normal(0.5 * r + 0.25 * acc + 0.4 * cols["M"], 1.0)
    return build_dataset(cols, baseline=baseline, intermediate=intermediate)


@pytest.fixture
def worked_dic_dataset():
    return build_dataset({"R": [0, 0, 1, 1], "M": [0, 1, 1, 2], "Y": [0, 2, 3, 5]})


@pytest.fixture
def worked_kob_dataset():
    return build_dataset({"R": [0, 0, 1, 1], "M": [1, 3, 2, 4], "Y": [1, 3, 5, 9]})


@pytest.fixture
def worked_cda_dataset():
    return build_dataset({"R": [0, 0, 1, 1], "M": [2, 2, 0, 2], "Y": [2, 2, 0, 2]})


@pytest.fixture
def orthogonal_mediator_dataset():
    return build_dataset({"R": [0, 0, 1, 1], "M": [-1, 1, -1, 1], "Y": [-1, 1, 0, 2]})
