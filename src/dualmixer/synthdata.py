"""Synthetic run-to-failure generator with an exact remaining-life oracle.

Each unit's channel v follows a_uv + b_uv * (t/L)^gamma + noise with per-unit
random coefficients, so every channel degrades monotonically in expectation
and the true remaining life at cycle t is L - t by construction. Units are
RawSeries values, so the whole real-data pipeline runs on them unchanged;
with 21 channels they can also be written out in the 26-column text format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import RawSeries, check_fields, write_cmapss, write_rul

# A test unit is cut no earlier than this fraction of its life.
TEST_CUT_MIN_FRAC = 0.3


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs: training and test unit counts, inclusive
    cycle-length range, channel count, degradation exponent, observation
    noise, and the seed. Building a spec runs data.check_fields, which
    enforces each knob's declared bound, and then the cycle-range rule;
    each raises ValueError naming the first bad knob."""

    n_units: int = field(default=20, metadata={"min": 1})
    test_units: int = field(default=10, metadata={"min": 1})
    cycles: tuple[int, int] = (90, 140)
    n_vars: int = field(default=14, metadata={"min": 2})
    gamma: float = field(default=2.0, metadata={"above": 0})
    noise_std: float = field(default=0.05, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        check_fields(self)
        lo, hi = self.cycles
        if not (2 <= lo <= hi):
            raise ValueError(f"bad cycle range {self.cycles}")


def generate(spec: SynthSpec) -> list[RawSeries]:
    """Deterministically generate spec.n_units run-to-failure series."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.cycles
    units = []
    for unit_id in range(1, spec.n_units + 1):
        length = int(rng.integers(lo, hi + 1))
        offsets = rng.uniform(-0.5, 0.5, size=spec.n_vars)
        slopes = rng.uniform(0.5, 1.5, size=spec.n_vars)
        t = np.arange(1, length + 1)
        trend = offsets[None, :] + slopes[None, :] * (t[:, None] / length) ** spec.gamma
        noise = rng.normal(0.0, spec.noise_std, size=(length, spec.n_vars))
        units.append(RawSeries(unit_id=unit_id, sensors=trend + noise))
    return units


def oracle_rul(unit: RawSeries, cycle: int) -> int:
    """Ground-truth remaining cycles at a 1-based cycle index."""
    length = unit.length
    if not (1 <= cycle <= length):
        raise ValueError(f"cycle {cycle} outside unit {unit.unit_id} (1..{length})")
    return length - cycle


def make_test_split(units: list[RawSeries],
                    seed: int) -> tuple[list[RawSeries], list[int]]:
    """Truncate each unit at a random cycle before failure, mimicking an
    incomplete test split; returns the cut series and their true RULs."""
    rng = np.random.default_rng(seed)
    truncated = []
    ruls = []
    for u in units:
        first = max(1, int(np.ceil(u.length * TEST_CUT_MIN_FRAC)))
        cut = int(rng.integers(first, u.length))  # strictly before failure
        truncated.append(replace(u, sensors=u.sensors[:cut]))
        ruls.append(oracle_rul(u, cut))
    return truncated, ruls


def generate_splits(spec: SynthSpec
                    ) -> tuple[list[RawSeries], list[RawSeries], list[int]]:
    """A training split of spec.n_units units, and a test split of
    spec.test_units units cut before failure with their true RULs. The
    three draws are seeded with spec.seed, spec.seed + 1 and spec.seed + 2."""
    train = generate(spec)
    full_test = generate(replace(spec, n_units=spec.test_units, seed=spec.seed + 1))
    test, ruls = make_test_split(full_test, seed=spec.seed + 2)
    return train, test, ruls


def emit_cmapss(out_dir: str, tag: str, train_units: list[RawSeries],
                test_units: list[RawSeries], test_ruls: list[int]) -> dict[str, str]:
    """Write train/test/RUL files in the 26-column format; returns the paths.

    Units must carry 21 sensor channels so the files are structurally
    identical to the real benchmark's.
    """
    paths = {
        "train": os.path.join(out_dir, f"train_{tag}.txt"),
        "test": os.path.join(out_dir, f"test_{tag}.txt"),
        "rul": os.path.join(out_dir, f"RUL_{tag}.txt"),
    }
    write_cmapss(paths["train"], train_units)
    write_cmapss(paths["test"], test_units)
    write_rul(paths["rul"], test_ruls)
    return paths
