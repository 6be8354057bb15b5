"""The three benchmark workloads, driven through dualmixer's public API.

Every workload builds its inputs with ``harness.load_dataset`` on the
built-in synth dataset and its model with ``model.make_variant``, seeded
from the workload seed through ``RunConfig.seed``. A *call* is one call
into a public entry point; the benchmark times calls and, through the step
clock in ``tracing.py``, the optimizer steps or predict chunks inside them.

* ``fsgri_train``: ``fsgri.train_epoch_fsgri`` over the windows of one
  whole unit per call (whole units keep the sampler's distribution that
  of full training). Exercises the sampler, the contrastive loss graph and
  the per-node tape overhead.
* ``standard_train``: ``harness.train_standard`` for one epoch over a
  fixed number of windows (a whole number of batches). Kernels dominate;
  no sampler and no contrastive loss.
* ``predict``: ``harness.predict_samples`` over a fixed number of windows.
  Untaped forward kernels only: no tape, backward or Adam.

Each call's outputs (losses or predictions) are returned so the caller can
check they are finite and, on the fixed check seed, that they match the
stored reference.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Seed of the output check; its reference values live in reference.json.
CHECK_SEED = 0


@dataclass(frozen=True)
class Shape:
    """Model and batch shape, plus the amount of work in one call."""

    w: int
    d: int
    n_layers: int
    b: int
    m: int
    windows: int  # windows per train_standard / predict_samples call


SHAPES = {
    # the paper's reference recipe: variant full, w30, d32, N6, b128, m5
    "reference": Shape(w=30, d=32, n_layers=6, b=128, m=5, windows=512),
    # for the benchmark's own smoke tests
    "tiny": Shape(w=8, d=4, n_layers=2, b=12, m=2, windows=48),
}


def load_program(root: Path) -> dict:
    """Import dualmixer from ``root/src`` and return its modules by short
    name. Raises ImportError when the sources are not there, even if some
    other copy of dualmixer is installed."""
    src = str(root / "src")
    if not (root / "src" / "dualmixer" / "__init__.py").is_file():
        raise ImportError(f"no dualmixer sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ("numerics", "model", "fsgri", "harness", "data", "synthdata")
    return {n: importlib.import_module(f"dualmixer.{n}") for n in names}


def build(mods: dict, shape: Shape, seed: int):
    """What a user sets up before training: config, dataset, model."""
    hx, dm = mods["harness"], mods["model"]
    cfg = hx.RunConfig(dataset="synth", variant="full", seed=seed, w=shape.w,
                       d=shape.d, n_layers=shape.n_layers, b=shape.b,
                       m=shape.m, epochs=1)
    train, _ = hx.load_dataset(cfg)
    params = dm.make_variant(
        dm.ModelConfig(l=cfg.w, m_vars=train[0].values.shape[1], d=cfg.d,
                       n_layers=cfg.n_layers, seed=seed), cfg.variant)
    return cfg, train, params


class Workload:
    """One workload at one seed. ``call(k)`` makes the k-th call and returns
    (items processed, list of output arrays). The steps of a call are split
    evenly among its output arrays for the output check."""

    name = ""
    boundary = "adam_step"   # function whose return ends a step
    loss_label = "loss"      # trace bucket for loss-construction nodes
    items = ""

    def __init__(self, mods: dict, shape: Shape, seed: int):
        self.mods = mods
        self.shape = shape
        self.seed = seed
        self.cfg, self.train, self.params = build(mods, shape, seed)

    def _window_slice(self, k: int) -> list:
        """The k-th run of ``shape.windows`` windows, wrapping around."""
        n = len(self.train)
        start = k * self.shape.windows
        return [self.train[(start + j) % n] for j in range(self.shape.windows)]

    def call(self, k: int) -> tuple[int, list[np.ndarray]]:
        raise NotImplementedError

    def outputs_ok(self, parts: list[np.ndarray]) -> list[bool]:
        return [bool(np.all(np.isfinite(p))) for p in parts]


class FsgriTrain(Workload):
    name = "fsgri_train"
    loss_label = "fsgri.loss"
    items = "encodings"

    def __init__(self, mods, shape, seed):
        super().__init__(mods, shape, seed)
        units = mods["data"].group_by_unit(self.train)
        self.units = [units[u] for u in sorted(units)]
        self.fcfg = self.cfg.fsgri_config()
        self.opt = mods["numerics"].AdamState(lr=self.cfg.lr)
        self.skipped = 0

    def call(self, k):
        # one whole unit per call: 3 to 6 steps, so the tapes that one
        # call leaves for the collector stay under a gigabyte
        stats = self.mods["fsgri"].train_epoch_fsgri(
            self.params, self.units[k % len(self.units)], self.fcfg, self.opt,
            self.seed * 1_000_003 + k)
        self.skipped += stats.skipped_anchors
        return stats.encodings, [np.array([stats.mean_loss, stats.mean_contrastive,
                                           stats.mean_regression])]


class StandardTrain(Workload):
    name = "standard_train"
    loss_label = "harness.loss"
    items = "windows"

    def __init__(self, mods, shape, seed):
        super().__init__(mods, shape, seed)
        if shape.windows % shape.b:
            raise ValueError("standard_train needs whole batches per call")

    def call(self, k):
        # one epoch per call, so each call starts a fresh Adam state; the
        # work per step is the same as in a longer run
        cfg = replace(self.cfg, seed=self.seed * 1_000_003 + k)
        history = self.mods["harness"].train_standard(
            self.params, self._window_slice(k), cfg)
        return self.shape.windows, [np.array([history[0]["loss"]])]


class Predict(Workload):
    name = "predict"
    boundary = "forward_batch"
    items = "windows"

    def call(self, k):
        preds = self.mods["harness"].predict_samples(self.params,
                                                     self._window_slice(k))
        chunk = self.mods["harness"].PREDICT_CHUNK
        return len(preds), [preds[i:i + chunk] for i in range(0, len(preds), chunk)]

    def outputs_ok(self, parts):
        return [bool(np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0)))
                for p in parts]


WORKLOADS = {cls.name: cls for cls in (FsgriTrain, StandardTrain, Predict)}
