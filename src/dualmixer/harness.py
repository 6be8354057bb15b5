"""Run orchestration: dataset loading, the one training loop of both modes,
evaluation, ablation and grid runners, and feature export.

A run is fully described by a RunConfig, which checks itself when built;
its SHA-derived hash names the run directory, ties reports to
configurations, and lets interrupted sweeps resume by skipping cells whose
reports already exist. Every artifact is written atomically, training stops
with a ValueError on a non-finite loss or gradient, and reruns of the same
(config, seed) reproduce metrics exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import data as dd
from . import fsgri as fs
from . import model as dm
from . import numerics as nx
from . import synthdata as sx
from .data import RawSeries, WindowSample, atomic_path
from .numerics import Tensor

logger = logging.getLogger(__name__)

DATASETS = ("fd001", "fd002", "fd003", "fd004", "synth")
MODES = ("standard", "fsgri")  # each one's epoch function is in _MODE_PARTS

# The built-in synthetic dataset (dataset="synth"): SynthSpec's defaults,
# with the generator seed derived from the run seed so both training modes
# see identical data.
SYNTH = sx.SynthSpec()

# Windows evaluated per stacked forward in the shared prediction path.
PREDICT_CHUNK = 256

# Predictions with labels below this are excluded from the relative error
# metric; end-of-life labels are 0 and would divide by zero.
MAPE_FLOOR = 0.01

# Format of report.json; resume reuses only a report of this version.
REPORT_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """One run's full recipe; defaults follow the reference setup.

    fsgri reads its contrastive knobs from this config. m: negatives per
    anchor. beta: excluded-band width as a fraction of the unit's window
    count. sigma1: sampling std as a fraction of the window count. sigma2:
    positive-noise std in normalized-data units. lam: scale of the
    squared-life-gap logit weights. tau: temperature. b: nominal batch size;
    a standard batch holds b windows, and the fsgri anchor batch is
    b // (m + 1), which must not be empty.

    Each field's allowed values are declared beside its default. Building
    one, directly or through dataclasses.replace, runs data.check_fields,
    which enforces them, and then the beta range rule and, in fsgri mode,
    the anchor-batch rule, each raising a ValueError naming the first bad
    field; an int given for a float field is stored as a float, so
    RunConfig(lr=1) names the --lr 1 run.
    """

    dataset: str = field(default="synth", metadata={"choices": DATASETS})
    data_dir: str = "data/CMAPSS"
    mode: str = field(default="standard", metadata={"choices": MODES})
    variant: str = field(default="full", metadata={"choices": dm.VARIANTS})
    seed: int = field(default=1, metadata={"min": 0})
    out_dir: str = "runs"
    b: int = field(default=128, metadata={"min": 1})
    lr: float = field(default=1e-2, metadata={"above": 0})
    w: int = field(default=30, metadata={"min": 1})
    sl: int = field(default=1, metadata={"min": 1})
    epochs: int = field(default=100, metadata={"min": 1})
    n_layers: int = field(default=6, metadata={"min": 1})
    d: int = field(default=32, metadata={"min": 1})
    m: int = field(default=5, metadata={"min": 1})
    beta: float = 0.4
    sigma1: float = field(default=0.3, metadata={"above": 0})
    sigma2: float = field(default=0.15, metadata={"min": 0})
    lam: float = field(default=2.0, metadata={"above": 0})
    tau: float = field(default=0.1, metadata={"above": 0})
    holdout: bool = False

    def __post_init__(self) -> None:
        dd.check_fields(self)
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.mode == "fsgri":
            self.anchor_batch  # refuses an empty anchor batch

    @property
    def anchor_batch(self) -> int:
        """FSGRI's anchors per batch, b // (m + 1); a ValueError when none."""
        if self.b <= self.m:
            raise ValueError(f"b={self.b} with m={self.m} gives an empty anchor batch")
        return self.b // (self.m + 1)

    def fsgri_config(self) -> RunConfig:
        """The config itself, which fsgri reads; kept for bench/workloads.py."""
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]

    def run_name(self) -> str:
        return (f"{self.dataset}-{self.mode}-{self.variant}"
                f"-N{self.n_layers}-d{self.d}-s{self.seed}-{self.config_hash()}")


@dataclass
class RunReport:
    """Everything a finished run leaves behind; serialized as report.json.
    Built and loaded through data.check_fields, so a NaN rmse, or a NaN in
    any epoch record, is refused."""

    config: dict
    config_hash: str
    seed: int
    git_describe: str
    epoch_losses: list[float]
    epoch_detail: list[dict[str, float]]
    rmse: float
    mape: Optional[float]
    wall_clock_sec: float
    param_count: int
    anchor_batch_size: Optional[int] = None
    report_version: int = REPORT_VERSION

    def __post_init__(self) -> None:
        dd.check_fields(self)

    def save(self, path: str) -> None:
        write_json(path, dataclasses.asdict(self))

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Read a saved report. A file that is not JSON, that was written in
        another format version, whose fields are missing or unknown, or that
        the constructor refuses raises ValueError naming the file and cause."""
        raw = dd.read_json_object(path, "report")
        version = raw.get("report_version", "missing")
        if version != REPORT_VERSION:
            raise ValueError(f"{path}: report format version {version}, expected "
                             f"{REPORT_VERSION}; rerun with --force to retrain")
        return dd.from_fields(cls, raw, f"{path}: malformed report")


def write_json(path: str, value) -> None:
    """Indented JSON, atomically; NaN and infinity are refused."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump(value, f, indent=2, allow_nan=False)
        f.write("\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row and then every row, atomically. Every float is written
    as %.17g, so it reads back exactly; None is written as an empty field."""
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(("%.17g" % v if isinstance(v, float) else v for v in row)
                         for row in rows)


def git_describe() -> str:
    """The source checkout's git describe, whatever the working directory."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # TimeoutExpired: a hung git
        pass
    return "unknown"


def _epoch_seed(seed: int, epoch: int) -> int:
    # distinct per (seed, epoch) for any sane epoch count
    return seed * 1_000_003 + epoch


# --------------------------------------------------------------------------
# dataset loading
# --------------------------------------------------------------------------

def _load_cmapss(cfg: RunConfig) -> tuple[list[RawSeries], list[RawSeries], list[int]]:
    tag = cfg.dataset.upper()
    train_path, test_path, rul_path = (os.path.join(cfg.data_dir, f"{kind}_{tag}.txt")
                                       for kind in ("train", "test", "RUL"))
    train_series = [dd.select_variables(s) for s in dd.parse_cmapss(train_path)]
    if cfg.holdout:
        return train_series, [], []
    test_series = [dd.select_variables(s) for s in dd.parse_cmapss(test_path)]
    if not test_series:
        raise ValueError(f"{test_path}: no test units to evaluate")
    ruls = dd.parse_rul(rul_path)
    if len(ruls) != len(test_series):
        raise ValueError(f"{rul_path}: {len(ruls)} remaining-life entries for the "
                         f"{len(test_series)} units of {test_path}")
    return train_series, test_series, ruls


def _load_synth(cfg: RunConfig) -> tuple[list[RawSeries], list[RawSeries], list[int]]:
    spec = replace(SYNTH, seed=cfg.seed * 7919)
    return (sx.generate(spec), [], []) if cfg.holdout else sx.generate_splits(spec)


def load_dataset(cfg: RunConfig) -> tuple[list[WindowSample], list[WindowSample]]:
    """Training windows and evaluation samples for the configured dataset.

    The min-max stats are fitted on the training units only. With
    holdout=True, 10% of the training units long enough to window (seeded
    pick) replace the test split, which is then neither read nor generated:
    the stats are fitted on the remaining units, and the held-out units'
    windows become the evaluation samples. A ValueError naming w is raised
    when too few training units (one, or two with holdout) have at least w
    cycles; one naming the file, when the test split holds no unit, or,
    naming both files, has another unit count than its remaining-life file.
    """
    loader = _load_synth if cfg.dataset == "synth" else _load_cmapss
    train_series, test_series, ruls = loader(cfg)
    units = sorted({s.unit_id for s in train_series if s.length >= cfg.w})
    need = 2 if cfg.holdout else 1  # holdout keeps at least one unit to train on
    if len(units) < need:
        raise ValueError(f"{len(units)} training units have at least w={cfg.w} cycles; "
                         f"{need} needed")
    held: set[int] = set()
    if cfg.holdout:
        rng = np.random.default_rng((cfg.seed, 0x401D))
        n_held = max(1, len(units) // 10)
        held = {int(u) for u in rng.choice(units, size=n_held, replace=False)}
    kept = [s for s in train_series if s.unit_id not in held]
    stats = dd.fit_minmax([s.sensors for s in kept])
    train = dd.build_training_windows(kept, stats, cfg.w, cfg.sl)
    if not cfg.holdout:
        return train, dd.build_test_set(test_series, ruls, stats, cfg.w)
    test = dd.build_training_windows([s for s in train_series if s.unit_id in held],
                                     stats, cfg.w, cfg.sl)
    logger.info("holdout: %d units held out (%d eval windows)", len(held), len(test))
    return train, test


# --------------------------------------------------------------------------
# training and evaluation
# --------------------------------------------------------------------------

def _forward_many(params: dm.DualMixerParams,
                  samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """Predictions clamped to [0, 1] and the feature rows of any number of
    windows, forwarded in chunks of PREDICT_CHUNK: a length-n vector and an
    n x (l*d) matrix, one row per window. The single path behind both the
    metrics and the feature export."""
    preds, feats = [np.zeros(0)], [np.zeros((0, params.config.l * params.config.d))]
    for start in range(0, len(samples), PREDICT_CHUNK):
        f, r = dm.forward_batch(params, [s.values for s in samples[start:start + PREDICT_CHUNK]])
        preds.append(r.data[:, 0])
        feats.append(f.data)
    return np.clip(np.concatenate(preds), 0.0, 1.0), np.concatenate(feats)


def predict_samples(params: dm.DualMixerParams,
                    samples: Sequence[WindowSample]) -> np.ndarray:
    """Evaluation-ready predictions, clamped to [0, 1]."""
    return _forward_many(params, samples)[0]


def compute_metrics(labels: np.ndarray,
                    preds: np.ndarray) -> tuple[float, Optional[float]]:
    """(RMSE, MAPE%) given labels and already-clamped predictions.

    MAPE averages |err|/label only over labels >= MAPE_FLOOR; if every
    sample is excluded it is None.
    """
    labels = np.asarray(labels, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if labels.shape != preds.shape or labels.size == 0:
        raise ValueError("labels and predictions must be matching non-empty arrays")
    rmse = float(np.sqrt(np.mean((labels - preds) ** 2)))
    keep = labels >= MAPE_FLOOR
    if not np.any(keep):
        return rmse, None
    mape = float(100.0 * np.mean(np.abs(labels[keep] - preds[keep]) / labels[keep]))
    return rmse, mape


def evaluate(params: dm.DualMixerParams,
             samples: Sequence[WindowSample]) -> tuple[float, Optional[float]]:
    """Metrics on clamped predictions for a sample list (ValueError if empty)."""
    labels = np.array([s.label for s in samples])
    return compute_metrics(labels, predict_samples(params, samples))


def _standard_epoch(params: dm.DualMixerParams, samples: Sequence[WindowSample],
                    cfg: RunConfig, opt: nx.AdamState, epoch: int, epoch_seed: int) -> dict:
    """Mean-squared-error steps over shuffled batches of b windows; the
    record's loss is the epoch's mean squared error per window."""
    groups = dd.group_by_unit(samples)

    def squared_error(shard: Sequence[WindowSample]) -> tuple[Tensor, None]:
        _, preds = dm.forward_batch(params, [s.values for s in shard], nx.Graph())
        err = nx.sub(preds, Tensor(np.array([[s.label] for s in shard])))
        return nx.sum_all(nx.hadamard(err, err)), None

    order = fs.stratified_order(groups, epoch_seed)
    sq_sum = 0.0
    for start in range(0, len(order), cfg.b):
        chunk = [groups[uid][i] for uid, i in order[start:start + cfg.b]]
        sq_sum += nx.descend(opt, params.arrays, chunk, params.config.l * params.config.d,
                             squared_error, len(chunk),
                             f"batch {start // cfg.b} of epoch {epoch}")[0]
    return {"loss": sq_sum / len(order)}


def _fsgri_epoch(params: dm.DualMixerParams, samples: Sequence[WindowSample],
                 cfg: RunConfig, opt: nx.AdamState, epoch: int, epoch_seed: int) -> dict:
    """One fsgri.train_epoch_fsgri pass; the record keeps both loss terms."""
    stats = fs.train_epoch_fsgri(params, samples, cfg, opt, epoch_seed)
    return {"loss": stats.mean_loss, "contrastive": stats.mean_contrastive,
            "regression": stats.mean_regression, "batches": stats.batches,
            "anchor_batch_size": stats.anchor_batch_size, "encodings": stats.encodings}


# Each mode's epoch function and the record keys metrics.csv keeps, in MODES order.
_MODE_PARTS = dict(zip(MODES, [(_standard_epoch, ("epoch", "loss")),
                               (_fsgri_epoch, ("epoch", "loss", "contrastive", "regression"))],
                       strict=True))


def train(params: dm.DualMixerParams, samples: Sequence[WindowSample],
          cfg: RunConfig) -> list[dict]:
    """cfg.epochs epochs of cfg.mode's epoch function on one Adam state;
    one record per epoch, its epoch number first, each logged at INFO with
    its wall seconds as it finishes; fsgri mode first logs the sampler's
    notes once (fsgri.log_sampler_notes). A non-finite batch loss or
    gradient raises ValueError naming the batch before any update."""
    if not samples:
        raise ValueError("empty training set")
    if cfg.mode == "fsgri":
        fs.log_sampler_notes(samples, cfg)
    run_epoch = _MODE_PARTS[cfg.mode][0]
    opt = nx.AdamState(lr=cfg.lr)
    history = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        record = run_epoch(params, samples, cfg, opt, epoch, _epoch_seed(cfg.seed, epoch))
        logger.info("%s epoch %d/%d: %s (%.1f s)", cfg.mode, epoch + 1, cfg.epochs,
                    " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in record.items()),
                    time.perf_counter() - started)
        history.append({"epoch": epoch, **record})
    return history


def train_standard(params: dm.DualMixerParams, samples: Sequence[WindowSample],
                   cfg: RunConfig) -> list[dict]:
    """train in standard mode whatever cfg.mode holds (a benchmark entry)."""
    return train(params, samples, replace(cfg, mode="standard"))


def run_one(cfg: RunConfig, resume: bool = True) -> RunReport:
    """Train, evaluate, and persist one run under its hash-named directory.

    With resume=True an existing report for this exact configuration is
    returned untouched, which is what lets sweeps skip finished cells; a
    report there of another configuration raises ValueError.
    """
    run_dir = os.path.join(cfg.out_dir, cfg.run_name())
    report_path = os.path.join(run_dir, "report.json")
    if resume and os.path.isfile(report_path):
        report = RunReport.load(report_path)
        if report.config != cfg.to_dict():
            raise ValueError(f"{report_path}: report is of config {report.config_hash}, "
                             f"not {cfg.config_hash()}; rerun with --force to retrain")
        logger.info("reusing finished run %s", run_dir)
        return report
    started = time.perf_counter()
    windows, test = load_dataset(cfg)
    params = dm.make_variant(dm.ModelConfig(l=cfg.w, m_vars=windows[0].values.shape[1],
                                            d=cfg.d, n_layers=cfg.n_layers, seed=cfg.seed),
                             cfg.variant)
    history = train(params, windows, cfg)
    rmse, mape = evaluate(params, test)
    report = RunReport(config=cfg.to_dict(), config_hash=cfg.config_hash(),
                       seed=cfg.seed, git_describe=git_describe(),
                       epoch_losses=[h["loss"] for h in history],
                       epoch_detail=history, rmse=rmse, mape=mape,
                       wall_clock_sec=time.perf_counter() - started,
                       param_count=dm.count_params(params),
                       anchor_batch_size=history[-1].get("anchor_batch_size"))
    os.makedirs(run_dir, exist_ok=True)
    write_json(os.path.join(run_dir, "config.json"), cfg.to_dict())
    keys = _MODE_PARTS[cfg.mode][1]
    write_csv(os.path.join(run_dir, "metrics.csv"), keys,
              [[h[k] for k in keys] for h in history])
    with atomic_path(os.path.join(run_dir, "model.ckpt")) as tmp:
        dm.save_checkpoint(tmp, params)
    report.save(report_path)
    logger.info("run %s: rmse=%.6f mape=%s", cfg.run_name(), rmse,
                "n/a" if mape is None else f"{mape:.2f}%")
    return report


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def run_ablation(cfg: RunConfig) -> list[RunReport]:
    """All six variants under the same seed and data; writes ablation.csv."""
    reports = [run_one(replace(cfg, variant=variant)) for variant in dm.VARIANTS]
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "ablation.csv"),
              ["variant", "rmse", "mape", "param_count"],
              [[variant, rep.rmse, rep.mape, rep.param_count]
               for variant, rep in zip(dm.VARIANTS, reports)])
    return reports


def grid_search(cfg: RunConfig, n_list: Sequence[int],
                d_list: Sequence[int]) -> np.ndarray:
    """RMSE for every (n_layers, d) pair at a fixed seed; one row per layer
    count in grid.csv, plus grid.json with the axes and the cell matching
    the configured defaults. Finished cells are skipped on rerun, and every
    cell's config is built, and so checked, before the first one trains."""
    if not n_list or not d_list:
        raise ValueError("empty grid axis")
    cells = [[replace(cfg, n_layers=int(n), d=int(d)) for d in d_list] for n in n_list]
    matrix = np.array([[run_one(cell).rmse for cell in row] for row in cells])
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "grid.csv"),
              ["n_layers"] + [f"d{d}" for d in d_list],
              [[n] + list(matrix[i]) for i, n in enumerate(n_list)])
    default_cell = None
    if cfg.n_layers in n_list and cfg.d in d_list:
        default_cell = [list(n_list).index(cfg.n_layers), list(d_list).index(cfg.d)]
    write_json(os.path.join(cfg.out_dir, "grid.json"),
               {"n_list": [int(n) for n in n_list], "d_list": [int(d) for d in d_list],
                "rmse": matrix.tolist(), "default_cell": default_cell})
    return matrix


def export_features(params: dm.DualMixerParams, samples: Sequence[WindowSample],
                    out_path: str) -> None:
    """CSV of per-sample ids, labels, predictions, and the flattened merged
    features; predictions go through the same path evaluate() uses."""
    preds, feats = _forward_many(params, samples)
    header = (["unit_id", "window_index", "rul_label", "rul_pred"] +
              [f"f{k:03d}" for k in range(feats.shape[1])])
    write_csv(out_path, header,
              ([s.unit_id, s.anchor_index, s.label, preds[i]] + list(feats[i])
               for i, s in enumerate(samples)))
