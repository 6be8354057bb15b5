"""Run orchestration tests: config handling, the two trainers, metrics,
sweeps, export, and the command line."""

import csv
import dataclasses
import gc
import glob
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from argparse import _SubParsersAction
from dataclasses import replace

import numpy as np
import pytest
from conftest import Stopped, spy_descend

import dualmixer.cli as cli
import dualmixer.data as dd
import dualmixer.harness as hx
import dualmixer.fsgri as fs
import dualmixer.model as dm
import dualmixer.numerics as nx
import dualmixer.synthdata as sx


def shrink_synth(monkeypatch):
    monkeypatch.setattr(hx, "SYNTH", replace(hx.SYNTH, n_units=4, test_units=3,
                                             cycles=(24, 32)))


def tiny_cfg(tmp_path, **over):
    base = dict(dataset="synth", seed=2, out_dir=str(tmp_path / "runs"),
                b=16, w=8, sl=2, epochs=2, n_layers=1, d=4, m=2)
    base.update(over)
    return hx.RunConfig(**base)


def random_windows(n, l=6, m_vars=3, seed=0):
    rng = np.random.default_rng(seed)
    return [dd.WindowSample(values=rng.uniform(0, 1, (l, m_vars)),
                            label=float(rng.uniform(0, 1)), unit_id=1 + i % 3,
                            anchor_index=i)
            for i in range(n)]


# Every field that declares its allowed values, and the rule it declares:
# a lower bound ("min"), a strict lower bound ("above") or "choices".
DECLARED_RULES = {
    hx.RunConfig: {
        "dataset": {"choices": hx.DATASETS}, "mode": {"choices": hx.MODES},
        "variant": {"choices": dm.VARIANTS}, "seed": {"min": 0}, "b": {"min": 1},
        "lr": {"above": 0}, "w": {"min": 1}, "sl": {"min": 1}, "epochs": {"min": 1},
        "n_layers": {"min": 1}, "d": {"min": 1}, "m": {"min": 1}, "sigma1": {"above": 0},
        "sigma2": {"min": 0}, "lam": {"above": 0}, "tau": {"above": 0}},
    dm.ModelConfig: {"l": {"min": 1}, "m_vars": {"min": 1}, "d": {"min": 1},
                     "n_layers": {"min": 1}, "seed": {"min": 0}},
    sx.SynthSpec: {"n_units": {"min": 1}, "test_units": {"min": 1}, "n_vars": {"min": 2},
                   "gamma": {"above": 0}, "noise_std": {"min": 0}, "seed": {"min": 0}},
}


class TestRunConfig:
    def test_defaults_match_reference_recipe(self):
        """The no-argument config is the published training recipe."""
        cfg = hx.RunConfig()
        assert (cfg.b, cfg.lr, cfg.w, cfg.sl) == (128, 1e-2, 30, 1)
        assert (cfg.epochs, cfg.n_layers, cfg.d) == (100, 6, 32)
        assert (cfg.m, cfg.beta, cfg.sigma1, cfg.sigma2) == (5, 0.4, 0.3, 0.15)
        assert (cfg.lam, cfg.tau) == (2.0, 0.1)
        assert replace(cfg) == cfg  # rebuilt, and so checked again, unchanged

    def test_hash_stable_and_sensitive(self):
        """The hash is a pure function of the field values."""
        a = hx.RunConfig(seed=3)
        assert a.config_hash() == hx.RunConfig(seed=3).config_hash()
        assert a.config_hash() != hx.RunConfig(seed=4).config_hash()

    def test_run_name_embeds_hash(self):
        cfg = hx.RunConfig()
        assert cfg.config_hash() in cfg.run_name()

    def test_default_recipes_hashes_are_pinned(self):
        """A field edit that changes these would orphan every existing run
        directory, since resume finds a run by its hash."""
        assert hx.RunConfig().config_hash() == "8663ce4bd55a"
        assert hx.RunConfig(mode="fsgri").config_hash() == "6d5620371eda"

    @pytest.mark.parametrize("field,value", [
        ("dataset", "fd009"), ("mode", "both"), ("variant", "oX"),
        ("epochs", 0), ("lr", 0.0), pytest.param("fsgri.b", 5, id="b-5"), ("seed", -1),
        ("lr", -1.0),
        ("ModelConfig.d", 0), ("SynthSpec.seed", -1),
        pytest.param("b", "5", id="b-str"), ("holdout", "no"), ("seed", True),
        ("epochs", 2.5), ("lr", float("nan")), ("lr", float("inf")),
        ("sigma1", float("nan")), ("sigma2", float("inf")), ("lam", float("nan")),
        ("tau", float("inf")), ("tau", float("-inf")), ("beta", float("nan")),
        ("SynthSpec.gamma", float("nan")), ("SynthSpec.noise_std", float("inf")),
        pytest.param("lam", 10**400, id="lam-10**400"),
        ("ModelConfig.l", 2.5), ("ModelConfig.n_layers", True),
        ("SynthSpec.n_units", 2.5), ("SynthSpec.seed", True),
        pytest.param("SynthSpec.gamma", "2", id="SynthSpec.gamma-str"),
        pytest.param("SynthSpec.gamma", 10**400, id="SynthSpec.gamma-10**400"),
        pytest.param("SynthSpec.cycles", (90.5, 140), id="SynthSpec.cycles-float-item"),
        pytest.param("SynthSpec.cycles", [90, 140], id="SynthSpec.cycles-list"),
    ])
    def test_validate_rejects(self, field, value):
        """Each field is checked when its config is built, by the constructor
        and by replace, and the error names it; b=5 breaks an fsgri-mode
        config's anchor batch floor, a str, a bool for an int or a fraction
        for an int is the wrong type, and NaN passes no range check but is
        refused as non-finite, like infinity, as is an int beyond the float
        range. A tuple field is checked item by item, and a list is not a
        tuple. A field without a class prefix is a RunConfig field."""
        kind, _, name = field.rpartition(".")
        valid = {"": hx.RunConfig(), "fsgri": hx.RunConfig(mode="fsgri"),
                 "SynthSpec": sx.SynthSpec(),
                 "ModelConfig": dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1)}[kind]
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            type(valid)(**{**dataclasses.asdict(valid), name: value})
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            replace(valid, **{name: value})

    @pytest.mark.parametrize("valid", [
        hx.RunConfig(), dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), sx.SynthSpec(),
        hx.RunReport(config={}, config_hash="0", seed=1, git_describe="x", epoch_losses=[],
                     epoch_detail=[], rmse=0.5, mape=None, wall_clock_sec=1.0, param_count=10),
    ], ids=lambda valid: type(valid).__name__)
    def test_every_field_is_type_checked(self, valid):
        """Every field of every checked class refuses a value of no JSON
        type by name, so a field or class added without the shared check
        fails here."""
        for f in dataclasses.fields(valid):
            with pytest.raises(ValueError, match=rf"\b{f.name}\b"):
                replace(valid, **{f.name: object()})

    def test_declared_rules_are_pinned(self):
        """Exactly these fields declare a rule, and each declares this one,
        so a rule added, dropped or changed fails here."""
        declared = {cls: {f.name: dict(f.metadata) for f in dataclasses.fields(cls)
                          if f.metadata} for cls in DECLARED_RULES}
        assert declared == DECLARED_RULES

    @pytest.mark.parametrize("cls,name,rule", [
        pytest.param(cls, name, rule, id=f"{cls.__name__}.{name}")
        for cls, rules in DECLARED_RULES.items() for name, rule in rules.items()])
    def test_each_declared_rule_holds_at_its_edge(self, cls, name, rule):
        """The value just past a rule (k - 1 for "min" k, k itself for
        "above" k, an unknown name for "choices") is refused by the
        constructor with the rule's message, and the edge (k, the next
        float above k, every choice) is accepted."""
        valid = {hx.RunConfig: hx.RunConfig(), sx.SynthSpec: sx.SynthSpec(),
                 dm.ModelConfig: dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1)}[cls]
        (kind, bound), = rule.items()
        if kind == "min":
            refused, message, accepted = bound - 1, f"{name} must be >= {bound}", [bound]
        elif kind == "above":
            refused, message = bound, f"{name} must be > {bound}"
            accepted = [math.nextafter(bound, math.inf)]
        else:
            refused, message, accepted = "nope", f"unknown {name} 'nope'", bound
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**dataclasses.asdict(valid), name: refused})
        for value in accepted:
            assert getattr(replace(valid, **{name: value}), name) == value

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match=r"^config: unknown fields \['nonsense'\]$"):
            dd.from_fields(hx.RunConfig, {"w": 30, "nonsense": 1}, "config")

    @pytest.mark.parametrize("field,value,held", [
        ("d", "32", "str"), ("w", 30.0, "float"), ("seed", 1.5, "float"),
        ("holdout", "yes", "str"), ("epochs", True, "bool"),
    ])
    def test_from_dict_rejects_mistyped_fields(self, field, value, held):
        """A JSON value of the wrong type names its field; a bool is not an int."""
        with pytest.raises(ValueError, match=f"field '{field}' holds {held}"):
            dd.from_fields(hx.RunConfig, {field: value}, "config")

    def test_from_dict_accepts_an_int_for_a_float_field(self):
        assert dd.from_fields(hx.RunConfig, {"lr": 1, "holdout": True}, "config").lr == 1

    def test_int_in_a_file_hashes_like_the_flag(self):
        """{"lr": 1} and --lr 1 are one recipe, so they name one run."""
        from_file = dd.from_fields(hx.RunConfig, {"lr": 1}, "config")
        from_flag = cli.resolve_config(cli.build_parser().parse_args(["train", "--lr", "1"]))
        assert isinstance(from_file.lr, float)
        assert from_file.config_hash() == from_flag.config_hash()
        # and so does an int given in Python, to the constructor or to replace
        for built in (hx.RunConfig(lr=1), replace(hx.RunConfig(), lr=1)):
            assert isinstance(built.lr, float)
            assert built.config_hash() == from_flag.config_hash() == "ed3e031c7140"

    def test_fsgri_config_carries_fields(self):
        fc = hx.RunConfig(m=3, b=40, tau=0.25).fsgri_config()
        assert (fc.m, fc.b, fc.tau) == (3, 40, 0.25)
        assert fc.anchor_batch == 10


class TestMetrics:
    def test_half_point_predictions(self):
        """Labels [1, 0] scored against flat 0.5 give RMSE .5 and MAPE 50."""
        rmse, mape = hx.compute_metrics(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert rmse == 0.5
        assert mape == 50.0

    def test_perfect_predictions(self):
        rmse, mape = hx.compute_metrics(np.array([0.2, 0.9]), np.array([0.2, 0.9]))
        assert rmse == 0.0
        assert mape == 0.0

    def test_mape_floor_excludes_small_labels(self):
        """Labels below the floor do not contribute to the relative error."""
        rmse, mape = hx.compute_metrics(np.array([0.005, 1.0]), np.array([0.0, 0.5]))
        assert mape == 50.0

    def test_all_labels_below_floor(self):
        rmse, mape = hx.compute_metrics(np.array([0.0, 0.005]), np.array([0.1, 0.1]))
        assert mape is None
        assert rmse > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hx.compute_metrics(np.zeros(3), np.zeros(2))

    def test_predictions_are_clamped(self):
        """The shared prediction path clips to the label range."""
        samples = random_windows(12)
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        params.arrays["w_r"] *= 1e6
        raw = dm.forward_batch(params, [s.values for s in samples])[1].data[:, 0]
        clamped = hx.predict_samples(params, samples)
        assert np.any((raw < 0) | (raw > 1))
        assert np.all((clamped >= 0) & (clamped <= 1))

    def test_evaluate_rejects_empty(self):
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        with pytest.raises(ValueError):
            hx.evaluate(params, [])


class TestLoadDataset:
    def test_synth_split_shapes(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path)
        train, test = hx.load_dataset(cfg)
        assert len({s.unit_id for s in train}) == 4
        assert len(test) == 3
        values = np.vstack([s.values for s in train])
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_empty_test_split_refused_before_training(self, tmp_path, caplog):
        """An empty test split is refused by the loader, naming the test
        file, so a run fails before its first epoch instead of after the
        last; with holdout the test split is not read for evaluation."""
        spec = dict(cycles=(20, 30), n_vars=21, noise_std=0.05)
        units = sx.generate(sx.SynthSpec(n_units=4, seed=4, **spec))
        sx.emit_cmapss(str(tmp_path), "FD001", units, [], [])
        cfg = tiny_cfg(tmp_path, dataset="fd001", data_dir=str(tmp_path))
        test_path = str(tmp_path / "test_FD001.txt")
        caplog.set_level("INFO", logger=hx.logger.name)
        with pytest.raises(ValueError, match=re.escape(f"{test_path}: no test units")):
            hx.run_one(cfg)
        assert not [r for r in caplog.records if " epoch " in r.getMessage()]
        assert not os.path.exists(cfg.out_dir)
        assert hx.load_dataset(replace(cfg, holdout=True))[1]

    def test_synth_deterministic_per_seed(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        t1, _ = hx.load_dataset(tiny_cfg(tmp_path))
        t2, _ = hx.load_dataset(tiny_cfg(tmp_path))
        t3, _ = hx.load_dataset(tiny_cfg(tmp_path, seed=9))
        assert np.array_equal(t1[0].values, t2[0].values)
        assert not np.array_equal(t1[0].values, t3[0].values)

    def test_same_data_across_modes(self, monkeypatch, tmp_path):
        """Training mode must not change the dataset a seed produces."""
        shrink_synth(monkeypatch)
        std, _ = hx.load_dataset(tiny_cfg(tmp_path, mode="standard"))
        con, _ = hx.load_dataset(tiny_cfg(tmp_path, mode="fsgri"))
        assert len(std) == len(con)
        assert np.array_equal(std[0].values, con[0].values)

    def test_holdout_splits_units(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, holdout=True)
        train, test = hx.load_dataset(cfg)
        train_units = {s.unit_id for s in train}
        test_units = {s.unit_id for s in test}
        assert test_units and not (train_units & test_units)
        assert len(train_units) == 3

    def test_holdout_fits_stats_on_kept_units_only(self, tmp_path):
        """Held-out units take no part in the normalization of either split."""
        spec = dict(cycles=(20, 30), n_vars=21, noise_std=0.05)
        units = sx.generate(sx.SynthSpec(n_units=10, seed=4, **spec))
        test, ruls = sx.make_test_split(sx.generate(sx.SynthSpec(n_units=2, seed=5, **spec)),
                                        seed=6)
        sx.emit_cmapss(str(tmp_path), "FD001", units, test, ruls)
        cfg = tiny_cfg(tmp_path, dataset="fd001", data_dir=str(tmp_path), holdout=True)
        train, evaluation = hx.load_dataset(cfg)
        held = {s.unit_id for s in evaluation}
        raw = [dd.select_variables(s)
               for s in dd.parse_cmapss(str(tmp_path / "train_FD001.txt"))]
        kept = [s for s in raw if s.unit_id not in held]
        stats = dd.fit_minmax([s.sensors for s in kept])
        every = dd.fit_minmax([s.sensors for s in raw])
        assert not np.array_equal(np.hstack([stats.mins, stats.maxs]),
                                  np.hstack([every.mins, every.maxs]))
        for got, want in [(train, dd.build_training_windows(kept, stats, cfg.w, cfg.sl)),
                          (evaluation, dd.build_training_windows(
                              [s for s in raw if s.unit_id in held], stats, cfg.w, cfg.sl))]:
            assert [(s.unit_id, s.anchor_index) for s in got] == \
                [(s.unit_id, s.anchor_index) for s in want]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.values, w.values)


class TestTrainStandard:
    def test_loss_decreases_on_memorizable_set(self):
        samples = random_windows(20)
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=8, n_layers=1), "full")
        cfg = hx.RunConfig(b=20, epochs=40, w=6, m=2)
        history = hx.train_standard(params, samples, cfg)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_first_epochs_non_increasing(self, monkeypatch, tmp_path):
        """Each of the first five epoch means is at most the previous plus 1e-3."""
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, epochs=5, lr=3e-3)
        train, _ = hx.load_dataset(cfg)
        params = dm.make_variant(
            dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1, seed=2), "full")
        losses = [h["loss"] for h in hx.train_standard(params, train, cfg)]
        assert all(b <= a + 1e-3 for a, b in zip(losses, losses[1:]))

    def test_overfits_fifty_windows(self):
        """Given enough width, 300 epochs memorize a 50-window set."""
        samples = random_windows(50, l=8)
        params = dm.make_variant(
            dm.ModelConfig(l=8, m_vars=3, d=16, n_layers=1, seed=0), "full")
        hx.train_standard(params, samples, hx.RunConfig(b=10, epochs=300, w=8, m=2))
        rmse, _ = hx.evaluate(params, samples)
        assert rmse < 0.02

    def test_epoch_losses_deterministic(self):
        """Two fresh trainings from the same seed agree bit for bit."""
        runs = []
        for _ in range(2):
            params = dm.make_variant(
                dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1, seed=5), "full")
            history = hx.train_standard(params, random_windows(18),
                                        hx.RunConfig(b=8, epochs=3, w=6, m=2, seed=5))
            runs.append([h["loss"] for h in history])
        assert runs[0] == runs[1]

    def test_rejects_empty(self):
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        with pytest.raises(ValueError):
            hx.train_standard(params, [], hx.RunConfig(m=2))


def blown_up(params):
    """Scale the head so far that every prediction's squared error overflows."""
    params.arrays["w_r"] *= 1e300
    return params


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestNonFiniteLoss:
    def test_standard_stops_before_the_update(self):
        params = blown_up(dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1),
                                          "full"))
        before = {k: v.copy() for k, v in params.arrays.items()}
        with pytest.raises(ValueError, match="non-finite loss .* batch 0 of epoch 0"):
            hx.train_standard(params, random_windows(12), hx.RunConfig(b=4, w=6, m=2))
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_fsgri_stops_before_the_update(self):
        params = blown_up(dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1),
                                          "full"))
        before = {k: v.copy() for k, v in params.arrays.items()}
        opt = nx.AdamState()
        with pytest.raises(ValueError, match="non-finite loss .* batch 0 of the epoch with seed 7"):
            fs.train_epoch_fsgri(params, random_windows(30), hx.RunConfig(m=2, b=12), opt, 7)
        assert opt.step_count == 0
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)


def poison_head_gradient(monkeypatch):
    """Make the head matmul's backward rule give its (l*d) x 1 weight w_r an
    infinite gradient; the loss and every other gradient stay finite."""
    matmul = nx.matmul

    def poisoned(a, b):
        out = matmul(a, b)
        if out.graph is not None and b.cols == 1:
            node = out.graph.nodes[out.node_id]
            rule = node.backward
            node.backward = lambda adj: (rule(adj)[0], np.full(b.shape, np.inf))
        return out

    monkeypatch.setattr(nx, "matmul", poisoned)


class TestNonFiniteGradient:
    def test_standard_stops_before_the_update(self, monkeypatch):
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        before = {k: v.copy() for k, v in params.arrays.items()}
        poison_head_gradient(monkeypatch)
        with pytest.raises(ValueError, match="non-finite gradient for 'w_r' in batch 0 of epoch 0"):
            hx.train_standard(params, random_windows(12), hx.RunConfig(b=4, w=6, m=2))
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_fsgri_stops_before_the_update(self, monkeypatch):
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        before = {k: v.copy() for k, v in params.arrays.items()}
        poison_head_gradient(monkeypatch)
        opt = nx.AdamState()
        with pytest.raises(ValueError, match="non-finite gradient for 'w_r' in batch 0 "
                                             "of the epoch with seed 7"):
            fs.train_epoch_fsgri(params, random_windows(30), hx.RunConfig(m=2, b=12), opt, 7)
        assert opt.step_count == 0
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)


def force_shards(monkeypatch, parts):
    """Run every training batch as ``parts`` shards, whatever its size."""
    monkeypatch.setattr(nx, "shard_count", lambda activation: parts)


class TestShardedTraining:
    """A batch split into shards trains like the whole batch."""

    def first_step(self, monkeypatch, mode, parts):
        seen = {}
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        with monkeypatch.context() as patch, pytest.raises(Stopped):
            force_shards(patch, parts)
            spy_descend(patch, seen, stop=True)
            if mode == "standard":
                hx.train_standard(params, random_windows(24), hx.RunConfig(b=24, w=6, m=2))
            else:
                fs.train_epoch_fsgri(params, random_windows(30), hx.RunConfig(m=2, b=12),
                                     nx.AdamState(), 7)
        assert len(seen["shards"]) == parts
        return seen

    @pytest.mark.parametrize("mode", hx.MODES)
    def test_two_shards_give_one_shards_loss_and_gradients(self, monkeypatch, mode):
        one = self.first_step(monkeypatch, mode, 1)
        two = self.first_step(monkeypatch, mode, 2)
        assert abs(two["loss"] - one["loss"]) <= 1e-12 * abs(one["loss"])
        assert list(two["grads"]) == list(one["grads"])
        for name, want in one["grads"].items():
            scale = np.max(np.abs(want))
            assert np.max(np.abs(two["grads"][name] - want)) <= 1e-12 * scale, name

    def test_fsgri_epoch_terms_do_not_depend_on_sharding(self, monkeypatch):
        stats = []
        for parts in (1, 3):
            force_shards(monkeypatch, parts)
            params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
            stats.append(fs.train_epoch_fsgri(params, random_windows(12), hx.RunConfig(m=2, b=12),
                                              nx.AdamState(), 7))
        assert stats[1].batches == stats[0].batches == 3
        for field in ("mean_loss", "mean_contrastive", "mean_regression"):
            assert abs(getattr(stats[1], field) - getattr(stats[0], field)) <= \
                1e-12 * abs(getattr(stats[0], field))

    # At w8 d64 a standard batch of 240 windows, or an FSGRI batch of 60
    # groups of m + 2 = 4 windows, holds 122,880 activation values: 4 shards,
    # two on each lane.
    FOUR_SHARDS = {"standard": dict(b=240, w=8, d=64, m=2),
                   "fsgri": dict(b=180, w=8, d=64, m=2)}

    def train_sharded(self, monkeypatch, mode):
        """The weights, as bytes, after two epochs in ``mode`` at a shape
        that runs as four shards."""
        seen = {}
        with monkeypatch.context() as patch:
            spy_descend(patch, seen)
            params = dm.make_variant(
                dm.ModelConfig(l=8, m_vars=3, d=64, n_layers=1, seed=4), "full")
            cfg = hx.RunConfig(mode=mode, epochs=2, seed=4, **self.FOUR_SHARDS[mode])
            hx.train(params, random_windows(240, l=8), cfg)
        assert len(seen["shards"]) == 4
        return {k: v.tobytes() for k, v in params.arrays.items()}

    def test_sharded_reruns_give_byte_equal_weights(self, monkeypatch):
        runs = [self.train_sharded(monkeypatch, "standard") for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("mode", hx.MODES)
    def test_weights_do_not_depend_on_the_affinity_mask(self, monkeypatch, mode):
        """One CPU or two, the same config runs the same shards."""
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            runs.append(self.train_sharded(monkeypatch, mode))
        assert runs[0] == runs[1]

    def test_nan_window_in_the_second_shard_stops_before_the_update(self, monkeypatch):
        force_shards(monkeypatch, 2)
        seen = {}
        spy_descend(monkeypatch, seen)
        samples = random_windows(12)
        cfg = hx.RunConfig(b=12, w=6, m=2)
        uid, i = fs.stratified_order(dd.group_by_unit(samples), hx._epoch_seed(cfg.seed, 0))[-1]
        poisoned = dd.group_by_unit(samples)[uid][i]
        poisoned.values[2, 1] = np.nan
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        before = {k: v.copy() for k, v in params.arrays.items()}
        with pytest.raises(ValueError, match="non-finite loss nan in batch 0 of epoch 0"):
            hx.train_standard(params, samples, cfg)
        first, second = seen["shards"]
        assert [s is poisoned for s in second].count(True) == 1
        assert not any(s is poisoned for s in first)
        assert seen["state"].step_count == 0 and not seen["state"].m
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)


class TestAtomicWrites:
    @pytest.mark.parametrize("old", [None, "old contents\n"])
    def test_writer_that_raises_leaves_target_as_it_was(self, tmp_path, old):
        target = tmp_path / "report.json"
        if old is not None:
            target.write_text(old)
        with pytest.raises(RuntimeError):
            with hx.atomic_path(str(target)) as tmp, open(tmp, "w") as f:
                f.write('{"half": ')
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == ([] if old is None else ["report.json"])
        if old is not None:
            assert target.read_text() == old

    def test_report_with_nan_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            report = hx.RunReport(config={}, config_hash="0", seed=1, git_describe="x",
                                  epoch_losses=[float("nan")], epoch_detail=[], rmse=0.5,
                                  mape=None, wall_clock_sec=0.0, param_count=1)
            report.save(str(tmp_path / "report.json"))
        assert os.listdir(tmp_path) == []


class TestReportLoad:
    DROP = object()  # marks a field to delete from the saved file

    def saved(self, tmp_path, **over):
        report = hx.RunReport(config={"d": 4}, config_hash="0", seed=1, git_describe="x",
                              epoch_losses=[0.5], epoch_detail=[{"epoch": 0}], rmse=0.5,
                              mape=None, wall_clock_sec=1.0, param_count=10)
        path = tmp_path / "report.json"
        report.save(str(path))
        if over:
            raw = json.loads(path.read_text())
            for key, value in over.items():
                if value is self.DROP:
                    del raw[key]
                else:
                    raw[key] = value
            path.write_text(json.dumps(raw))
        return report, str(path)

    def test_round_trip(self, tmp_path):
        report, path = self.saved(tmp_path)
        assert hx.RunReport.load(path) == report

    @pytest.mark.parametrize("over, cause", [
        ({"rmse": DROP}, "missing fields ['rmse']"),
        ({"banana": 1}, "unknown fields ['banana']"),
        ({"rmse": "0.5"}, "field 'rmse' holds str"),
        ({"seed": 1.5}, "field 'seed' holds float"),
        ({"param_count": True}, "field 'param_count' holds bool"),
        ({"epoch_losses": {}}, "field 'epoch_losses' holds dict"),
        ({"mape": []}, "field 'mape' holds list"),
        ({"report_version": DROP}, "format version missing, expected 1; rerun with --force"),
        ({"report_version": 2}, "format version 2, expected 1; rerun with --force"),
        ({"rmse": float("nan")}, "rmse must be finite"),
        ({"wall_clock_sec": 10**400}, "wall_clock_sec must be finite"),
        ({"epoch_losses": [0.5, float("nan")]},
         "field 'epoch_losses' holds list, expected list[float] with every float finite"),
        ({"epoch_detail": [{"epoch": 0, "loss": float("inf")}]},
         "field 'epoch_detail' holds list, expected list[dict[str, float]] with every "
         "float finite"),
        ({"epoch_detail": [{"epoch": 0}, "junk"]}, "field 'epoch_detail' holds list"),
    ])
    def test_malformed_field_names_file_and_cause(self, tmp_path, over, cause):
        _, path = self.saved(tmp_path, **over)
        with pytest.raises(ValueError) as err:
            hx.RunReport.load(path)
        assert path in str(err.value) and cause in str(err.value)

    @pytest.mark.parametrize("text", ['{"rmse": ', "[1, 2]", "\xff\xfe", pytest.param(
        '{"config": ' + "[" * 200_000, id="deeply-nested")])
    def test_not_a_json_object(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match="report.json"):
            hx.RunReport.load(str(path))

    def test_integral_float_and_optional_values_accepted(self, tmp_path):
        _, path = self.saved(tmp_path, rmse=1, mape=2.5, anchor_batch_size=None)
        assert hx.RunReport.load(path).rmse == 1

    def test_ints_inside_records_stay_ints(self, tmp_path):
        """Only a top-level float field stores an int as a float, so a
        report's bytes survive a load and save."""
        _, path = self.saved(tmp_path, epoch_losses=[1],
                             epoch_detail=[{"epoch": 0, "loss": 1, "batches": 3}])
        report = hx.RunReport.load(path)
        assert report.epoch_losses == [1] and isinstance(report.epoch_losses[0], int)
        assert all(isinstance(v, int) for v in report.epoch_detail[0].values())
        report.save(path)
        before = (tmp_path / "report.json").read_bytes()
        hx.RunReport.load(path).save(path)
        assert (tmp_path / "report.json").read_bytes() == before


class TestWriteCsv:
    def test_floats_at_full_precision_and_none_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        hx.write_csv(str(path), ["a", "b", "c", "d"],
                     [[1, 0.1, np.float64(2) / 3, None], ["x", 1e-300, True, 5]])
        assert path.read_bytes() == (b"a,b,c,d\r\n1,0.10000000000000001,"
                                     b"0.66666666666666663,\r\nx,1e-300,True,5\r\n")


class TestStratifiedOrder:
    def test_seeded_round_robin_over_every_window(self):
        groups = {uid: random_windows(n) for uid, n in ((4, 3), (7, 5), (9, 1))}
        order = fs.stratified_order(groups, 11)
        assert order == fs.stratified_order(groups, 11)
        assert sorted(order) == sorted((u, i) for u, w in groups.items() for i in range(len(w)))
        assert {u for u, _ in order[:3]} == {4, 7, 9}
        assert {u for u, _ in order[3:5]} == {4, 7}


class TestTapeLifetime:
    """A finished step's tape is freed by reference counting alone: no
    reference cycle runs through Graph, its tensors or its backward rules."""

    def graphs_left_after(self, monkeypatch, train):
        made = []

        class Recorded(nx.Graph):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(nx, "Graph", Recorded)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train()
            alive = sum(ref() is not None for ref in made)
        finally:
            if was_enabled:
                gc.enable()
        assert made
        return alive

    def test_fsgri_epoch_frees_every_graph(self, monkeypatch):
        samples = random_windows(30, l=6)
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        cfg = hx.RunConfig(m=2, b=12)
        assert self.graphs_left_after(monkeypatch, lambda: fs.train_epoch_fsgri(
            params, samples, cfg, nx.AdamState(), 0)) == 0

    def test_standard_training_frees_every_graph(self, monkeypatch):
        samples = random_windows(30, l=6)
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        assert self.graphs_left_after(monkeypatch, lambda: hx.train_standard(
            params, samples, hx.RunConfig(b=8, epochs=2, w=6, m=2))) == 0

    def test_sharded_steps_free_every_shards_graph(self, monkeypatch):
        force_shards(monkeypatch, 2)
        samples = random_windows(30, l=6)
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1), "full")
        assert self.graphs_left_after(monkeypatch, lambda: (
            hx.train_standard(params, samples, hx.RunConfig(b=8, epochs=1, w=6, m=2)),
            fs.train_epoch_fsgri(params, samples, hx.RunConfig(m=2, b=12),
                                 nx.AdamState(), 0))) == 0


class TestTrainFsgri:
    def test_history_records_both_components(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, mode="fsgri", b=12, epochs=2)
        train, _ = hx.load_dataset(cfg)
        params = dm.make_variant(dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full")
        history = hx.train(params, train, cfg)
        assert len(history) == 2
        for row in history:
            assert row["anchor_batch_size"] == 4
            assert row["contrastive"] > 0
            assert row["regression"] > 0
            assert np.isfinite(row["loss"])


class TestProgressLog:
    @pytest.mark.parametrize("mode", hx.MODES)
    def test_each_finished_epoch_logs_its_record(self, monkeypatch, tmp_path, caplog, mode):
        """train logs one INFO line per epoch as it finishes: the mode,
        epoch k/N, every value of the epoch's record and its wall seconds."""
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, mode=mode, b=12, epochs=2)
        train, _ = hx.load_dataset(cfg)
        params = dm.make_variant(dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full")
        caplog.set_level("INFO", logger=hx.logger.name)
        history = hx.train(params, train, cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == hx.logger.name]
        assert len(lines) == 2
        for k, (line, record) in enumerate(zip(lines, history), 1):
            assert line.startswith(f"{mode} epoch {k}/2: loss={record['loss']:.6g} ")
            for key in list(record)[2:]:
                assert f" {key}=" in line
            assert line.endswith(" s)")


class TestRunOne:
    def test_hung_git_gives_unknown(self, monkeypatch):
        """A git that times out must not crash the run after training."""
        def hang(cmd, **kwargs):
            raise hx.subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
        monkeypatch.setattr(hx.subprocess, "run", hang)
        assert hx.git_describe() == "unknown"

    def test_git_describe_ignores_working_directory(self, monkeypatch, tmp_path):
        """The report names the source checkout, not the directory run from."""
        monkeypatch.chdir(os.path.dirname(os.path.abspath(hx.__file__)))
        from_package = hx.git_describe()
        monkeypatch.chdir(tmp_path)
        assert hx.git_describe() == from_package

    def test_artifacts_and_report(self, monkeypatch, tmp_path):
        """One run leaves a report, resolved config, metrics, checkpoint."""
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path)
        report = hx.run_one(cfg)
        run_dir = os.path.join(cfg.out_dir, cfg.run_name())
        for name in ("report.json", "config.json", "metrics.csv", "model.ckpt"):
            assert os.path.isfile(os.path.join(run_dir, name))
        assert report.config_hash == cfg.config_hash()
        assert report.seed == 2
        assert len(report.epoch_losses) == 2
        assert report.param_count == dm.count_params(
            dm.make_variant(dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full"))
        assert report.wall_clock_sec > 0
        assert isinstance(report.git_describe, str) and report.git_describe
        with open(os.path.join(run_dir, "config.json")) as f:
            assert f.read() == json.dumps(cfg.to_dict(), indent=2) + "\n"

    def test_resume_skips_training(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path)
        first = hx.run_one(cfg)
        report_path = os.path.join(cfg.out_dir, cfg.run_name(), "report.json")
        stamp = os.path.getmtime(report_path)
        second = hx.run_one(cfg)
        assert os.path.getmtime(report_path) == stamp
        assert second.epoch_losses == first.epoch_losses

    def test_rerun_reproduces_metrics_exactly(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        a = hx.run_one(tiny_cfg(tmp_path, out_dir=str(tmp_path / "a")))
        b = hx.run_one(tiny_cfg(tmp_path, out_dir=str(tmp_path / "b")),
                       resume=False)
        assert a.epoch_losses == b.epoch_losses
        assert a.rmse == b.rmse
        assert a.mape == b.mape

    # each mode's metrics.csv header and ordered epoch_detail keys
    MODE_OUTPUTS = {
        "standard": ("epoch,loss", ["epoch", "loss"]),
        "fsgri": ("epoch,loss,contrastive,regression",
                  ["epoch", "loss", "contrastive", "regression", "batches",
                   "anchor_batch_size", "encodings"]),
    }

    @pytest.mark.parametrize("mode", hx.MODES)
    def test_each_mode_writes_its_own_columns(self, monkeypatch, tmp_path, mode):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, mode=mode, b=12, epochs=2)
        report = hx.run_one(cfg)
        header, keys = self.MODE_OUTPUTS[mode]
        with open(os.path.join(cfg.out_dir, cfg.run_name(), "metrics.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == header
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [[str(h["epoch"]), "%.17g" % h["loss"]] for h in report.epoch_detail]
        assert [list(h) for h in report.epoch_detail] == [keys, keys]
        assert [h["epoch"] for h in report.epoch_detail] == [0, 1]
        assert report.anchor_batch_size == \
            (None if mode == "standard" else cfg.b // (cfg.m + 1))

    def test_fsgri_mode_reports_anchor_batch(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, mode="fsgri", b=12, epochs=1)
        report = hx.run_one(cfg)
        assert report.anchor_batch_size == 4
        assert "contrastive" in report.epoch_detail[0]

    def test_checkpoint_scores_like_report(self, monkeypatch, tmp_path):
        """Reloading the saved model reproduces the reported metrics."""
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path)
        report = hx.run_one(cfg)
        params = dm.load_checkpoint(
            os.path.join(cfg.out_dir, cfg.run_name(), "model.ckpt"))
        _, test = hx.load_dataset(cfg)
        rmse, mape = hx.evaluate(params, test)
        assert rmse == report.rmse
        assert mape == report.mape

    def test_every_run_logs_its_own_sampler_warnings(self, monkeypatch, tmp_path, caplog):
        """A sweep runs many trainings in one process; the warnings of the
        second run must not be swallowed by the first."""
        shrink_synth(monkeypatch)
        caplog.set_level("WARNING", logger=fs.logger.name)
        runs = []
        for out in ("a", "b"):
            caplog.clear()
            hx.run_one(tiny_cfg(tmp_path, mode="fsgri", m=10, epochs=2,
                                out_dir=str(tmp_path / out)))
            runs.append([r.getMessage() for r in caplog.records
                         if "need more than 10" in r.getMessage()])
        assert runs[0] and runs[0] == runs[1]
        # each short unit is reported once per run, not once per epoch
        assert len(set(runs[0])) == len(runs[0])


class TestAblation:
    def test_all_variants_one_seed(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, epochs=1)
        reports = hx.run_ablation(cfg)
        assert len(reports) == 6
        counts = {v: r.param_count for v, r in zip(dm.VARIANTS, reports)}
        assert counts["full"] == max(counts.values())
        assert all(r.seed == 2 for r in reports)
        with open(os.path.join(cfg.out_dir, "ablation.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "variant,rmse,mape,param_count"
        assert len(lines) == 7


class TestGridSearch:
    def test_matrix_and_files(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, epochs=1, n_layers=2, d=4)
        matrix = hx.grid_search(cfg, [1, 2], [4, 6])
        assert matrix.shape == (2, 2)
        assert np.all(np.isfinite(matrix))
        with open(os.path.join(cfg.out_dir, "grid.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "n_layers,d4,d6"
        assert len(lines) == 3
        with open(os.path.join(cfg.out_dir, "grid.json")) as f:
            meta = json.load(f)
        assert meta["default_cell"] == [1, 0]

    def test_resume_skips_finished_cells(self, monkeypatch, tmp_path):
        shrink_synth(monkeypatch)
        cfg = tiny_cfg(tmp_path, epochs=1)
        first = hx.grid_search(cfg, [1], [4, 6])
        stamps = sorted(os.path.getmtime(p) for p in
                        glob.glob(os.path.join(cfg.out_dir, "*", "report.json")))
        second = hx.grid_search(cfg, [1], [4, 6])
        again = sorted(os.path.getmtime(p) for p in
                       glob.glob(os.path.join(cfg.out_dir, "*", "report.json")))
        assert stamps == again
        assert np.array_equal(first, second)

    def test_empty_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hx.grid_search(tiny_cfg(tmp_path), [], [4])


class TestExportFeatures:
    def make_trained(self):
        params = dm.make_variant(dm.ModelConfig(l=6, m_vars=3, d=4, n_layers=1, seed=3),
                                 "full")
        return params, random_windows(10)

    def test_header_and_width(self, tmp_path):
        """Each row is ids, label, prediction, then l*d feature columns."""
        params, samples = self.make_trained()
        path = str(tmp_path / "features.csv")
        hx.export_features(params, samples, path)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["unit_id", "window_index", "rul_label", "rul_pred"]
        assert len(header) == 4 + 24
        assert len(lines) == 11

    def test_predictions_match_evaluate_path(self, tmp_path):
        """The exported prediction column is exactly what scoring uses."""
        params, samples = self.make_trained()
        path = str(tmp_path / "features.csv")
        hx.export_features(params, samples, path)
        with open(path) as f:
            rows = f.read().strip().splitlines()[1:]
        exported = np.array([float(r.split(",")[3]) for r in rows])
        assert np.array_equal(exported, hx.predict_samples(params, samples))

    def test_empty_sample_list_writes_header_only(self, tmp_path):
        params, _ = self.make_trained()
        path = str(tmp_path / "features.csv")
        hx.export_features(params, [], path)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        assert len(lines) == 1


# Each run command's flags as flag -> (dest, type, default, choices).
_RUN_FLAGS = {
    "--config": ("config", None, None, None),
    "--dataset": ("dataset", None, None, ("fd001", "fd002", "fd003", "fd004", "synth")),
    "--data-dir": ("data_dir", None, None, None),
    "--mode": ("mode", None, None, ("standard", "fsgri")),
    "--variant": ("variant", None, None, ("full", "oCm", "oCO", "oO", "oT", "oS")),
    "--seed": ("seed", int, None, None),
    "--out": ("out_dir", None, None, None),
    "--holdout": ("holdout", None, None, None),
    "--d": ("d", int, None, None),
    "--layers": ("n_layers", int, None, None),
    "--tau": ("tau", float, None, None),
    "--beta": ("beta", float, None, None),
    "--sigma1": ("sigma1", float, None, None),
    "--sigma2": ("sigma2", float, None, None),
    "--lambda": ("lam", float, None, None),
    "--m": ("m", int, None, None),
    "--batch": ("b", int, None, None),
    "--lr": ("lr", float, None, None),
    "--epochs": ("epochs", int, None, None),
    "--window": ("w", int, None, None),
    "--stride": ("sl", int, None, None),
}
_CHECKPOINT_FLAG = {"--checkpoint": ("checkpoint", None, None, None)}
_CLI_SURFACE = {
    "train": {**_RUN_FLAGS, "--force": ("force", None, False, None)},
    "eval": {**_RUN_FLAGS, **_CHECKPOINT_FLAG},
    "ablate": _RUN_FLAGS,
    "grid": {**_RUN_FLAGS, "--n-list": ("n_list", cli._int_list, "2,4,6,8,10,12", None),
             "--d-list": ("d_list", cli._int_list, "16,32,64,128", None)},
    "export": {**_RUN_FLAGS, **_CHECKPOINT_FLAG,
               "--split": ("split", None, "test", ("train", "test"))},
    "synth": {"--out": ("out_dir", None, None, None), "--tag": ("tag", None, "SY001", None),
              "--units": ("units", int, 20, None),
              "--test-units": ("test_units", int, 10, None),
              "--cycles": ("cycles", int, [90, 140], None), "--vars": ("vars", int, 21, None),
              "--gamma": ("gamma", float, 2.0, None), "--noise": ("noise", float, 0.05, None),
              "--seed": ("seed", int, 1, None)},
}


class TestCli:
    def test_every_subcommand_keeps_its_flags(self):
        """Each subcommand's flags with their dests, types, defaults and
        choices: a flag made from a RunConfig field keeps its name."""
        subparsers, = (a for a in cli.build_parser()._actions
                       if isinstance(a, _SubParsersAction))
        got = {name: {" ".join(a.option_strings): (a.dest, a.type, a.default, a.choices)
                      for a in p._actions if a.dest != "help"}
               for name, p in subparsers.choices.items()}
        assert got == _CLI_SURFACE

    @pytest.mark.parametrize("user", [None, "3"])
    def test_blas_threads_default_to_one_before_numpy_loads(self, user):
        """What the BLAS thread variables hold when numpy is imported under
        the CLI; a value set by the user is kept."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        probe = (
            "import json, os, sys\n"
            "seen = {}\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
            f"        seen.update((k, os.environ.get(k)) for k in {names!r})\n"
            "sys.addaudithook(hook)\n"
            "import dualmixer.cli\n"
            "print(json.dumps(seen))\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert json.loads(out.stdout) == {"OPENBLAS_NUM_THREADS": user or "1",
                                          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    @staticmethod
    def tiny_flags(tmp_path):
        return ["--dataset", "synth", "--seed", "2", "--epochs", "1",
                "--window", "8", "--stride", "2", "--d", "4", "--layers", "1",
                "--batch", "16", "--m", "2", "--out", str(tmp_path / "runs")]

    def run_train(self, tmp_path, *extra):
        return cli.main(["train"] + self.tiny_flags(tmp_path) + list(extra))

    def test_train_writes_report(self, monkeypatch, tmp_path, capsys):
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path) == 0
        reports = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        assert len(reports) == 1
        assert "rmse:" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, monkeypatch, tmp_path):
        """Flags beat the config file, which beats the defaults."""
        shrink_synth(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": "synth", "seed": 2, "epochs": 1, "w": 8, "sl": 2,
            "d": 4, "n_layers": 1, "b": 16, "m": 2,
            "out_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(cfg_path), "--d", "6"]) == 0
        report_path = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))[0]
        with open(report_path) as f:
            report = json.load(f)
        assert report["config"]["d"] == 6
        assert report["config"]["b"] == 16

    def test_unknown_config_field_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"banana": 1}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}: config file: unknown fields ['banana']" in capsys.readouterr().err

    @pytest.mark.parametrize("values, cause", [
        ({"lr": "x"}, "field 'lr' holds str"), ({"b": 0}, "b must be >= 1"),
    ], ids=["lr", "b"])
    def test_bad_config_value_exits_2_naming_file_and_field(self, tmp_path, capsys,
                                                            values, cause):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "runs")]) == 2
        assert f"{cfg_path}: config file: {cause}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_deeply_nested_checkpoint_header_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        header = b"[" * 200_000
        ckpt.write_bytes(dm.CHECKPOINT_MAGIC
                         + struct.pack("<II", dm.CHECKPOINT_VERSION, len(header)) + header)
        assert cli.main(["eval", "--checkpoint", str(ckpt)]) == 2
        assert f"{ckpt}: malformed checkpoint header" in capsys.readouterr().err

    def test_mistyped_config_file_exits_2_without_a_run_dir(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d": "32", "out_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "field 'd' holds str" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("content, cause", [
        (b'{"d": ', "not valid JSON"), (b"[1, 2]", "must hold a JSON object"),
        (b"\xff\xfe{}", "not valid JSON"),
        pytest.param(b"[" * 200_000, "not valid JSON", id="deeply-nested"),
    ])
    def test_bad_config_file_exits_2_naming_it_without_a_run_dir(self, tmp_path, capsys,
                                                                 content, cause):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: " in err and cause in err
        assert not (tmp_path / "runs").exists()

    def test_config_file_and_flags_name_one_run(self, monkeypatch, tmp_path):
        """A run trained from a file with an int lr is reused by --lr 1."""
        shrink_synth(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": "synth", "seed": 2, "epochs": 1, "w": 8, "sl": 2,
            "d": 4, "n_layers": 1, "b": 16, "m": 2, "lr": 1,
            "out_dir": str(tmp_path / "runs")}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        stamp = os.path.getmtime(report_path)
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("retrained"))
        assert self.run_train(tmp_path, "--lr", "1") == 0
        assert glob.glob(str(tmp_path / "runs" / "*" / "report.json")) == [report_path]
        assert os.path.getmtime(report_path) == stamp

    def test_infinite_tau_exits_2_by_name_without_a_run_dir(self, monkeypatch, tmp_path,
                                                              capsys):
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("data loaded"))
        assert self.run_train(tmp_path, "--mode", "fsgri", "--tau", "inf") == 2
        assert "tau must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_resuming_a_nan_report_exits_2_naming_it(self, monkeypatch, tmp_path, capsys):
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        with open(report_path) as f:
            raw = json.load(f)
        with open(report_path, "w") as f:
            json.dump({**raw, "rmse": float("nan")}, f)
        capsys.readouterr()
        assert self.run_train(tmp_path) == 2
        out = capsys.readouterr()
        assert report_path in out.err and "rmse must be finite" in out.err
        assert "rmse:" not in out.out

    def test_resuming_a_report_with_a_nan_epoch_loss_exits_2_naming_it(
            self, monkeypatch, tmp_path, capsys):
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        with open(report_path) as f:
            raw = json.load(f)
        with open(report_path, "w") as f:
            json.dump({**raw, "epoch_losses": [float("nan")] * len(raw["epoch_losses"])}, f)
        capsys.readouterr()
        assert self.run_train(tmp_path) == 2
        out = capsys.readouterr()
        assert report_path in out.err and "field 'epoch_losses'" in out.err
        assert "rmse:" not in out.out

    def test_resuming_another_configs_report_exits_2_and_force_retrains(
            self, monkeypatch, tmp_path, capsys):
        """A seed-1 report copied into the seed-2 run directory is refused,
        not reused, and --force trains seed 2 over it."""
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path, "--seed", "1") == 0
        other, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        assert self.run_train(tmp_path) == 0
        report_path, = set(glob.glob(str(tmp_path / "runs" / "*" / "report.json"))) - {other}
        shutil.copyfile(other, report_path)
        capsys.readouterr()
        assert self.run_train(tmp_path) == 2
        out = capsys.readouterr()
        assert report_path in out.err and "--force" in out.err
        assert "rmse:" not in out.out
        assert self.run_train(tmp_path, "--force") == 0
        assert hx.RunReport.load(report_path).seed == 2

    @pytest.mark.parametrize("extra", [[], ["--holdout"]])
    def test_negative_seed_exits_2_before_loading_data(self, monkeypatch, tmp_path,
                                                       capsys, extra):
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("data loaded"))
        assert self.run_train(tmp_path, "--seed", "-1", *extra) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("n_list, d_list, cause", [
        ("1,0", "4", "n_layers must be >= 1"), ("1", "4,0", "d must be >= 1"),
    ])
    def test_bad_grid_cell_exits_2_before_any_cell_trains(self, monkeypatch, tmp_path,
                                                          capsys, n_list, d_list, cause):
        """The first cell is valid, but none trains: no run dir, no grid.csv."""
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("data loaded"))
        assert cli.main(["grid", "--n-list", n_list, "--d-list", d_list, "--epochs", "1",
                         "--window", "8", "--out", str(tmp_path / "runs")]) == 2
        assert cause in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag", ["--n-list", "--d-list"])
    def test_malformed_grid_list_names_the_flag(self, monkeypatch, tmp_path, capsys, flag):
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("data loaded"))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["grid", flag, "1,x", "--out", str(tmp_path / "runs")])
        assert exit_.value.code == 2
        assert f"argument {flag}: expected comma-separated integers, got '1,x'" in \
            capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_synth_negative_seed_exits_2_by_name(self, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_synth_no_units_exits_2_naming_the_flags_field(self, tmp_path, capsys):
        for flag, field in (("--test-units", "test_units"), ("--units", "n_units")):
            assert cli.main(["synth", "--out", str(tmp_path / "data"), flag, "0"]) == 2
            assert f"{field} must be >= 1" in capsys.readouterr().err
            assert not (tmp_path / "data").exists()

    def test_synth_of_other_than_21_sensors_exits_2_writing_nothing(self, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--vars", "14"]) == 2
        assert ("emitting the 26-column file format requires 21 sensor columns"
                in capsys.readouterr().err)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_non_finite_checkpoint_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                              command):
        """No metric or feature row comes from NaN weights."""
        params = dm.make_variant(dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full")
        params.arrays["w_r"][0, 0] = np.nan
        ckpt = str(tmp_path / "model.ckpt")
        dm.save_checkpoint(ckpt, params)
        assert cli.main([command, "--dataset", "synth", "--seed", "2", "--window", "8",
                         "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert f"{ckpt}: non-finite values in array w_r" in captured.err
        assert "rmse" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [[], ["--holdout"]])
    def test_window_longer_than_every_unit_exits_2(self, monkeypatch, tmp_path, capsys,
                                                   extra):
        """No unit has 200 cycles: a named error, and no run directory."""
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path, "--window", "200", *extra) == 2
        assert "w=200" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_eval_and_export_from_checkpoint(self, monkeypatch, tmp_path, capsys):
        shrink_synth(monkeypatch)
        self.run_train(tmp_path)
        ckpt = glob.glob(str(tmp_path / "runs" / "*" / "model.ckpt"))[0]
        base = ["--dataset", "synth", "--seed", "2", "--window", "8",
                "--stride", "2", "--m", "2", "--checkpoint", ckpt,
                "--out", str(tmp_path / "out")]
        assert cli.main(["eval"] + base) == 0
        out = capsys.readouterr().out
        assert "rmse:" in out and "eval.json" in out
        assert cli.main(["export"] + base + ["--split", "test"]) == 0
        with open(tmp_path / "out" / "features.csv") as f:
            header = f.readline().strip().split(",")
        assert len(header) == 4 + 8 * 4

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_checkpoint_of_another_input_width_exits_2_naming_it(self, tmp_path, capsys,
                                                                 command):
        """A 5-variable checkpoint does not fit synth's 14 variables: the
        error names the file and both counts, and nothing is written."""
        ckpt = str(tmp_path / "model.ckpt")
        dm.save_checkpoint(ckpt, dm.make_variant(
            dm.ModelConfig(l=8, m_vars=5, d=4, n_layers=1), "full"))
        assert cli.main([command, "--dataset", "synth", "--seed", "2", "--window", "8",
                         "--checkpoint", ckpt, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint takes 5 input variables, the data has 14" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def save_w8_checkpoint(tmp_path):
        """A full-variant checkpoint at w8 d4 N1 for synth's 14 variables."""
        ckpt = str(tmp_path / "model.ckpt")
        dm.save_checkpoint(ckpt, dm.make_variant(
            dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full"))
        return ckpt

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("flags,values,message", [
        (["--variant", "oT"], {"variant": "oT"},
         "checkpoint has --variant full, the command line gives oT"),
        (["--d", "64"], {"d": 64}, "checkpoint has --d 4, the command line gives 64"),
        (["--layers", "3"], {"n_layers": 3},
         "checkpoint has --layers 1, the command line gives 3"),
        (["--window", "10"], {"w": 10},
         "checkpoint has --window 8, the command line gives 10"),
    ], ids=["variant", "d", "layers", "window"])
    def test_model_flags_that_contradict_the_checkpoint_exit_2(self, tmp_path, capsys,
                                                              command, flags, values,
                                                              message):
        """A model setting, from a flag or from the config file, must describe
        the checkpoint that is scored: one refusal names the checkpoint, the
        flag and both values, and nothing is written. Settings that agree
        with the checkpoint are accepted from either."""
        ckpt = self.save_w8_checkpoint(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        base = [command, "--dataset", "synth", "--seed", "2",
                "--checkpoint", ckpt, "--out", str(tmp_path / "out")]
        for given in (flags, ["--config", str(cfg_path)]):
            assert cli.main(base + given) == 2
            assert f"{ckpt}: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        agreeing = ["--variant", "full", "--window", "8", "--d", "4", "--layers", "1"]
        assert cli.main(base + agreeing) == 0
        cfg_path.write_text(json.dumps({"variant": "full", "w": 8, "d": 4, "n_layers": 1}))
        assert cli.main(base + ["--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_an_unset_model_setting_takes_the_checkpoints(self, tmp_path, capsys, command):
        """With no model flag and no config file, the w8 checkpoint is scored
        as with --window 8 and the rest of its model repeated: the same
        output, byte for byte."""
        ckpt = self.save_w8_checkpoint(tmp_path)
        base = [command, "--dataset", "synth", "--seed", "2",
                "--checkpoint", ckpt, "--out", str(tmp_path / "out")]
        written = tmp_path / "out" / ("eval.json" if command == "eval" else "features.csv")
        outputs = []
        for flags in ([], ["--window", "8"],
                      ["--variant", "full", "--window", "8", "--d", "4", "--layers", "1"]):
            assert cli.main(base + flags) == 0
            outputs.append((capsys.readouterr(), written.read_bytes()))
        assert outputs[0][0].out.startswith("rmse: " if command == "eval" else "wrote ")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_ablate_prints_the_rows_it_writes(self, monkeypatch, tmp_path, capsys):
        """Six rows, one per variant, each with the rmse of ablation.csv."""
        shrink_synth(monkeypatch)
        assert cli.main(["ablate"] + self.tiny_flags(tmp_path)) == 0
        printed = capsys.readouterr().out.splitlines()
        with open(tmp_path / "runs" / "ablation.csv") as f:
            written = list(csv.DictReader(f))
        assert [row["variant"] for row in written] == list(dm.VARIANTS)
        assert [line.split()[:2] for line in printed[1:7]] == \
            [[row["variant"], f"{float(row['rmse']):.6f}"] for row in written]
        assert printed[7].startswith("wrote ")

    def test_grid_prints_the_matrix_it_writes(self, monkeypatch, tmp_path, capsys):
        shrink_synth(monkeypatch)
        assert cli.main(["grid", "--n-list", "1,2", "--d-list", "4"]
                        + self.tiny_flags(tmp_path)) == 0
        printed = capsys.readouterr().out.splitlines()
        with open(tmp_path / "runs" / "grid.csv") as f:
            written = list(csv.reader(f))
        assert written[0] == ["n_layers", "d4"]
        assert printed[0].split() == ["N\\d", "4"]
        assert [line.split() for line in printed[1:3]] == \
            [[n, f"{float(v):.5f}"] for n, v in written[1:]]
        assert printed[3].startswith("wrote ")

    def test_eval_rejects_truncated_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        dm.save_checkpoint(str(ckpt), dm.make_variant(
            dm.ModelConfig(l=8, m_vars=14, d=4, n_layers=1), "full"))
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        code = cli.main(["eval", "--dataset", "synth", "--seed", "2", "--window", "8",
                         "--checkpoint", str(ckpt)])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_train_stops_on_non_finite_loss(self, monkeypatch, tmp_path, capsys):
        """A diverged run exits 2 with the cause and leaves no report."""
        shrink_synth(monkeypatch)
        make_variant = dm.make_variant
        monkeypatch.setattr(dm, "make_variant", lambda c, v: blown_up(make_variant(c, v)))
        assert self.run_train(tmp_path) == 2
        assert "non-finite loss" in capsys.readouterr().err
        assert glob.glob(str(tmp_path / "runs" / "*" / "report.json")) == []

    def test_train_stops_on_non_finite_gradient(self, monkeypatch, tmp_path, capsys):
        """A finite loss whose backward overflows exits 2 and leaves no report."""
        shrink_synth(monkeypatch)
        poison_head_gradient(monkeypatch)
        assert self.run_train(tmp_path) == 2
        assert "non-finite gradient for 'w_r' in batch 0" in capsys.readouterr().err
        assert glob.glob(str(tmp_path / "runs" / "*" / "report.json")) == []

    def test_resume_from_malformed_report_exits_2(self, monkeypatch, tmp_path, capsys):
        """A finished run whose report lost a field is an error naming the
        file, not a traceback."""
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path) == 0
        report_path = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))[0]
        with open(report_path) as f:
            raw = json.load(f)
        del raw["rmse"]
        with open(report_path, "w") as f:
            json.dump(raw, f)
        capsys.readouterr()
        assert self.run_train(tmp_path) == 2
        err = capsys.readouterr().err
        assert report_path in err and "rmse" in err

    @pytest.mark.parametrize("version, found", [(None, "missing"), (2, "2")])
    def test_resume_from_other_report_version_exits_2(self, monkeypatch, tmp_path,
                                                      capsys, version, found):
        """A report without the current format version is not reused; one
        with it is."""
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path) == 0
        report_path = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))[0]
        with open(report_path) as f:
            raw = json.load(f)
        if version is None:
            del raw["report_version"]
        else:
            raw["report_version"] = version
        with open(report_path, "w") as f:
            json.dump(raw, f)
        capsys.readouterr()
        assert self.run_train(tmp_path) == 2
        err = capsys.readouterr().err
        assert report_path in err
        assert f"report format version {found}, expected 1" in err and "--force" in err
        # --force writes a current report, which the next run reuses
        assert self.run_train(tmp_path, "--force") == 0
        with open(report_path) as f:
            assert json.load(f)["report_version"] == 1
        stamp = os.path.getmtime(report_path)
        monkeypatch.setattr(hx, "load_dataset", lambda cfg: pytest.fail("retrained"))
        assert self.run_train(tmp_path) == 0
        assert os.path.getmtime(report_path) == stamp

    def test_non_finite_rul_file_exits_2(self, tmp_path, capsys):
        """A bad remaining-life file is an error naming its line, not a traceback."""
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--tag", "FD001", "--units", "3",
                         "--test-units", "2", "--cycles", "20", "30"]) == 0
        (data / "RUL_FD001.txt").write_text("12\ninf\n")
        capsys.readouterr()
        assert cli.main(["train", "--dataset", "fd001", "--data-dir", str(data),
                         "--window", "8", "--out", str(tmp_path / "runs")]) == 2
        assert "RUL_FD001.txt:2" in capsys.readouterr().err

    def test_short_rul_file_exits_2_naming_both_files(self, tmp_path, capsys, monkeypatch):
        """One remaining-life entry for two test units is refused with both
        file names, before anything trains."""
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--tag", "FD001", "--units", "3",
                         "--test-units", "2", "--cycles", "20", "30"]) == 0
        (data / "RUL_FD001.txt").write_text("12\n")
        capsys.readouterr()
        monkeypatch.setattr(hx, "train", lambda *a: pytest.fail("trained"))
        assert cli.main(["train", "--dataset", "fd001", "--data-dir", str(data),
                         "--window", "8", "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "RUL_FD001.txt: 1 remaining-life entries for the 2 units of " in err
        assert "test_FD001.txt" in err

    @pytest.mark.parametrize("spoil", ["only-train-file", "rul-holds-x"])
    def test_holdout_run_reads_only_its_training_file(self, tmp_path, capsys, spoil):
        """A holdout run trains and evaluates on held training units, so it
        reads neither the test file nor the remaining-life file: it runs
        with only train_FD001.txt present, or with a RUL file holding x.
        Without --holdout the same directory exits 2 naming the file."""
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--tag", "FD001", "--units", "10",
                         "--test-units", "2", "--cycles", "20", "30"]) == 0
        if spoil == "only-train-file":
            (data / "test_FD001.txt").unlink()
            (data / "RUL_FD001.txt").unlink()
            named = "test_FD001.txt"
        else:
            (data / "RUL_FD001.txt").write_text("x\n")
            named = "RUL_FD001.txt:1: non-numeric field"
        flags = ["train", "--dataset", "fd001", "--data-dir", str(data), "--window", "8",
                 "--epochs", "1", "--d", "4", "--layers", "1", "--batch", "16", "--m", "2",
                 "--out", str(tmp_path / "runs")]
        capsys.readouterr()
        assert cli.main(flags) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert cli.main(flags + ["--holdout"]) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        report = hx.RunReport.load(report_path)
        _, held = hx.load_dataset(dd.from_fields(hx.RunConfig, report.config, "config"))
        assert {s.unit_id for s in held} and len({s.unit_id for s in held}) == 1
        params = dm.load_checkpoint(os.path.join(os.path.dirname(report_path), "model.ckpt"))
        assert report.rmse == hx.evaluate(params, held)[0]

    @pytest.mark.parametrize("mode", hx.MODES)
    def test_fd001_run_scores_its_test_split(self, tmp_path, capsys, mode):
        """A run on fd001-format files scores the saved checkpoint on the
        test set built from the three files, one unit of which is shorter
        than the window and so padded; eval prints the same rmse."""
        data = tmp_path / "data"
        data.mkdir()
        spec = sx.SynthSpec(n_units=5, test_units=3, cycles=(20, 30), n_vars=21, seed=5)
        full = sx.generate(replace(spec, n_units=spec.test_units, seed=6))
        test, ruls = sx.make_test_split(full, seed=7)
        test[0] = replace(full[0], sensors=full[0].sensors[:5])
        ruls[0] = sx.oracle_rul(full[0], 5)
        sx.emit_cmapss(str(data), "FD001", sx.generate(spec), test, ruls)
        flags = ["--dataset", "fd001", "--data-dir", str(data), "--mode", mode,
                 "--window", "8", "--stride", "2", "--epochs", "1", "--d", "4",
                 "--layers", "1", "--batch", "16", "--m", "2", "--out", str(tmp_path / "runs")]
        assert cli.main(["train"] + flags) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        report = hx.RunReport.load(report_path)
        ckpt = os.path.join(os.path.dirname(report_path), "model.ckpt")

        def parse(kind):
            return [dd.select_variables(s)
                    for s in dd.parse_cmapss(str(data / f"{kind}_FD001.txt"))]
        stats = dd.fit_minmax([s.sensors for s in parse("train")])
        test_series = parse("test")
        samples = dd.build_test_set(test_series, dd.parse_rul(str(data / "RUL_FD001.txt")),
                                    stats, 8)
        assert test_series[0].length == 5 < 8
        padded = samples[0]
        assert padded.anchor_index == 0
        np.testing.assert_array_equal(padded.values[:4], padded.values[[3] * 4])
        assert not np.array_equal(padded.values[3], padded.values[4])
        labels = np.array([s.label for s in samples])
        preds = hx.predict_samples(dm.load_checkpoint(ckpt), samples)
        assert report.mape is not None
        assert (report.rmse, report.mape) == hx.compute_metrics(labels, preds)
        capsys.readouterr()
        assert cli.main(["eval"] + flags + ["--checkpoint", ckpt]) == 0
        assert f"rmse: {report.rmse:.6f}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [["--seed", "3"], ["--holdout"]],
                             ids=["seed-3", "holdout"])
    def test_eval_with_the_runs_config_scores_its_report(self, monkeypatch, tmp_path,
                                                         capsys, extra):
        """The checkpoint records the model, not the data: a run's own
        config.json gives eval its dataset, seed, holdout and stride, and
        eval then prints the rmse the run reported."""
        shrink_synth(monkeypatch)
        assert self.run_train(tmp_path, *extra) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        run_dir = os.path.dirname(report_path)
        capsys.readouterr()
        assert cli.main(["eval", "--config", os.path.join(run_dir, "config.json"),
                         "--checkpoint", os.path.join(run_dir, "model.ckpt")]) == 0
        rmse = hx.RunReport.load(report_path).rmse
        assert capsys.readouterr().out.startswith(f"rmse: {rmse:.6f}\n")

    def test_standard_run_takes_a_batch_below_m(self, monkeypatch, tmp_path, capsys):
        """Only fsgri reads the anchor batch, so --batch 4 trains in
        standard mode with the default m=5, and exits 2 in fsgri mode."""
        shrink_synth(monkeypatch)
        flags = ["train", "--dataset", "synth", "--epochs", "1", "--window", "8",
                 "--d", "4", "--layers", "1", "--batch", "4", "--out", str(tmp_path / "runs")]
        assert cli.main(flags + ["--mode", "fsgri"]) == 2
        assert "b=4 with m=5 gives an empty anchor batch" in capsys.readouterr().err
        assert cli.main(flags + ["--mode", "standard"]) == 0
        report_path, = glob.glob(str(tmp_path / "runs" / "*" / "report.json"))
        assert hx.RunReport.load(report_path).config["b"] == 4

    def test_synth_command_emits_parseable_files(self, tmp_path):
        out = tmp_path / "data"
        code = cli.main(["synth", "--out", str(out), "--units", "3",
                         "--test-units", "2", "--cycles", "20", "30",
                         "--seed", "7"])
        assert code == 0
        series = dd.parse_cmapss(str(out / "train_SY001.txt"))
        assert len(series) == 3
        assert series[0].sensors.shape[1] == 21
        ruls = dd.parse_rul(str(out / "RUL_SY001.txt"))
        assert len(ruls) == 2

    def test_bad_flag_value_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--dataset", "fd99"])

    def test_invalid_hyperparameter_reports_error(self, tmp_path, capsys):
        assert cli.main(["train", "--dataset", "synth", "--epochs", "0",
                         "--out", str(tmp_path)]) == 2
        assert "epochs" in capsys.readouterr().err
