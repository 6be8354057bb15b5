"""Synthetic degradation generator and its ground-truth oracle."""

import numpy as np
import pytest

from dualmixer import data as dd
from dualmixer import synthdata as sx


class TestSpecValidation:

    def test_rejects_bad_fields(self):
        base = dict(n_units=3, cycles=(50, 60), n_vars=4, gamma=2.0,
                    noise_std=0.05, seed=0)
        for bad in (dict(n_units=0), dict(cycles=(60, 50)), dict(cycles=(1, 50)),
                    dict(n_vars=1), dict(gamma=0.0), dict(noise_std=-0.1),
                    dict(seed=-1), dict(test_units=0), dict(gamma=float("nan")),
                    dict(gamma=float("inf")), dict(noise_std=float("nan")),
                    dict(noise_std=float("inf"))):
            with pytest.raises(ValueError):
                sx.SynthSpec(**{**base, **bad})


class TestGenerate:

    def test_same_seed_is_bit_identical(self):
        spec = sx.SynthSpec(n_units=4, cycles=(40, 60), n_vars=5, seed=9)
        a = sx.generate(spec)
        b = sx.generate(spec)
        for ua, ub in zip(a, b):
            np.testing.assert_array_equal(ua.sensors, ub.sensors)
            np.testing.assert_array_equal(ua.cycles, ub.cycles)

    def test_lengths_within_range_and_cycles_contiguous(self):
        spec = sx.SynthSpec(n_units=10, cycles=(30, 45), n_vars=3, seed=1)
        for u in sx.generate(spec):
            assert 30 <= u.length <= 45
            np.testing.assert_array_equal(u.cycles, np.arange(1, u.length + 1))

    def test_zero_noise_makes_every_channel_monotone(self):
        spec = sx.SynthSpec(n_units=3, cycles=(50, 50), n_vars=4,
                            noise_std=0.0, seed=2)
        for u in sx.generate(spec):
            diffs = np.diff(u.sensors, axis=0)
            assert np.all(diffs > 0)


class TestOracle:

    def test_endpoints(self):
        spec = sx.SynthSpec(n_units=1, cycles=(200, 200), n_vars=3, seed=3)
        unit = sx.generate(spec)[0]
        assert sx.oracle_rul(unit, unit.length) == 0
        assert sx.oracle_rul(unit, 1) == 199

    def test_out_of_range_rejected(self):
        unit = sx.generate(sx.SynthSpec(n_units=1, cycles=(50, 50), n_vars=3, seed=4))[0]
        for cycle in (0, 51):
            with pytest.raises(ValueError):
                sx.oracle_rul(unit, cycle)


class TestPipelineIntegration:

    def test_windows_counts_and_labels_match_the_oracle(self):
        """The generic pipeline run on synthetic units reproduces the oracle."""
        spec = sx.SynthSpec(n_units=5, cycles=(40, 70), n_vars=6, seed=5)
        units = sx.generate(spec)
        stats = dd.fit_minmax([u.sensors for u in units])
        w, sl = 20, 1
        samples = dd.build_training_windows(units, stats, w=w, sl=sl)
        by_unit = dd.group_by_unit(samples)
        for u in units:
            wins = by_unit[u.unit_id]
            assert len(wins) == (u.length - w) // sl + 1
            for s in wins:
                end_cycle = s.anchor_index * sl + w
                want = dd.piecewise_label(sx.oracle_rul(u, end_cycle))
                assert s.label == want

    def test_linear_baseline_is_learnable(self):
        """A least-squares fit on each window's last row beats RMSE 0.25."""
        spec = sx.SynthSpec(n_units=12, cycles=(80, 120), n_vars=6, seed=6)
        units = sx.generate(spec)
        stats = dd.fit_minmax([u.sensors for u in units])
        samples = dd.build_training_windows(units, stats, w=20, sl=1)
        x = np.array([s.values[-1] for s in samples])
        y = np.array([s.label for s in samples])
        design = np.hstack([x, np.ones((len(x), 1))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rmse = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        assert rmse < 0.25


class TestTestSplit:

    def test_truncation_is_strictly_before_failure(self):
        units = sx.generate(sx.SynthSpec(n_units=8, cycles=(40, 60), n_vars=4, seed=7))
        cut, ruls = sx.make_test_split(units, seed=8)
        for u, c, r in zip(units, cut, ruls):
            assert 1 <= r
            assert c.length + r == u.length
            assert c.length >= int(np.ceil(u.length * 0.3))
            np.testing.assert_array_equal(c.sensors, u.sensors[:c.length])

    def test_splits_are_seeded_from_one_spec(self):
        """Training units from seed s, test units from s + 1 cut with s + 2."""
        spec = sx.SynthSpec(n_units=3, test_units=2, cycles=(30, 40), n_vars=4, seed=12)
        train, test, ruls = sx.generate_splits(spec)
        want_cut, want_ruls = sx.make_test_split(
            sx.generate(sx.SynthSpec(n_units=2, cycles=(30, 40), n_vars=4, seed=13)), seed=14)
        assert len(train) == 3 and ruls == want_ruls
        for got, want in zip(train + test, sx.generate(spec) + want_cut):
            np.testing.assert_array_equal(got.sensors, want.sensors)
            np.testing.assert_array_equal(got.cycles, want.cycles)

    def test_emitted_files_survive_the_text_parser(self, tmp_path):
        spec = sx.SynthSpec(n_units=3, cycles=(30, 40), n_vars=21, seed=9)
        train = sx.generate(spec)
        test, ruls = sx.make_test_split(train, seed=10)
        paths = sx.emit_cmapss(str(tmp_path), "SYN1", train, test, ruls)
        back = dd.parse_cmapss(paths["train"])
        for orig, re in zip(train, back):
            np.testing.assert_array_equal(re.sensors, orig.sensors)
        assert dd.parse_rul(paths["rul"]) == ruls
        assert len(dd.parse_cmapss(paths["test"])) == 3

    def test_emission_requires_21_channels(self, tmp_path):
        units = sx.generate(sx.SynthSpec(n_units=2, cycles=(30, 30), n_vars=5, seed=11))
        with pytest.raises(ValueError):
            sx.emit_cmapss(str(tmp_path), "SYN2", units, units, [1, 1])
