"""Negative sampling, contrastive losses, and the batched training loop."""

import logging
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import (features_with_scores, finite_diff_grads, group_loss, info_nce,
                      max_rel_err, unit_vec)
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmixer import fsgri as fs
from dualmixer import harness as hx
from dualmixer import model as dm
from dualmixer import numerics as nx
from dualmixer.data import WindowSample
from dualmixer.numerics import Tensor


def info_nce_oracle(s_pos, s_negs, tau):
    num = math.exp(s_pos / tau)
    return -math.log(num / (num + sum(math.exp(s / tau) for s in s_negs)))


def fake_windows(unit_id, count, w=4, m_vars=3, seed=0):
    rng = np.random.default_rng((seed, unit_id))
    labels = np.linspace(1.0, 0.0, count)
    return [WindowSample(values=rng.normal(size=(w, m_vars)), label=float(labels[i]),
                         unit_id=unit_id, anchor_index=i)
            for i in range(count)]


class TestConfig:

    def test_anchor_batch_floor(self):
        assert hx.RunConfig(b=128, m=5).anchor_batch == 21

    def test_field_validation(self):
        good = dict(mode="fsgri", m=5, beta=0.4, sigma1=0.3, sigma2=0.15, lam=2.0, tau=0.1,
                    b=128)
        hx.RunConfig(**good)
        for bad in (dict(m=0), dict(beta=1.0), dict(beta=-0.1), dict(sigma1=0.0),
                    dict(sigma2=-0.1), dict(lam=0.0), dict(tau=0.0), dict(b=5)):
            with pytest.raises(ValueError):
                hx.RunConfig(**{**good, **bad})


class TestThresholdSampling:

    def test_band_has_exactly_zero_probability(self):
        """t=100, i=50, beta=0.4 excludes indices 30..70 inclusive."""
        probs = fs.threshold_probabilities(100, 50, 0.4, 0.3)
        assert probs.shape == (100,)
        assert abs(probs.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(probs[30:71], np.zeros(41))
        assert np.all(probs[:30] > 0)
        assert np.all(probs[71:] > 0)

    def test_nearer_eligible_index_more_likely(self):
        probs = fs.threshold_probabilities(100, 50, 0.4, 0.3)
        assert probs[71] > probs[95]
        assert probs[29] > probs[20] > probs[5]

    def test_anchor_index_bounds(self):
        with pytest.raises(ValueError):
            fs.threshold_probabilities(10, 10, 0.2, 0.3)

    def test_draws_are_distinct_eligible_and_outside_band(self):
        rng = np.random.default_rng(0)
        cfg = hx.RunConfig(m=5, beta=0.4, sigma1=0.3)
        for trial in range(50):
            t = int(rng.integers(50, 120))
            i = int(rng.integers(0, t))
            idx = fs.sample_negatives(rng, t, i, cfg)
            assert len(set(idx)) == cfg.m
            assert all(0 <= k < t for k in idx)
            assert all(abs(k - i) > t * cfg.beta / 2.0 for k in idx)

    def test_fallback_relaxes_the_band(self):
        """When the band starves the pool, beta halves until m fit."""
        rng = np.random.default_rng(2)
        cfg = hx.RunConfig(m=5, beta=0.75, sigma1=0.3)
        idx = fs.sample_negatives(rng, 8, 4, cfg)
        assert sorted(set(idx)) == sorted(idx)
        assert set(idx) <= {0, 1, 2, 6, 7}  # eligible at the first workable beta

    def test_unit_too_small_to_sample(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="unit has 5 windows; need more than 5"):
            fs.sample_negatives(rng, 5, 2, hx.RunConfig(m=5))

    @pytest.mark.parametrize("t,i,cfg", [
        (7, 3, hx.RunConfig(m=5, beta=0.9)),        # the band covers the unit
        (200, 0, hx.RunConfig(m=5, sigma1=0.001)),  # the density underflows
    ])
    def test_no_eligible_index_relaxes_instead_of_raising(self, t, i, cfg):
        """An all-zero density is a starved pool like any other: beta is
        relaxed (or sampling turns uniform) rather than the draw failing."""
        assert not np.any(fs.threshold_probabilities(t, i, cfg.beta, cfg.sigma1))
        idx = fs.sample_negatives(np.random.default_rng(4), t, i, cfg)
        assert len(set(idx)) == cfg.m and i not in idx
        assert all(0 <= k < t for k in idx)

    @settings(deadline=None, max_examples=300)
    @given(t=st.integers(2, 300), data=st.data(), m=st.integers(1, 8),
           beta=st.floats(0.0, 0.999), sigma1=st.floats(1e-4, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_draws_are_distinct_and_outside_the_band_when_it_allows(
            self, t, data, m, beta, sigma1, seed):
        """m distinct in-range indices other than the anchor, all outside
        the configured band whenever that band leaves m indices with
        nonzero probability."""
        i = data.draw(st.integers(0, t - 1))
        cfg = hx.RunConfig(m=m, beta=beta, sigma1=sigma1)
        if t - 1 < m:
            with pytest.raises(ValueError, match=f"unit has {t} windows; need more than {m}$"):
                fs.sample_negatives(np.random.default_rng(seed), t, i, cfg)
            return
        idx = fs.sample_negatives(np.random.default_rng(seed), t, i, cfg)
        assert len(idx) == m and len(set(idx)) == m
        assert all(0 <= k < t and k != i for k in idx)
        if np.count_nonzero(fs.threshold_probabilities(t, i, beta, sigma1)) >= m:
            assert all(abs(k - i) > t * beta / 2.0 for k in idx)


def positive_of(windows, i, sigma2, seed):
    """The positive build_group makes for anchor i, and the anchor."""
    cfg = hx.RunConfig(m=1, beta=0.0, sigma2=sigma2)
    rows, _ = fs.build_group(np.random.default_rng(seed), windows, i, cfg)
    return rows[1], rows[0]


class TestPositives:

    def test_zero_noise_copies_the_anchor(self):
        windows = fake_windows(4, 6, w=6, m_vars=3)
        positive, anchor = positive_of(windows, 2, 0.0, 5)
        np.testing.assert_array_equal(positive, anchor)

    def test_noise_moments_match(self):
        """1e5 noise entries: mean near 0, std within 2% of sigma2."""
        windows = [WindowSample(values=np.zeros((200, 500)), label=1.0 - j / 2, unit_id=1,
                                anchor_index=j) for j in range(3)]
        positive, anchor = positive_of(windows, 1, 0.15, 6)
        diff = positive - anchor
        assert abs(diff.mean()) < 3 * 0.15 / math.sqrt(diff.size)
        assert abs(diff.std() - 0.15) < 0.02 * 0.15


class TestGroupBuilding:

    def test_group_members_come_from_the_anchor_unit(self):
        windows = fake_windows(7, 30)
        cfg = hx.RunConfig(m=3, beta=0.4, sigma1=0.3, sigma2=0.1)
        rows, labels = fs.build_group(np.random.default_rng(7), windows, 12, cfg)
        assert len(rows) == len(labels) == 5
        assert rows[0] is windows[12].values
        assert labels[:2] == [windows[12].label] * 2
        seen = set()
        for row, label in zip(rows[2:], labels[2:]):
            (k,) = [j for j, s in enumerate(windows) if s.values is row]
            assert windows[k].unit_id == 7 and label == windows[k].label
            assert abs(k - 12) > 30 * cfg.beta / 2.0
            assert k not in seen
            seen.add(k)
        assert rows[1].shape == rows[0].shape

    def test_same_rng_state_reproduces_the_group(self):
        windows = fake_windows(7, 30)
        cfg = hx.RunConfig(m=3, beta=0.4, sigma1=0.3, sigma2=0.1)
        a_rows, a_labels = fs.build_group(np.random.default_rng(8), windows, 5, cfg)
        b_rows, b_labels = fs.build_group(np.random.default_rng(8), windows, 5, cfg)
        assert a_labels == b_labels
        assert all(a is b for a, b in zip(a_rows[2:], b_rows[2:]))
        np.testing.assert_array_equal(a_rows[1], b_rows[1])


class TestInfoNce:

    def test_equal_logits_give_log_two(self):
        v = Tensor(np.random.default_rng(9).normal(size=(1, 6)))
        loss = info_nce(v, v, [v], tau=1.0)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        _, feats = features_with_scores(rng, 8, [1.0, 0.9, 0.5, 0.2])
        zi = Tensor(feats[0][None, :])
        loss = info_nce(zi, Tensor(feats[1][None, :]),
                        [Tensor(f[None, :]) for f in feats[2:]], tau=0.5)
        want = info_nce_oracle(0.9, [0.5, 0.2], 0.5)
        assert abs(loss.item() - want) < 1e-10

    def test_loss_decreases_as_positive_score_rises(self):
        rng = np.random.default_rng(11)
        losses = []
        for s_pos in (0.2, 0.5, 0.9):
            _, feats = features_with_scores(rng, 8, [1.0, s_pos, 0.3, 0.1])
            zi = Tensor(feats[0][None, :])
            losses.append(info_nce(zi, Tensor(feats[1][None, :]),
                                   [Tensor(f[None, :]) for f in feats[2:]],
                                   tau=0.5).item())
        assert losses[0] > losses[1] > losses[2]

    def test_zero_feature_rejected(self):
        v = Tensor(np.ones((1, 4)))
        with pytest.raises(ValueError, match="cosine_similarity of a zero-norm vector"):
            info_nce(v, Tensor(np.zeros((1, 4))), [v], tau=1.0)


class TestDistanceWeighting:

    def test_weight_arithmetic(self):
        np.testing.assert_allclose(fs.distance_weights(0.8, [0.5], 2.0), [0.18])

    def test_weights_ascend_with_the_life_gap(self):
        w = fs.distance_weights(1.0, [0.9, 0.6, 0.2], 2.0)
        assert w[0] < w[1] < w[2]

    def test_reduces_to_plain_info_nce_when_weights_are_one(self):
        """lam=1 with unit life gaps makes every alpha exactly 1."""
        rng = np.random.default_rng(12)
        _, feats = features_with_scores(rng, 10, [1.0, 0.8, 0.4, 0.1, -0.3])
        zi = Tensor(feats[0][None, :])
        pos = Tensor(feats[1][None, :])
        negs = [Tensor(f[None, :]) for f in feats[2:]]
        dw = fs.dw_info_nce(zi, pos, negs, anchor_rul=1.0, neg_ruls=[0.0, 0.0, 0.0],
                            lam=1.0, tau=0.1)
        plain = info_nce(zi, pos, negs, tau=0.1)
        assert abs(dw.item() - plain.item()) < 1e-12

    def test_finite_at_extreme_scores_and_small_temperature(self):
        u = unit_vec(np.random.default_rng(13).normal(size=8))
        zi = Tensor(u[None, :])
        loss = fs.dw_info_nce(zi, Tensor(-u[None, :]),
                              [Tensor(u[None, :]), Tensor(-u[None, :])],
                              anchor_rul=1.0, neg_ruls=[0.0, 0.0], lam=2.0, tau=0.05)
        assert np.isfinite(loss.item())

    def test_label_count_mismatch_rejected(self):
        v = Tensor(np.ones((1, 3)))
        with pytest.raises(ValueError):
            fs.dw_info_nce(v, v, [v], anchor_rul=1.0, neg_ruls=[0.1, 0.2],
                           lam=1.0, tau=0.1)


class TestMseAll:

    def mse_oracle(self, pa, pp, pns, ya, yns):
        neg = sum((p - y) ** 2 for p, y in zip(pns, yns)) / len(pns)
        return (pa - ya) ** 2 + (pp - ya) ** 2 + neg

    def scalar(self, v):
        return Tensor([[float(v)]])

    def test_exact_predictions_give_zero(self):
        loss = fs.mse_all(self.scalar(0.7), self.scalar(0.7),
                          [self.scalar(0.2)], 0.7, [0.2])
        assert loss.item() == 0.0

    def test_anchor_off_by_a_tenth(self):
        loss = fs.mse_all(self.scalar(0.8), self.scalar(0.7),
                          [self.scalar(0.2)], 0.7, [0.2])
        assert abs(loss.item() - 0.01) < 1e-15

    def test_matches_direct_evaluation_with_five_negatives(self):
        rng = np.random.default_rng(14)
        pa, pp = rng.uniform(size=2)
        pns = rng.uniform(size=5)
        ya = float(rng.uniform())
        yns = rng.uniform(size=5)
        loss = fs.mse_all(self.scalar(pa), self.scalar(pp),
                          [self.scalar(p) for p in pns], ya, list(yns))
        assert abs(loss.item() - self.mse_oracle(pa, pp, pns, ya, yns)) < 1e-12


class TestBatchLoss:
    """The batched loss node against the scalar reference dw_info_nce +
    mse_all, which is built from one cosine and one slice per pair."""

    def random_batch(self, rng, groups, m, width=12):
        """One feature row of the given width and one prediction per window."""
        k = m + 2
        feats = rng.normal(size=(groups * k, width))
        ruls = rng.uniform(size=(groups * k, 1))
        labels = rng.uniform(size=(groups, k))
        labels[:, 1] = labels[:, 0]  # the positive carries the anchor's label
        return feats, ruls, labels

    def reference(self, feats, ruls, labels, cfg):
        """Per-group (contrastive, regression) tensors on the operands' tape."""
        out = []
        k = labels.shape[1]
        for g in range(labels.shape[0]):
            base = g * k
            z = [nx.rows_slice(feats, base + j, base + j + 1) for j in range(k)]
            p = [nx.rows_slice(ruls, base + j, base + j + 1) for j in range(k)]
            ya, yn = float(labels[g, 0]), [float(y) for y in labels[g, 2:]]
            out.append((fs.dw_info_nce(z[0], z[1], z[2:], ya, yn, cfg.lam, cfg.tau),
                        fs.mse_all(p[0], p[1], p[2:], ya, yn)))
        return out

    @pytest.mark.parametrize("groups,m", [(1, 1), (3, 1), (1, 5), (4, 2), (21, 5)])
    def test_matches_the_scalar_reference(self, groups, m):
        rng = np.random.default_rng(100 + 10 * groups + m)
        cfg = hx.RunConfig(m=m, lam=2.0, tau=0.1)
        for _ in range(3):
            feats, ruls, labels = self.random_batch(rng, groups, m)
            g1 = nx.Graph()
            loss, con, reg = fs.batch_loss(g1.parameter("f", feats), g1.parameter("r", ruls),
                                           labels, cfg)
            got = g1.backward(loss)
            g2 = nx.Graph()
            parts = self.reference(g2.parameter("f", feats), g2.parameter("r", ruls),
                                   labels, cfg)
            want_con = np.array([c.item() for c, _ in parts])
            want_reg = np.array([r.item() for _, r in parts])
            np.testing.assert_allclose(con, want_con, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(reg, want_reg, rtol=1e-12, atol=1e-12)
            assert abs(loss.item() - (want_con.sum() + want_reg.sum())) <= \
                1e-12 * max(1.0, abs(loss.item()))
            total = None
            for c, r in parts:
                term = nx.add(c, r)
                total = term if total is None else nx.add(total, term)
            want = g2.backward(total)
            assert max_rel_err(got, want) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(120)
        cfg = hx.RunConfig(m=2, lam=2.0, tau=0.5)
        feats, ruls, labels = self.random_batch(rng, 2, 2)
        arrays = {"f": feats, "r": ruls}
        g = nx.Graph()
        loss, _, _ = fs.batch_loss(g.parameter("f", feats), g.parameter("r", ruls),
                                   labels, cfg)
        got = g.backward(loss)
        want = finite_diff_grads(
            lambda: fs.batch_loss(Tensor(feats), Tensor(ruls), labels, cfg)[0].item(),
            arrays)
        assert max_rel_err(got, want) < 1e-4

    def test_a_batch_adds_one_node_after_the_forward(self):
        params = dm.make_variant(dm.ModelConfig(l=4, m_vars=3, d=4, n_layers=1, seed=5), "full")
        rng = np.random.default_rng(121)
        groups, m = 6, 3
        windows = rng.normal(size=(groups * (m + 2) * 4, 3)).reshape(-1, 4, 3)
        graph = nx.Graph()
        feats, ruls = dm.forward_batch(params, windows, graph)
        before = len(graph.nodes)
        labels = rng.uniform(size=(groups, m + 2))
        fs.batch_loss(feats, ruls, labels, hx.RunConfig(m=m))
        assert len(graph.nodes) == before + 1

    def test_zero_feature_rejected(self):
        rng = np.random.default_rng(122)
        feats, ruls, labels = self.random_batch(rng, 2, 2)
        feats[7] = 0.0  # the second group's second negative
        with pytest.raises(ValueError, match="batch_loss: a window's features have zero norm"):
            fs.batch_loss(Tensor(feats), Tensor(ruls), labels, hx.RunConfig(m=2))

    def test_operands_on_two_graphs_rejected(self):
        rng = np.random.default_rng(124)
        feats, ruls, labels = self.random_batch(rng, 2, 2)
        with pytest.raises(nx.GraphError):
            fs.batch_loss(nx.Graph().parameter("f", feats), nx.Graph().parameter("r", ruls),
                          labels, hx.RunConfig(m=2))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(123)
        feats, ruls, labels = self.random_batch(rng, 2, 2)
        with pytest.raises(ValueError, match=r"batch_loss: \(8, 12\) features and \(7, 1\) "
                                             "predictions do not hold 2 groups of 4"):
            fs.batch_loss(Tensor(feats), Tensor(ruls[:-1]), labels, hx.RunConfig(m=2))


class TestCombinedLoss:

    def build_group(self, m=2, l=5, m_vars=2, seed=15):
        windows = fake_windows(1, 12, w=l, m_vars=m_vars, seed=seed)
        cfg = hx.RunConfig(m=m, beta=0.3, sigma1=0.3, sigma2=0.1, b=24)
        grp = fs.build_group(np.random.default_rng(seed), windows, 6, cfg)
        return grp, cfg

    def test_positive_and_finite_at_random_init(self):
        grp, cfg = self.build_group()
        params = dm.make_variant(dm.ModelConfig(l=5, m_vars=2, d=3, n_layers=1, seed=16), "full")
        loss = group_loss(grp, params, cfg)
        assert np.isfinite(loss.item())
        assert loss.item() > 0.0

    def test_equals_the_sum_of_its_parts(self):
        grp, cfg = self.build_group()
        params = dm.make_variant(dm.ModelConfig(l=5, m_vars=2, d=3, n_layers=1, seed=17), "full")
        total = group_loss(grp, params, cfg).item()
        rows, labels = grp
        feats = []
        preds = []
        for values in rows:
            f, r = dm.forward_batch(params, [values])
            feats.append(f)
            preds.append(r)
        dw = fs.dw_info_nce(feats[0], feats[1], feats[2:], labels[0], labels[2:],
                            cfg.lam, cfg.tau)
        reg = fs.mse_all(preds[0], preds[1], preds[2:], labels[0], labels[2:])
        assert abs(total - (dw.item() + reg.item())) < 1e-9

    def test_gradients_match_finite_differences(self):
        """All model parameters through both loss terms at once."""
        grp, cfg = self.build_group()
        params = dm.make_variant(dm.ModelConfig(l=5, m_vars=2, d=3, n_layers=1, seed=18), "full")
        arrays = params.arrays
        graph = nx.Graph()
        got = graph.backward(group_loss(grp, params, cfg, graph))
        want = finite_diff_grads(lambda: group_loss(grp, params, cfg).item(), arrays)
        assert max_rel_err(got, want) < 1e-4


class TestTrainEpoch:

    def setup_run(self, units=(1, 2), count=21, extra_small=False):
        samples = []
        for u in units:
            samples += fake_windows(u, count)
        if extra_small:
            samples += fake_windows(9, 4)
        params = dm.make_variant(dm.ModelConfig(l=4, m_vars=3, d=4, n_layers=1, seed=19), "full")
        cfg = hx.RunConfig(m=5, beta=0.4, sigma1=0.3, sigma2=0.1, b=128)
        return params, samples, cfg

    def test_batch_accounting(self):
        """42 anchors at b=128, m=5: two batches of 21, 147 encodings each;
        at b=60 four batches of 10 and a last one of 2."""
        params, samples, cfg = self.setup_run()
        stats = fs.train_epoch_fsgri(params, samples, cfg, nx.AdamState(lr=1e-3), 0)
        assert stats.anchor_batch_size == 21
        assert stats.batches == 2
        assert stats.encodings == 42 * 7
        assert stats.encodings // stats.batches == 147
        assert stats.skipped_anchors == 0
        stats = fs.train_epoch_fsgri(params, samples, replace(cfg, b=60),
                                     nx.AdamState(lr=1e-3), 0)
        assert (stats.anchor_batch_size, stats.batches, stats.encodings) == (10, 5, 42 * 7)

    def test_standard_config_with_no_anchor_batch_is_refused(self):
        """A standard-mode config may hold b <= m; the fsgri epoch refuses
        it by name before any update."""
        params, samples, cfg = self.setup_run()
        before = {k: v.copy() for k, v in params.arrays.items()}
        with pytest.raises(ValueError, match="^b=4 with m=5 gives an empty anchor batch$"):
            fs.train_epoch_fsgri(params, samples, replace(cfg, b=4),
                                 nx.AdamState(lr=1e-3), 0)
        for name, arr in before.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_undersized_unit_is_skipped(self):
        params, samples, cfg = self.setup_run(extra_small=True)
        stats = fs.train_epoch_fsgri(params, samples, cfg, nx.AdamState(lr=1e-3), 0)
        assert stats.skipped_anchors == 4
        assert stats.encodings == 42 * 7

    def test_contrastive_component_positive_and_finite(self):
        params, samples, cfg = self.setup_run()
        stats = fs.train_epoch_fsgri(params, samples, cfg, nx.AdamState(lr=1e-3), 0)
        assert np.isfinite(stats.mean_loss)
        assert stats.mean_contrastive > 0.0

    def test_same_seed_reproduces_the_epoch_bitwise(self):
        results = []
        for _ in range(2):
            params, samples, cfg = self.setup_run()
            opt = nx.AdamState(lr=1e-3)
            stats = fs.train_epoch_fsgri(params, samples, cfg, opt, epoch_seed=123)
            results.append((stats.mean_loss, params.arrays))
        assert results[0][0] == results[1][0]
        for name, arr in results[0][1].items():
            np.testing.assert_array_equal(arr, results[1][1][name])

    def test_two_lane_epoch_logs_each_sampler_warning_once(self, monkeypatch, caplog):
        """Each shard builds its groups on its own lane's thread, and the
        lanes share no state: a one-epoch fsgri run of four shards, two per
        lane, whose band is too wide for its units, logs each relaxed band
        exactly once, before it trains."""
        monkeypatch.setattr(nx, "shard_count", lambda activation: 4)
        samples = [w for u, n in ((1, 7), (2, 7), (3, 9), (4, 9)) for w in fake_windows(u, n)]
        params = dm.make_variant(dm.ModelConfig(l=4, m_vars=3, d=4, n_layers=1, seed=19), "full")
        cfg = hx.RunConfig(mode="fsgri", epochs=1, m=5, beta=0.9, sigma1=0.3, b=128)
        group_threads = set()
        build_group = fs.build_group

        def traced(*args):
            group_threads.add(threading.current_thread())
            return build_group(*args)

        monkeypatch.setattr(fs, "build_group", traced)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger=fs.__name__):
                hx.train(params, samples, cfg)
        finally:
            sys.setswitchinterval(interval)
        messages = [r.getMessage() for r in caplog.records if r.name == fs.__name__]
        assert threading.main_thread() in group_threads and len(group_threads) > 1
        assert sorted(messages) == [
            "relaxed exclusion band to beta=0.225 for 7-window units",
            "relaxed exclusion band to beta=0.225 for 9-window units",
            "relaxed exclusion band to beta=0.45 for 7-window units",
            "relaxed exclusion band to beta=0.45 for 9-window units"]

    def test_sampler_notes_come_in_one_order_before_the_first_epoch(self, monkeypatch,
                                                                     caplog):
        """A two-epoch, four-shard run logs its sampler notes in a fixed
        order (short units by id, then unit lengths ascending, each length's
        relaxed betas descending and then its uniform fallback), the same on
        a rerun, and all of them before the first epoch's INFO line. With
        sigma1 = 0.01 the density underflows a few windows from the anchor,
        so edge anchors fall back to uniform draws."""
        monkeypatch.setattr(nx, "shard_count", lambda activation: 4)
        units = ((12, 3), (1, 7), (2, 7), (3, 9), (4, 9), (10, 4), (5, 12))
        samples = [w for u, n in units for w in fake_windows(u, n)]
        cfg = hx.RunConfig(mode="fsgri", epochs=2, m=5, beta=0.9, sigma1=0.01, b=128)
        runs = []
        for _ in range(2):
            params = dm.make_variant(dm.ModelConfig(l=4, m_vars=3, d=4, n_layers=1, seed=19),
                                     "full")
            caplog.clear()
            with caplog.at_level(logging.INFO):
                hx.train(params, samples, cfg)
            runs.append([(r.levelname, r.getMessage()) for r in caplog.records
                         if r.name in (fs.__name__, hx.__name__)])
        skipped = "has only %d windows; need more than 5 for negative sampling; skipped"
        assert [m for level, m in runs[0] if level == "WARNING"] == [
            "unit 10 " + skipped % 4,
            "unit 12 " + skipped % 3,
            "falling back to uniform negative sampling for 7-window units",
            "relaxed exclusion band to beta=0.1125 for 9-window units",
            "falling back to uniform negative sampling for 9-window units",
            "relaxed exclusion band to beta=0.225 for 12-window units",
            "relaxed exclusion band to beta=0.1125 for 12-window units",
            "falling back to uniform negative sampling for 12-window units"]
        levels = [level for level, _ in runs[0]]
        assert levels == ["WARNING"] * 8 + ["INFO"] * 2
        assert runs[0][8][1].startswith("fsgri epoch 1/2: ")
        assert [r for r in runs[0] if r[0] == "WARNING"] == [r for r in runs[1]
                                                             if r[0] == "WARNING"]

    def test_bare_epoch_logs_nothing(self, caplog):
        """train_epoch_fsgri skips and counts a short unit, and samples
        relaxed bands, without logging: the notes belong to the run."""
        params, samples, _ = self.setup_run(extra_small=True)
        cfg = hx.RunConfig(m=5, beta=0.9, sigma1=0.3, b=128)
        with caplog.at_level(logging.DEBUG):
            stats = fs.train_epoch_fsgri(params, samples, cfg, nx.AdamState(lr=1e-3), 0)
        assert stats.skipped_anchors == 4
        assert caplog.records == []

    def test_empty_dataset_rejected(self):
        params, _, cfg = self.setup_run()
        with pytest.raises(ValueError):
            fs.train_epoch_fsgri(params, [], cfg, nx.AdamState(), 0)

    def test_all_units_too_small_rejected(self):
        params, _, cfg = self.setup_run()
        with pytest.raises(ValueError):
            fs.train_epoch_fsgri(params, fake_windows(1, 3), cfg, nx.AdamState(), 0)
