"""Acceptance gate: one test per headline guarantee, each printing a single
pass/fail line under pytest -v.

The first block needs no external data. The dataset-backed reproduction
block runs only when the real turbofan files are present (see conftest);
otherwise those tests skip with a clear reason.
"""

import math
import os
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (CMAPSS_DIR, cmapss_available, features_with_scores,
                      finite_diff_grads, group_loss, info_nce, max_rel_err)
from scipy import stats as sps

import dualmixer.data as dd
import dualmixer.fsgri as fs
import dualmixer.harness as hx
import dualmixer.model as dm
import dualmixer.numerics as nx
import dualmixer.synthdata as sx
from dualmixer.numerics import Tensor

RUNS_DIR = os.environ.get(
    "DUALMIXER_RUNS", os.path.join(tempfile.gettempdir(), "dualmixer-acceptance"))


def make_unit(count, w=4, m_vars=3, seed=0, unit_id=1):
    rng = np.random.default_rng(seed)
    return [dd.WindowSample(values=rng.uniform(0, 1, (w, m_vars)),
                            label=float(lab), unit_id=unit_id, anchor_index=j)
            for j, lab in enumerate(np.linspace(1.0, 0.0, count))]


def fd_check(params, build, tol=1e-4):
    graph = nx.Graph()
    leaves = {k: graph.parameter(k, v) for k, v in params.items()}
    got = graph.backward(build(graph, leaves))

    def replay():
        g2 = nx.Graph()
        return build(g2, {k: g2.parameter(k, v) for k, v in params.items()}).item()

    assert max_rel_err(got, finite_diff_grads(replay, params)) < tol


class TestPropertySuite:
    def test_gradient_correctness(self):
        """Every primitive and the composed group loss match central differences."""
        started = time.perf_counter()
        rng = np.random.default_rng(41)

        def masked_case(params, op, out_shape):
            # a fixed random mask makes the scalar loss sensitive everywhere
            mk = rng.normal(size=out_shape)
            return params, lambda g, p: nx.sum_all(
                nx.hadamard(op(g, p), Tensor(mk)))

        def a34():
            return {"a": rng.normal(size=(3, 4))}

        cases = [
            masked_case({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
                        lambda g, p: nx.matmul(p["a"], p["b"]), (3, 2)),
            masked_case(a34(), lambda g, p: nx.transpose(p["a"]), (4, 3)),
            masked_case({"a": rng.normal(size=(6, 3))},
                        lambda g, p: nx.block_transpose(p["a"], 2), (6, 3)),
            masked_case({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))},
                        lambda g, p: nx.add(p["a"], p["b"]), (3, 4)),
            masked_case({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))},
                        lambda g, p: nx.sub(p["a"], p["b"]), (3, 4)),
            masked_case({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))},
                        lambda g, p: nx.hadamard(p["a"], p["b"]), (3, 4)),
            masked_case(a34(), lambda g, p: nx.scale(p["a"], -1.7), (3, 4)),
            masked_case(a34(), lambda g, p: nx.exp(p["a"]), (3, 4)),
            masked_case({"a": rng.uniform(0.5, 2.0, (3, 4))},
                        lambda g, p: nx.log(p["a"]), (3, 4)),
            (a34(), lambda g, p: nx.sum_all(p["a"])),
            masked_case(a34(), lambda g, p: nx.reshape(p["a"], 2, 6), (2, 6)),
            masked_case(a34(), lambda g, p: nx.rows_slice(p["a"], 1, 3), (2, 4)),
            masked_case(a34(), lambda g, p: nx.gelu(p["a"]), (3, 4)),
            masked_case(a34(), lambda g, p: nx.sigmoid(p["a"]), (3, 4)),
            masked_case({"a": rng.normal(size=(3, 5)), "gain": rng.normal(size=(1, 5)),
                         "bias": rng.normal(size=(1, 5))},
                        lambda g, p: nx.layer_norm(p["a"], p["gain"], p["bias"]),
                        (3, 5)),
            ({"u": rng.normal(size=(1, 6)), "v": rng.normal(size=(1, 6))},
             lambda g, p: nx.cosine_similarity(p["u"], p["v"])),
            ({"a": rng.normal(size=(1, 1)), "b": rng.normal(size=(1, 1)),
              "c": rng.normal(size=(1, 1))},
             lambda g, p: nx.logsumexp([p["a"], p["b"], p["c"]])),
        ]
        for params, build in cases:
            fd_check(params, build)

        windows = make_unit(12, w=8, m_vars=3, seed=2)
        cfg = hx.RunConfig(m=2, b=18)
        group = fs.build_group(np.random.default_rng(5), windows, 6, cfg)
        params = dm.make_variant(
            dm.ModelConfig(l=8, m_vars=3, d=4, n_layers=1, seed=9), "full")
        arrays = params.arrays
        graph = nx.Graph()
        got = graph.backward(group_loss(group, params, cfg, graph))
        want = finite_diff_grads(lambda: group_loss(group, params, cfg).item(),
                                 arrays)
        assert max_rel_err(got, want) < 1e-4
        assert time.perf_counter() - started < 30.0

    def test_sampling_law(self):
        """10k threshold draws: an empty exclusion band, frequency falling
        with distance on both sides."""
        started = time.perf_counter()
        rng = np.random.default_rng(123)
        cfg = hx.RunConfig(m=5, beta=0.4, sigma1=0.3)
        counts = np.zeros(100)
        for _ in range(2000):
            for k in fs.sample_negatives(rng, 100, 50, cfg):
                counts[k] += 1
        assert counts.sum() == 10_000
        assert counts[30:71].sum() == 0
        left = np.arange(0, 30)
        tau, p = sps.kendalltau(50 - left, counts[left])
        assert tau < 0 and p < 0.01
        right = np.arange(71, 100)
        tau, p = sps.kendalltau(right - 50, counts[right])
        assert tau < 0 and p < 0.01
        assert time.perf_counter() - started < 5.0

    def test_loss_reductions(self):
        """Distance weighting collapses to plain contrastive loss at unit
        weights; the contrastive loss matches a scalar oracle."""
        rng = np.random.default_rng(77)
        u, feats = features_with_scores(rng, 8, [0.8, 0.5, -0.2, 0.3])
        zi = Tensor(u[None, :])
        zp, zn = Tensor(feats[0][None, :]), [Tensor(f[None, :]) for f in feats[1:]]
        dw = fs.dw_info_nce(zi, zp, zn, anchor_rul=1.0, neg_ruls=[0.0, 2.0, 0.0],
                            lam=1.0, tau=0.25)
        plain = info_nce(zi, zp, zn, tau=0.25)
        assert abs(dw.item() - plain.item()) <= 1e-12

        for trial in range(100):
            n = int(rng.integers(1, 9))
            tau = float(rng.uniform(0.05, 1.0))
            scores = rng.uniform(-1.0, 1.0, n + 1)
            u, feats = features_with_scores(rng, 6, scores)
            zi = Tensor(u[None, :])
            got = info_nce(zi, Tensor(feats[0][None, :]),
                           [Tensor(f[None, :]) for f in feats[1:]], tau).item()
            cos = [float(np.dot(u, f) / (np.linalg.norm(u) * np.linalg.norm(f)))
                   for f in feats]
            num = math.exp(cos[0] / tau)
            want = -math.log(num / (num + sum(math.exp(s / tau) for s in cos[1:])))
            assert abs(got - want) <= 1e-10

    def test_gradient_ordering(self):
        """With equal scores, a larger life-gap weight means a strictly
        larger gradient on that negative's feature; 100 trials, 0 misses."""
        rng = np.random.default_rng(31)
        violations = 0
        for trial in range(100):
            s = float(rng.uniform(0.0, 0.9))
            u, feats = features_with_scores(rng, 6, [0.7, s, s, s, s])
            gaps = np.sort(rng.uniform(0.05, 0.95, 4))
            graph = nx.Graph()
            zi = Tensor(u[None, :])
            zp = Tensor(feats[0][None, :])
            zn = [graph.parameter(f"neg{k}", feats[1 + k][None, :].copy())
                  for k in range(4)]
            loss = fs.dw_info_nce(zi, zp, zn, anchor_rul=1.0,
                                  neg_ruls=[1.0 - g for g in gaps],
                                  lam=2.0, tau=0.2)
            grads = graph.backward(loss)
            norms = [np.linalg.norm(grads[f"neg{k}"]) for k in range(4)]
            if not all(norms[k] < norms[k + 1] for k in range(3)):
                violations += 1
        assert violations == 0

    def test_algorithm_accounting(self):
        """b=128, m=5 gives 21 anchors and 147 encodings per full batch,
        measured by the epoch counters."""
        cfg = hx.RunConfig(m=5, b=128)
        assert cfg.anchor_batch == 21
        samples = make_unit(126, w=4, m_vars=2, seed=11)
        params = dm.make_variant(
            dm.ModelConfig(l=4, m_vars=2, d=2, n_layers=1, seed=1), "full")
        stats = fs.train_epoch_fsgri(params, samples, cfg,
                                     nx.AdamState(lr=1e-3), epoch_seed=3)
        assert stats.anchor_batch_size == 21
        assert stats.anchors == 126
        assert stats.batches == 6
        assert stats.encodings == 126 * 7
        assert stats.encodings // stats.batches == 147

    def test_ranking_benefit(self):
        """After contrastive training, feature similarity to an early-life
        anchor ranks inversely with life gap (rho <= -0.6) and more strongly
        than after plain regression training, on 2 of 3 seeds."""
        started = time.perf_counter()

        def spearman_rho(params, samples):
            groups = dd.group_by_unit(samples)
            anchor = groups[sorted(groups)[0]][0]
            _, feats = hx._forward_many(params, samples)
            idx = next(i for i, s in enumerate(samples) if s is anchor)
            a = feats[idx]
            sims = feats @ a / (np.linalg.norm(feats, axis=1) * np.linalg.norm(a))
            gaps = np.abs(np.array([s.label for s in samples]) - anchor.label)
            keep = np.arange(len(samples)) != idx
            return float(sps.spearmanr(sims[keep], gaps[keep]).statistic)

        wins = 0
        for seed in (1, 2, 3):
            units = sx.generate(sx.SynthSpec(n_units=5, cycles=(100, 120),
                                             n_vars=8, gamma=2.0, noise_std=0.02,
                                             seed=seed))
            stats = dd.fit_minmax([u.sensors for u in units])
            train = dd.build_training_windows(units, stats, 10, 5)
            base = dict(dataset="synth", seed=seed, b=24, m=2, w=10, sl=5,
                        epochs=50, n_layers=1, d=4, lam=4.0)
            mc = dm.ModelConfig(l=10, m_vars=8, d=4, n_layers=1, seed=seed)
            contrastive = dm.make_variant(mc, "full")
            hx.train(contrastive, train, hx.RunConfig(mode="fsgri", **base))
            plain = dm.make_variant(mc, "full")
            hx.train_standard(plain, train, hx.RunConfig(mode="standard", **base))
            rho_c, rho_p = spearman_rho(contrastive, train), spearman_rho(plain, train)
            if rho_c <= -0.6 and rho_c < rho_p:
                wins += 1
        assert wins >= 2
        assert time.perf_counter() - started < 600.0

    def test_pipeline_oracles(self):
        """Window counts, label monotonicity, normalization round-trip, and
        unit counts of any real data present."""
        rng = np.random.default_rng(55)
        for _ in range(50):
            w = int(rng.integers(2, 41))
            length = int(rng.integers(w, w + 200))
            sl = int(rng.integers(1, 8))
            got = dd.sliding_window(rng.normal(size=(length, 3)), w, sl)
            assert len(got) == (length - w) // sl + 1

        unit = sx.generate(sx.SynthSpec(n_units=1, cycles=(160, 160), n_vars=4,
                                        noise_std=0.0, seed=3))[0]
        stats = dd.fit_minmax([unit.sensors])
        windows = dd.build_training_windows([unit], stats, 20, 1)
        labels = [s.label for s in windows]
        assert all(b <= a for a, b in zip(labels, labels[1:]))
        declining = [s.label for s in windows if s.label < 1.0]
        assert all(b < a for a, b in zip(declining, declining[1:]))

        raw = rng.uniform(-5, 5, (40, 6))
        stats = dd.fit_minmax([raw])
        norm = dd.apply_minmax(raw, stats)
        back = norm * (stats.maxs - stats.mins) + stats.mins
        assert np.max(np.abs(back - raw)) <= 1e-12

        expected_units = {"FD001": (100, 100), "FD002": (260, 259),
                          "FD003": (100, 100), "FD004": (249, 248)}
        for tag, (n_train, n_test) in expected_units.items():
            if not cmapss_available(tag):
                continue
            train = dd.parse_cmapss(os.path.join(CMAPSS_DIR, f"train_{tag}.txt"))
            test = dd.parse_cmapss(os.path.join(CMAPSS_DIR, f"test_{tag}.txt"))
            assert (len(train), len(test)) == (n_train, n_test)


@pytest.fixture
def noisy_synth(monkeypatch):
    monkeypatch.setattr(hx, "SYNTH", replace(hx.SYNTH, n_units=6, test_units=4,
                                             cycles=(40, 60), n_vars=8, noise_std=0.15))


class TestSyntheticDirection:
    """Paired-seed direction checks on built-in noisy synthetic data."""

    def run(self, tmp_path, seed, **over):
        base = dict(dataset="synth", seed=seed, b=32, m=2, w=10, sl=2,
                    n_layers=1, d=8, out_dir=str(tmp_path))
        base.update(over)
        return hx.run_one(hx.RunConfig(**base), resume=False)

    def test_contrastive_not_worse_than_standard(self, noisy_synth, tmp_path):
        """Same seed, same epoch budget: the contrastive mode matches or
        beats plain regression on 2 of 3 seeds."""
        wins = 0
        for seed in (1, 2, 3):
            fsgri = self.run(tmp_path / "f", seed, mode="fsgri", epochs=8)
            standard = self.run(tmp_path / "s", seed, mode="standard", epochs=8)
            if fsgri.rmse <= standard.rmse:
                wins += 1
        assert wins >= 2

    def test_full_variant_beats_temporal_only(self, noisy_synth, tmp_path):
        """The two-path model outscores its temporal-only ablation on 2 of
        3 seeds."""
        wins = 0
        for seed in (1, 2, 3):
            full = self.run(tmp_path / "full", seed, variant="full", epochs=15)
            temporal = self.run(tmp_path / "oT", seed, variant="oT", epochs=15)
            if full.rmse < temporal.rmse:
                wins += 1
        assert wins >= 2


needs_cmapss = pytest.mark.skipif(
    not cmapss_available("FD001"),
    reason="real turbofan files not present under " + CMAPSS_DIR)

_fd001_cache = {}


def fd001_report(mode, variant, seed):
    key = (mode, variant, seed)
    if key not in _fd001_cache:
        cfg = hx.RunConfig(dataset="fd001", data_dir=CMAPSS_DIR, mode=mode,
                           variant=variant, seed=seed, out_dir=RUNS_DIR)
        _fd001_cache[key] = hx.run_one(cfg)
    return _fd001_cache[key]


@needs_cmapss
class TestDatasetReproduction:
    """Full-scale reproduction on the real FD001 files; finished runs are
    reused from RUNS_DIR across invocations."""

    def test_fd001_standard_rmse_in_reference_band(self):
        """Mean test RMSE over seeds 1-3 within 20% of the reference 0.1041."""
        mean = np.mean([fd001_report("standard", "full", s).rmse for s in (1, 2, 3)])
        assert 0.1041 * 0.8 <= mean <= 0.1041 * 1.2

    def test_fd001_contrastive_not_worse(self):
        """Contrastive training matches or improves the mean RMSE."""
        standard = np.mean([fd001_report("standard", "full", s).rmse
                            for s in (1, 2, 3)])
        contrastive = np.mean([fd001_report("fsgri", "full", s).rmse
                               for s in (1, 2, 3)])
        assert contrastive <= standard

    def test_fd001_ablation_direction(self):
        """The full model's mean RMSE beats both single-path ablations."""
        means = {v: np.mean([fd001_report("standard", v, s).rmse
                             for s in (1, 2, 3)])
                 for v in ("full", "oT", "oS")}
        assert means["full"] <= means["oT"]
        assert means["full"] <= means["oS"]
