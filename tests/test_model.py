"""Mixer model: blocks, layers, variants, the parameter table, batched
forward, checkpoints."""

import json
import math
import re
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import finite_diff_grads, max_rel_err, mlp_block_forward
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualmixer import model as dm
from dualmixer import numerics as nx
from dualmixer.numerics import Tensor


def toy_config(l=6, m_vars=3, d=4, n_layers=2, seed=7):
    return dm.ModelConfig(l=l, m_vars=m_vars, d=d, n_layers=n_layers, seed=seed)


class TestMlpBlock:

    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(0)
        p = {"mlp.w1": rng.normal(size=(14, 64)), "mlp.w2": rng.normal(size=(64, 32))}
        out = mlp_block_forward(p, Tensor(np.zeros((30, 14))))
        np.testing.assert_array_equal(out.data, np.zeros((30, 32)))

    def test_output_and_hidden_shapes(self):
        """14 -> 32 with the hidden width exactly doubled."""
        rng = np.random.default_rng(1)
        p = {"mlp.w1": rng.normal(size=(14, 64)), "mlp.w2": rng.normal(size=(64, 32))}
        x = rng.normal(size=(30, 14))
        assert mlp_block_forward(p, Tensor(x)).shape == (30, 32)
        assert (x @ p["mlp.w1"]).shape == (30, 64)

    def test_row_permutation_equivariance(self):
        """No per-row parameters: permuting input rows permutes output rows."""
        rng = np.random.default_rng(2)
        p = {"mlp.w1": rng.normal(size=(5, 8)), "mlp.w2": rng.normal(size=(8, 4))}
        x = rng.normal(size=(7, 5))
        perm = rng.permutation(7)
        out = mlp_block_forward(p, Tensor(x)).data
        out_perm = mlp_block_forward(p, Tensor(x[perm])).data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_duplicated_row_duplicates_output_row(self):
        rng = np.random.default_rng(3)
        p = {"mlp.w1": rng.normal(size=(4, 6)), "mlp.w2": rng.normal(size=(6, 3))}
        x = rng.normal(size=(5, 4))
        x[3] = x[1]
        out = mlp_block_forward(p, Tensor(x)).data
        np.testing.assert_array_equal(out[3], out[1])


class TestGateBlock:

    def test_zero_input_gives_zero_output(self):
        p = {"gate.wg": np.random.default_rng(4).normal(size=(6, 6))}
        out = dm.gate_forward(p, Tensor(np.zeros((3, 6))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 6)))

    def test_magnitude_never_exceeds_input(self):
        rng = np.random.default_rng(5)
        p = {"gate.wg": rng.normal(size=(8, 8)) * 3.0}
        x = rng.normal(size=(10, 8))
        out = dm.gate_forward(p, Tensor(x)).data
        assert np.all(np.abs(out) <= np.abs(x))

    def test_zero_weight_passes_half(self):
        """Wg = 0 gives a flat 0.5 mask."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))
        out = dm.gate_forward({"gate.wg": np.zeros((5, 5))}, Tensor(x)).data
        np.testing.assert_allclose(out, x / 2.0, atol=1e-15)


class TestDmlLayer:

    def test_shape_contract_round_trip(self):
        """(30x32, 32x30) in -> (30x32, 32x30) out."""
        p = dm.make_variant(dm.ModelConfig(l=30, m_vars=14, d=32, n_layers=1, seed=0), "full")
        rng = np.random.default_rng(8)
        out_t, out_s = dm.dml_forward(p.arrays, Tensor(rng.normal(size=(30, 32))),
                                      Tensor(rng.normal(size=(32, 30))))
        assert out_t.shape == (30, 32)
        assert out_s.shape == (32, 30)

    def test_without_cross_gates_layer_stops_at_first_norm(self):
        """A gate-free layer returns the two residual stages untouched."""
        arrays = dm.make_variant(toy_config(n_layers=1), "oCm").arrays
        assert "layer0.g1.wg" not in arrays
        rng = np.random.default_rng(9)
        x_t = rng.normal(size=(6, 4))
        x_s = rng.normal(size=(4, 6))
        out_t, out_s = dm.dml_forward(arrays, Tensor(x_t), Tensor(x_s))
        want_t = nx.layer_norm(
            nx.add(mlp_block_forward(arrays, Tensor(x_t), scope="layer0.m1"), Tensor(x_t)),
            Tensor(arrays["layer0.ln_t1.gain"]), Tensor(arrays["layer0.ln_t1.bias"]))
        want_s = nx.layer_norm(
            nx.add(mlp_block_forward(arrays, Tensor(x_s), scope="layer0.m2"), Tensor(x_s)),
            Tensor(arrays["layer0.ln_s1.gain"]), Tensor(arrays["layer0.ln_s1.bias"]))
        np.testing.assert_array_equal(out_t.data, want_t.data)
        np.testing.assert_array_equal(out_s.data, want_s.data)

    def test_layer_gradients_match_finite_differences(self):
        """Every parameter of one full layer, checked against central differences."""
        p = dm.make_variant(dm.ModelConfig(l=5, m_vars=2, d=3, n_layers=1, seed=10), "full")
        arrays = {k: v for k, v in p.arrays.items() if k.startswith("layer0")}
        rng = np.random.default_rng(11)
        x_t = rng.normal(size=(5, 3))
        x_s = rng.normal(size=(3, 5))
        c_t = rng.normal(size=(5, 3))
        c_s = rng.normal(size=(3, 5))

        def run(graph):
            out_t, out_s = dm.dml_forward(p.arrays, Tensor(x_t), Tensor(x_s),
                                          graph, "layer0")
            read_t = nx.sum_all(nx.hadamard(out_t, Tensor(c_t)))
            read_s = nx.sum_all(nx.hadamard(out_s, Tensor(c_s)))
            return nx.add(read_t, read_s)

        g = nx.Graph()
        got = g.backward(run(g))
        want = finite_diff_grads(lambda: run(nx.Graph()).item(), arrays)
        assert max_rel_err(got, want) < 1e-4

    def test_full_layer_records_twenty_two_op_nodes(self):
        """Per path a residual block (matmul, gelu, matmul, add, layer_norm)
        and a cross gate (matmul, sigmoid, hadamard); two block transposes;
        two merges (add, layer_norm)."""
        p = dm.make_variant(toy_config(n_layers=1), "full")
        g = nx.Graph()
        x_t = Tensor(np.random.default_rng(4).normal(size=(12, 4)))
        dm.dml_forward(p.arrays, x_t, nx.block_transpose(x_t, 2), g, "layer0")
        ops = Counter(n.op for n in g.nodes if n.op != "param")
        assert ops == {"matmul": 6, "gelu": 2, "add": 4, "layer_norm": 4,
                       "sigmoid": 2, "hadamard": 2, "block_transpose": 2}
        assert sum(ops.values()) == 22

    def test_misspelt_name_fails_loudly(self):
        """A weight is read by name, so a wrong scope cannot go untrained."""
        arrays = dm.make_variant(toy_config(n_layers=1), "full").arrays
        with pytest.raises(KeyError, match="layer3.m1.w1"):
            dm.dml_forward(arrays, Tensor(np.zeros((6, 4))), Tensor(np.zeros((4, 6))),
                           nx.Graph(), "layer3")


class TestModelForward:

    def test_paper_scale_shapes(self):
        """One 30x14 window with d=32, N=6 gives one 30*32 feature row and a scalar."""
        p = dm.make_variant(dm.ModelConfig(l=30, m_vars=14, d=32, n_layers=6, seed=0), "full")
        x = np.random.default_rng(12).normal(size=(30, 14))
        features, rul = dm.forward_batch(p, [x])
        assert features.shape == (1, 30 * 32)
        assert rul.shape == (1, 1)
        assert np.isfinite(rul.item())

    def test_input_shape_enforced(self):
        """A window of the wrong shape, alone or among good ones, is refused."""
        p = dm.make_variant(toy_config(), "full")
        with pytest.raises(nx.ShapeError):
            dm.forward_batch(p, [np.zeros((5, 3))])
        with pytest.raises(nx.ShapeError):
            dm.forward_batch(p, np.zeros((2, 6, 4)))
        with pytest.raises(nx.ShapeError):
            dm.forward_batch(p, [np.zeros((6, 3)), np.zeros((5, 3))])

    def test_all_zero_head_weights_give_zero_rul(self):
        p = dm.make_variant(toy_config(), "full")
        for arr in p.arrays.values():
            arr[...] = 0.0
        x = np.random.default_rng(13).normal(size=(6, 3))
        _, rul = dm.forward_batch(p, [x])
        assert rul.item() == 0.0

    def test_deterministic_init_and_forward(self):
        cfg = toy_config(seed=21)
        x = np.random.default_rng(14).normal(size=(6, 3))
        a = dm.make_variant(cfg, "full")
        b = dm.make_variant(cfg, "full")
        for (ka, va), (kb, vb) in zip(a.arrays.items(), b.arrays.items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)
        fa, ra = dm.forward_batch(a, [x])
        fb, rb = dm.forward_batch(b, [x])
        np.testing.assert_array_equal(fa.data, fb.data)
        assert ra.item() == rb.item()

    def test_full_model_gradients_match_finite_differences(self):
        """d(rul)/d(theta) for every parameter group on a 10x4 window, d=8, N=2."""
        p = dm.make_variant(dm.ModelConfig(l=10, m_vars=4, d=8, n_layers=2, seed=15), "full")
        arrays = p.arrays
        x = np.random.default_rng(16).normal(size=(10, 4))

        def run():
            _, rul = dm.forward_batch(p, [x], nx.Graph())
            return rul.item()

        g = nx.Graph()
        _, rul = dm.forward_batch(p, [x], g)
        got = g.backward(rul)
        want = finite_diff_grads(run, arrays)
        assert max_rel_err(got, want) < 1e-4


class TestBatchedForward:

    @pytest.mark.parametrize("variant", dm.VARIANTS)
    def test_stacked_batch_matches_per_sample(self, variant):
        """A batch of windows reproduces per-sample outputs, row for row."""
        cfg = toy_config(l=5, m_vars=3, d=4, n_layers=2, seed=17)
        p = dm.make_variant(cfg, variant)
        rng = np.random.default_rng(18)
        windows = [rng.normal(size=(5, 3)) for _ in range(4)]
        feats, ruls = dm.forward_batch(p, windows)
        for i, w in enumerate(windows):
            f_i, r_i = dm.forward_batch(p, [w])
            np.testing.assert_allclose(feats.data[i:i + 1], f_i.data,
                                       rtol=1e-12, atol=1e-12)
            assert abs(ruls.data[i, 0] - r_i.item()) < 1e-12

    def test_batch_shape_enforced(self):
        """The input is a non-empty 3-D stack of windows, not the
        (n*l) x m_vars rows the model stacks them into."""
        p = dm.make_variant(toy_config(), "full")
        for bad in (np.zeros((12, 3)), [], np.zeros((0, 6, 3))):
            with pytest.raises(nx.ShapeError):
                dm.forward_batch(p, bad)


class TestTapeBudget:

    def test_a_reference_shape_tape_holds_at_most_900_kib_per_window(self):
        """A forward of 8 windows at w30 d32 N6 (full) on a graph holds
        what the backward will read: at most 900 KiB per window, as traced
        by tracemalloc while the tape is alive (865 KiB when gelu keeps
        only its derivative, 1,045 KiB when it kept its input and CDF)."""
        p = dm.make_variant(toy_config(l=30, m_vars=14, d=32, n_layers=6), "full")
        windows = np.random.default_rng(19).uniform(size=(8, 30, 14))
        tracemalloc.start()
        try:
            graph = nx.Graph()
            taped = dm.forward_batch(p, windows, graph)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(graph.nodes) > 200 and taped[1].shape == (8, 1)
        assert held / 8 <= 900 * 1024


def kill_gates(monkeypatch, dead):
    """Replace dm.gate_forward so that gates whose scope satisfies ``dead``
    get their pre-activation shifted by -1e4, which drives the sigmoid mask
    to exact 0; the other gates run unchanged."""
    real = dm.gate_forward

    def gate(arrays, x, graph=None, scope="gate"):
        if not dead(scope):
            return real(arrays, x, graph, scope)
        pre = nx.matmul(x, Tensor(arrays[f"{scope}.wg"]))
        pre = nx.add(pre, Tensor(np.full(pre.shape, -1e4)))
        return nx.hadamard(nx.sigmoid(pre), x)

    monkeypatch.setattr(dm, "gate_forward", gate)


class TestVariants:

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            dm.make_variant(toy_config(), "oX")

    def test_full_has_strictly_most_parameters(self):
        cfg = toy_config()
        full = dm.count_params(dm.make_variant(cfg, "full"))
        for variant in ("oCm", "oCO", "oO", "oT", "oS"):
            assert dm.count_params(dm.make_variant(cfg, variant)) < full

    def test_single_path_variants_drop_the_other_path(self):
        cfg = toy_config()
        names_t = set(dm.make_variant(cfg, "oT").arrays)
        assert not any(".m2." in n or ".ln_s" in n or "g_out_s" in n for n in names_t)
        names_s = set(dm.make_variant(cfg, "oS").arrays)
        assert not any(".m1." in n or ".ln_t" in n or "g_out_t" in n for n in names_s)

    def test_plain_sum_merge_without_output_gates(self):
        """oO merges the two final path features by unweighted addition."""
        cfg = toy_config(n_layers=2)
        p = dm.make_variant(cfg, "oO")
        rng = np.random.default_rng(19)
        x = rng.normal(size=(6, 3))
        merged, _ = dm.forward_batch(p, [x])
        merged = merged.data.reshape(cfg.l, cfg.d)
        x_t = nx.matmul(Tensor(x), Tensor(p.arrays["w_in"]))
        x_s = nx.transpose(x_t)
        for i in range(cfg.n_layers):
            x_t, x_s = dm.dml_forward(p.arrays, x_t, x_s, scope=f"layer{i}")
        want = x_t.data + x_s.data.T
        np.testing.assert_allclose(merged, want, atol=1e-12)

    def test_dead_cross_gates_approach_the_gateless_variant(self, monkeypatch):
        """Forcing the exchange masks to ~0 reduces a full model to its
        cross-free counterpart up to re-normalization noise."""
        cfg = toy_config(l=6, m_vars=3, d=4, n_layers=2, seed=20)
        full = dm.make_variant(cfg, "full")
        kill_gates(monkeypatch, lambda scope: not scope.startswith("g_out"))
        stripped = dm.DualMixerParams(cfg, "oCm", {name: full.arrays[name]
                                                   for name, _, _ in dm.layout(cfg, "oCm")})
        x = np.random.default_rng(21).normal(size=(6, 3))
        f_full, r_full = dm.forward_batch(full, [x])
        f_strip, r_strip = dm.forward_batch(stripped, [x])
        np.testing.assert_allclose(f_full.data, f_strip.data, atol=1e-2)
        assert abs(r_full.item() - r_strip.item()) < 1e-2

    def test_all_gates_dead_zeroes_the_merge(self, monkeypatch):
        """With output gates also forced to 0 the merged feature is exactly 0."""
        full = dm.make_variant(toy_config(seed=22), "full")
        kill_gates(monkeypatch, lambda scope: True)
        x = np.random.default_rng(23).normal(size=(6, 3))
        merged, rul = dm.forward_batch(full, [x])
        np.testing.assert_array_equal(merged.data, np.zeros((1, 6 * 4)))
        assert rul.item() == 0.0


class TestCheckpoints:

    def test_round_trip_is_bit_exact(self, tmp_path):
        for variant in ("full", "oT"):
            p = dm.make_variant(toy_config(seed=24), variant)
            path = str(tmp_path / f"model_{variant}.ckpt")
            dm.save_checkpoint(path, p)
            q = dm.load_checkpoint(path)
            assert q.variant == variant
            assert q.config == p.config
            for (ka, va), (kb, vb) in zip(p.arrays.items(),
                                          q.arrays.items()):
                assert ka == kb
                np.testing.assert_array_equal(va, vb)

    def test_loaded_model_predicts_identically(self, tmp_path):
        p = dm.make_variant(toy_config(seed=25), "full")
        path = str(tmp_path / "model.ckpt")
        dm.save_checkpoint(path, p)
        q = dm.load_checkpoint(path)
        x = np.random.default_rng(26).normal(size=(6, 3))
        _, rul_p = dm.forward_batch(p, [x])
        _, rul_q = dm.forward_batch(q, [x])
        assert rul_p.item() == rul_q.item()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            dm.load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        p = dm.make_variant(toy_config(seed=27), "full")
        path = tmp_path / "model.ckpt"
        dm.save_checkpoint(str(path), p)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(ValueError):
            dm.load_checkpoint(str(path))

    def saved_blob(self, tmp_path, seed=28):
        path = tmp_path / "model.ckpt"
        dm.save_checkpoint(str(path), dm.make_variant(toy_config(seed=seed), "full"))
        return path, path.read_bytes()

    def test_six_byte_file_rejected(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        path.write_bytes(blob[:6])
        with pytest.raises(ValueError, match="truncated"):
            dm.load_checkpoint(str(path))

    def test_header_cut_mid_json_rejected(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        (hlen,) = struct.unpack_from("<I", blob, 8)
        path.write_bytes(blob[:12 + hlen // 2])
        with pytest.raises(ValueError, match="truncated"):
            dm.load_checkpoint(str(path))
        # the same cut with a header length that fits the file is malformed
        path.write_bytes(blob[:8] + struct.pack("<I", hlen // 2) + blob[12:12 + hlen // 2])
        with pytest.raises(ValueError, match="malformed"):
            dm.load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            dm.load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        """A NaN or infinite weight is refused, naming the file and the array."""
        p = dm.make_variant(toy_config(seed=29), "full")
        p.arrays["w_r"][0, 0] = value
        path = str(tmp_path / "model.ckpt")
        dm.save_checkpoint(path, p)
        with pytest.raises(ValueError, match="non-finite values in array w_r") as exc:
            dm.load_checkpoint(path)
        assert str(exc.value).startswith(path)


# --------------------------------------------------------------------------
# the parameter table against a hand-written reference, and the loader fed
# arbitrary bytes
# --------------------------------------------------------------------------

def reference_arrays(config, variant):
    """Each variant's arrays written out piece by piece, as the model built
    them before the layout table: the pieces a variant keeps, their names
    and shapes, and one generator drawn in checkpoint order."""
    temporal = variant != "oS"
    spatial = variant != "oT"
    cross = variant in ("full", "oO")
    out_gates = variant in ("full", "oCm", "oT", "oS")
    l, d = config.l, config.d
    rng = np.random.default_rng(config.seed)
    out = {}

    def linear(name, fan_in, fan_out):
        a = math.sqrt(1.0 / fan_in)
        out[name] = rng.uniform(-a, a, size=(fan_in, fan_out))

    def norm(name, width):
        out[f"{name}.gain"] = np.ones((1, width))
        out[f"{name}.bias"] = np.zeros((1, width))

    linear("w_in", config.m_vars, d)
    for i in range(config.n_layers):
        if temporal:
            linear(f"layer{i}.m1.w1", d, 2 * d)
            linear(f"layer{i}.m1.w2", 2 * d, d)
            norm(f"layer{i}.ln_t1", d)
        if spatial:
            linear(f"layer{i}.m2.w1", l, 2 * l)
            linear(f"layer{i}.m2.w2", 2 * l, l)
            norm(f"layer{i}.ln_s1", l)
        if cross:
            linear(f"layer{i}.g1.wg", d, d)
            linear(f"layer{i}.g2.wg", l, l)
            norm(f"layer{i}.ln_t2", d)
            norm(f"layer{i}.ln_s2", l)
    if out_gates and temporal:
        linear("g_out_t.wg", d, d)
    if out_gates and spatial:
        linear("g_out_s.wg", d, d)
    linear("w_r", l * d, 1)
    return out


def reference_checkpoint(config, variant, arrays):
    """The DMIX byte layout, encoded from its description in model.py."""
    header = json.dumps({
        "l": config.l, "m_vars": config.m_vars, "d": config.d,
        "n_layers": config.n_layers, "seed": config.seed, "variant": variant,
        "arrays": [[name, a.shape[0], a.shape[1]] for name, a in arrays.items()],
    }).encode("utf-8")
    return (b"DMIX" + struct.pack("<II", 1, len(header)) + header
            + b"".join(a.astype("<f8").tobytes() for a in arrays.values()))


def loads_or_value_error(path):
    """Load a checkpoint; any exception other than ValueError escapes."""
    try:
        dm.load_checkpoint(str(path))
    except ValueError:
        pass


configs = st.builds(dm.ModelConfig, l=st.integers(1, 6), m_vars=st.integers(1, 4),
                    d=st.integers(1, 5), n_layers=st.integers(1, 3),
                    seed=st.integers(0, 2**32 - 1))
# the tests below rewrite one file per example, so a shared tmp_path is fine
loader_settings = settings(deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])
SMALL = dm.ModelConfig(l=3, m_vars=2, d=2, n_layers=1, seed=5)


class TestParameterTable:

    @loader_settings
    @given(config=configs, variant=st.sampled_from(dm.VARIANTS))
    def test_matches_reference_and_round_trips(self, tmp_path, config, variant):
        """Names, order, shapes and initial values match the hand-written
        reference; the saved bytes equal its encoding; loading is exact."""
        p = dm.make_variant(config, variant)
        want = reference_arrays(config, variant)
        assert list(p.arrays) == list(want)
        assert dm.layout(config, variant) == [(n, *a.shape) for n, a in want.items()]
        for name, arr in want.items():
            np.testing.assert_array_equal(p.arrays[name], arr)
        path = tmp_path / "model.ckpt"
        dm.save_checkpoint(str(path), p)
        assert path.read_bytes() == reference_checkpoint(config, variant, want)
        q = dm.load_checkpoint(str(path))
        assert (q.config, q.variant, list(q.arrays)) == (config, variant, list(want))
        for name, arr in want.items():
            assert q.arrays[name].dtype == np.float64 and q.arrays[name].flags.writeable
            np.testing.assert_array_equal(q.arrays[name], arr)

    @loader_settings
    @given(data=st.data())
    def test_any_truncation_rejected(self, tmp_path, data):
        blob = reference_checkpoint(SMALL, "full", reference_arrays(SMALL, "full"))
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            dm.load_checkpoint(str(path))

    @loader_settings
    @given(data=st.data())
    def test_header_byte_change_raises_only_value_error(self, tmp_path, data):
        """A changed version, length or JSON byte either still loads or is
        rejected with ValueError."""
        blob = bytearray(reference_checkpoint(SMALL, "oCm", reference_arrays(SMALL, "oCm")))
        (hlen,) = struct.unpack_from("<I", blob, 8)
        pos = data.draw(st.integers(4, 12 + hlen - 1))
        blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(blob))
        loads_or_value_error(path)

    @loader_settings
    @given(tail=st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda b: struct.pack("<II", 1, len(b)) + b),
        st.text(max_size=256).map(lambda t: t.encode("utf-8")).map(
            lambda b: struct.pack("<II", 1, len(b)) + b)))
    def test_arbitrary_bytes_after_magic_raise_only_value_error(self, tmp_path, tail):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"DMIX" + tail)
        loads_or_value_error(path)

    def with_header(self, tmp_path, edit):
        """A valid checkpoint whose JSON header ``edit`` changed in place."""
        blob = reference_checkpoint(SMALL, "full", reference_arrays(SMALL, "full"))
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + hlen])
        edit(header)
        body = json.dumps(header).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"DMIX" + struct.pack("<II", 1, len(body)) + body + blob[12 + hlen:])
        return str(path)

    @pytest.mark.parametrize("field,value", [
        ("n_layers", 10**12), ("l", 3.0), ("d", "2"), ("seed", -1),
    ])
    def test_bad_shape_field_rejected(self, tmp_path, field, value):
        """A corrupt shape field is refused; a huge layer count before the
        layout is walked."""
        path = self.with_header(tmp_path, lambda header: header.update({field: value}))
        with pytest.raises(ValueError, match="malformed"):
            dm.load_checkpoint(path)

    def test_unknown_header_key_rejected(self, tmp_path):
        """The header holds ModelConfig's fields, the variant and the array
        list, and nothing else; an extra key is named, not ignored."""
        path = self.with_header(tmp_path, lambda header: header.update({"banana": 1}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed checkpoint header: ") + ".*unknown fields \\['banana'\\]"):
            dm.load_checkpoint(path)

    @pytest.mark.parametrize("header", [[], "DMIX", 7, None])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, header):
        """A header holding another JSON value is malformed, not a crash."""
        body = json.dumps(header).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"DMIX" + struct.pack("<II", 1, len(body)) + body)
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            dm.load_checkpoint(str(path))

    @pytest.mark.parametrize("slot,value", [
        (1, 2.9), (1, "2"), (2, 2.0), (2, True), (0, 7), (3, 1),
    ])
    def test_bad_array_entry_rejected(self, tmp_path, slot, value):
        """Array entries are [name, rows, cols] with a string name and JSON
        integer sizes: a fractional, quoted, float or bool size, a
        non-string name or a fourth field is refused, not coerced."""
        def edit(header):
            entry = header["arrays"][0]
            entry[slot:slot + 1] = [value]
        path = self.with_header(tmp_path, edit)
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            dm.load_checkpoint(path)

    def test_array_of_the_right_name_and_a_wrong_shape_rejected(self, tmp_path):
        """The header lists w_r where the layout has it, as 6 x 2 instead of
        6 x 1: the error names the file and the array."""
        def edit(header):
            header["arrays"][-1][2] = 2
        path = self.with_header(tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(f"{path}: shape mismatch for w_r")):
            dm.load_checkpoint(path)
