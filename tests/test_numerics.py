"""Tensor, tape, primitive ops, and Adam."""

import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from conftest import finite_diff_grads, max_rel_err, run_python

from dualmixer import numerics as nx


def taped_loss(build):
    """Run build(graph) -> scalar Tensor on a fresh graph, return (graph, loss)."""
    g = nx.Graph()
    return g, build(g)


class TestTensorBasics:

    def test_rejects_non_2d(self):
        """Tensors, parameters included, are strictly rank-2."""
        with pytest.raises(ValueError, match=r"tensors are 2-D, got shape \(3,\)"):
            nx.Tensor(np.zeros(3))
        with pytest.raises(ValueError, match=r"tensors are 2-D, got shape \(2, 2, 2\)"):
            nx.Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"parameter 'w' must be 2-D, got \(3,\)"):
            nx.Graph().parameter("w", np.zeros(3))

    def test_item_requires_scalar(self):
        assert nx.Tensor([[4.0]]).item() == 4.0
        with pytest.raises(ValueError, match=r"item\(\) needs a 1x1 tensor, got \(2, 1\)"):
            nx.Tensor(np.zeros((2, 1))).item()

    def test_plain_ops_stay_untaped(self):
        """Ops on graph-less tensors evaluate eagerly with no tape."""
        out = nx.matmul(nx.Tensor(np.eye(3)), nx.Tensor(np.arange(9.0).reshape(3, 3)))
        assert out.graph is None
        np.testing.assert_array_equal(out.data, np.arange(9.0).reshape(3, 3))


class TestForwardValues:

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        out = nx.matmul(nx.Tensor(a), nx.Tensor(np.eye(6)))
        np.testing.assert_allclose(out.data, a, rtol=0, atol=0)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"matmul inner dimensions disagree: \(2, 3\) @ \(4, 2\)"):
            nx.matmul(nx.Tensor(np.zeros((2, 3))), nx.Tensor(np.zeros((4, 2))))

    def test_transpose_involution(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 5))
        out = nx.transpose(nx.transpose(nx.Tensor(a)))
        np.testing.assert_array_equal(out.data, a)

    def test_block_transpose_matches_per_block_loop(self):
        rng = np.random.default_rng(2)
        blocks, r, c = 3, 4, 5
        a = rng.normal(size=(blocks * r, c))
        out = nx.block_transpose(nx.Tensor(a), blocks).data
        for i in range(blocks):
            np.testing.assert_array_equal(out[i * c:(i + 1) * c], a[i * r:(i + 1) * r].T)

    def test_block_transpose_single_block_is_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 7))
        np.testing.assert_array_equal(
            nx.block_transpose(nx.Tensor(a), 1).data, a.T)

    def test_block_transpose_divisibility(self):
        with pytest.raises(ValueError, match="block_transpose: 5 rows not divisible by 2 blocks"):
            nx.block_transpose(nx.Tensor(np.zeros((5, 2))), 2)

    def test_elementwise_shapes_enforced(self):
        a, b = nx.Tensor(np.zeros((2, 3))), nx.Tensor(np.zeros((3, 2)))
        for op in (nx.add, nx.sub, nx.hadamard):
            with pytest.raises(ValueError, match=rf"^{op.__name__} needs identical shapes, "
                                                 r"got \(2, 3\) and \(3, 2\)"):
                op(a, b)

    def test_sum_all_and_scale(self):
        a = nx.Tensor(np.arange(6.0).reshape(2, 3))
        assert nx.sum_all(a).item() == 15.0
        np.testing.assert_array_equal(nx.scale(a, -2.0).data, -2.0 * a.data)

    def test_reshape_preserves_row_major_order(self):
        a = np.arange(12.0).reshape(3, 4)
        out = nx.reshape(nx.Tensor(a), 1, 12)
        np.testing.assert_array_equal(out.data[0], np.arange(12.0))
        with pytest.raises(ValueError, match=r"reshape \(3, 4\) -> \(5, 2\) changes size"):
            nx.reshape(nx.Tensor(a), 5, 2)

    def test_rows_slice(self):
        a = np.arange(12.0).reshape(4, 3)
        out = nx.rows_slice(nx.Tensor(a), 1, 3)
        np.testing.assert_array_equal(out.data, a[1:3])
        with pytest.raises(ValueError, match=r"rows_slice \[3, 3\) out of range for 4 rows"):
            nx.rows_slice(nx.Tensor(a), 3, 3)


class TestNonlinearities:

    def test_gelu_anchor_points(self):
        """GeLU vanishes at 0 and approaches the identity for large inputs."""
        x = nx.Tensor(np.array([[0.0, 10.0, -10.0]]))
        out = nx.gelu(x).data[0]
        assert out[0] == 0.0
        assert 9.999 <= out[1] <= 10.0
        assert abs(out[2]) < 1e-6

    def test_gelu_against_erf_formula(self):
        from scipy.special import erf
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4)) * 2.0
        want = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(nx.gelu(nx.Tensor(x)).data, want, atol=1e-15)

    def test_gelu_backward_keeps_no_reference_to_its_input(self):
        """On a tape the rule keeps only the derivative: once the input
        tensor is dropped, nothing holds its array. The output matches the
        off-tape forward bit for bit."""
        x = np.random.default_rng(5).normal(size=(3, 4))
        g = nx.Graph()
        a = nx.scale(g.parameter("x", x), 1.0)
        alive = weakref.ref(a.data)
        out = nx.gelu(a)
        del a
        assert alive() is None
        np.testing.assert_array_equal(out.data, nx.gelu(nx.Tensor(x)).data)
        assert len(g.nodes) == 3

    def test_sigmoid_symmetry(self):
        """sigmoid(x) + sigmoid(-x) == 1 to within 1e-12, large |x| included."""
        x = np.array([[0.0, 0.5, -3.0, 40.0, -40.0, 700.0, -700.0]])
        s_pos = nx.sigmoid(nx.Tensor(x)).data
        s_neg = nx.sigmoid(nx.Tensor(-x)).data
        np.testing.assert_allclose(s_pos + s_neg, 1.0, rtol=0, atol=1e-12)

    def test_sigmoid_saturates_exactly(self):
        """No overflow at extreme arguments; saturation is exact."""
        out = nx.sigmoid(nx.Tensor(np.array([[-1e4, 1e4, 0.0]]))).data[0]
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert out[2] == 0.5

    def test_sigmoid_within_machine_epsilon_of_expit(self):
        """The bound the sigmoid's comment states, through both saturations."""
        from scipy.special import expit
        x = np.concatenate([np.linspace(-750.0, 750.0, 30001),
                            [-709.8, 709.8, -37.5, 37.5, -1e4, 1e4]])
        out = nx.sigmoid(nx.Tensor(x[None, :])).data[0]
        assert np.abs(out - expit(x)).max() <= np.finfo(float).eps

    def test_layer_norm_constant_row_maps_to_bias(self):
        gain = nx.Tensor(np.full((1, 4), 2.0))
        bias = nx.Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        out = nx.layer_norm(nx.Tensor(np.full((2, 4), 7.0)), gain, bias)
        np.testing.assert_allclose(out.data, np.tile(bias.data, (2, 1)), atol=1e-12)

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(5, 64))
        ones = nx.Tensor(np.ones((1, 64)))
        zeros = nx.Tensor(np.zeros((1, 64)))
        out = nx.layer_norm(nx.Tensor(x), ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-4)

    def test_layer_norm_shape_checks(self):
        x = nx.Tensor(np.zeros((2, 4)))
        ok_gain, ok_bias = np.ones((1, 4)), np.zeros((1, 4))
        for gain, bias, cause in (
                (np.ones((1, 3)), ok_bias, r"gain must be 1x4, got \(1, 3\)"),
                (np.ones((2, 4)), ok_bias, r"gain must be 1x4, got \(2, 4\)"),
                (ok_gain, np.zeros((1, 5)), r"bias must be 1x4, got \(1, 5\)")):
            with pytest.raises(ValueError, match=f"layer_norm {cause}"):
                nx.layer_norm(x, nx.Tensor(gain), nx.Tensor(bias))


class TestCosineSimilarity:

    def test_parallel_and_antiparallel(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(2, 5))
        s_same = nx.cosine_similarity(nx.Tensor(u), nx.Tensor(u.copy())).item()
        s_flip = nx.cosine_similarity(nx.Tensor(u), nx.Tensor(-u)).item()
        assert abs(s_same - 1.0) < 1e-12
        assert abs(s_flip + 1.0) < 1e-12

    def test_orthogonal_and_scale_invariance(self):
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert abs(nx.cosine_similarity(nx.Tensor(u), nx.Tensor(v)).item()) < 1e-12
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        s1 = nx.cosine_similarity(nx.Tensor(a), nx.Tensor(b)).item()
        s2 = nx.cosine_similarity(nx.Tensor(5.0 * a), nx.Tensor(0.25 * b)).item()
        assert abs(s1 - s2) < 1e-12

    def test_flattening_is_row_major(self):
        """Matrices compare via their row-major flattenings, so shapes may differ."""
        u = np.arange(6.0).reshape(2, 3) + 1.0
        v = np.arange(6.0).reshape(3, 2) + 1.0
        assert abs(nx.cosine_similarity(nx.Tensor(u), nx.Tensor(v)).item() - 1.0) < 1e-12

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError, match="cosine_similarity of a zero-norm vector"):
            nx.cosine_similarity(nx.Tensor(np.zeros((1, 3))), nx.Tensor(np.ones((1, 3))))


class TestLogSumExp:

    def test_matches_numpy_on_moderate_scores(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=10)
        terms = [nx.Tensor([[s]]) for s in scores]
        want = float(np.log(np.sum(np.exp(scores))))
        assert abs(nx.logsumexp(terms).item() - want) < 1e-12

    def test_no_overflow_at_large_scores(self):
        terms = [nx.Tensor([[1e4]]), nx.Tensor([[1e4 - 2.0]])]
        got = nx.logsumexp(terms).item()
        assert np.isfinite(got)
        assert abs(got - (1e4 + np.log(1.0 + np.exp(-2.0)))) < 1e-9


class TestTape:

    def test_a_name_joins_a_graph_once(self):
        """A second registration of a name raises, with the same storage or
        other storage, and leaves the one leaf on the tape."""
        g = nx.Graph()
        w = np.ones((2, 2))
        assert g.parameter("w", w).data is w
        for again in (w, np.ones((2, 2))):
            with pytest.raises(nx.GraphError, match="'w'"):
                g.parameter("w", again)
        assert len(g.nodes) == 1

    def test_mixed_graphs_rejected(self):
        g1, g2 = nx.Graph(), nx.Graph()
        a = g1.parameter("a", np.ones((2, 2)))
        b = g2.parameter("b", np.ones((2, 2)))
        with pytest.raises(nx.GraphError):
            nx.add(a, b)

    def test_record_puts_one_node_on_the_operands_tape(self):
        """record finds the operands' graph, gives an off-tape operand the
        id -1, keeps a repeated operand twice, and leaves a result with no
        taped operand plain."""
        g = nx.Graph()
        w = g.parameter("w", np.ones((1, 2)))
        c = nx.Tensor(np.ones((1, 2)))

        def bwd(adj):
            return adj, adj, 2.0 * adj

        out = nx.record("probe", np.zeros((1, 2)), (c, w, w), bwd)
        assert out.graph is g and out.node_id == len(g.nodes) - 1
        assert (g.nodes[-1].op, g.nodes[-1].inputs) == ("probe", (-1, w.node_id, w.node_id))
        np.testing.assert_array_equal(g.backward(nx.sum_all(out))["w"], [[3.0, 3.0]])
        plain = nx.record("probe", np.zeros((1, 2)), (c, c), bwd)
        assert plain.graph is None and plain.node_id == -1
        other = nx.Graph().parameter("v", np.ones((1, 2)))
        before = len(g.nodes)
        with pytest.raises(nx.GraphError):
            nx.record("probe", np.zeros((1, 2)), (c, w, other), bwd)
        assert len(g.nodes) == before

    def test_backward_requires_scalar_on_graph(self):
        g = nx.Graph()
        a = g.parameter("a", np.ones((2, 2)))
        with pytest.raises(nx.GraphError):
            g.backward(a)
        with pytest.raises(nx.GraphError):
            g.backward(nx.Tensor([[1.0]]))

    def test_shared_parameter_accumulates(self):
        """A weight appearing twice in the expression gets summed gradients."""
        g = nx.Graph()
        w = g.parameter("w", np.array([[2.0]]))
        loss = nx.add(nx.hadamard(w, w), nx.scale(w, 3.0))  # w^2 + 3w
        grads = g.backward(nx.sum_all(loss))
        assert abs(grads["w"][0, 0] - (2.0 * 2.0 + 3.0)) < 1e-12

    def test_adjoint_is_dropped_once_its_rule_has_read_it(self):
        """x -> a -> b -> sum_all: by the time a's rule runs, the adjoint b
        received from sum_all is gone; the leaf x keeps its gradient."""
        g = nx.Graph()
        x = g.parameter("x", np.ones((2, 3)))
        seen = {}

        def b_rule(adj):
            seen["b"] = weakref.ref(adj)
            return (2.0 * adj,)

        def a_rule(adj):
            seen["b alive in a's rule"] = seen["b"]() is not None
            return (3.0 * adj,)

        a = nx.record("a", x.data.copy(), (x,), a_rule)
        b = nx.record("b", a.data.copy(), (a,), b_rule)
        grads = g.backward(nx.sum_all(b))
        assert seen["b alive in a's rule"] is False
        np.testing.assert_array_equal(grads["x"], np.full((2, 3), 6.0))

    def test_unreachable_parameter_gets_zero_grad(self):
        g = nx.Graph()
        w = g.parameter("w", np.array([[2.0]]))
        g.parameter("orphan", np.ones((3, 3)))
        grads = g.backward(nx.sum_all(w))
        np.testing.assert_array_equal(grads["orphan"], np.zeros((3, 3)))
        assert grads["w"][0, 0] == 1.0

    def test_constants_do_not_receive_grads(self):
        g = nx.Graph()
        w = g.parameter("w", np.array([[1.0, 2.0]]))
        c = nx.Tensor(np.array([[3.0], [4.0]]))
        grads = g.backward(nx.matmul(w, c))
        np.testing.assert_array_equal(grads["w"], np.array([[3.0, 4.0]]))

    def test_fanout_through_passthrough_ops(self):
        """Adjoints fanning out of add/sub must not alias each other."""
        g = nx.Graph()
        w = g.parameter("w", np.array([[1.0, -2.0]]))
        s = nx.add(w, w)            # both branches reuse the same adjoint array
        loss = nx.sum_all(nx.hadamard(s, s))
        grads = g.backward(loss)
        np.testing.assert_allclose(grads["w"], 8.0 * np.array([[1.0, -2.0]]), atol=1e-12)

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        runs = []
        for _ in range(2):
            g = nx.Graph()
            w = g.parameter("w", np.full((3, 2), 0.5))
            loss = nx.sum_all(nx.gelu(nx.matmul(nx.Tensor(x), w)))
            runs.append(g.backward(loss)["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_gradients_never_share_storage(self):
        """add hands one adjoint array to both inputs; each parameter must
        still get its own gradient array."""
        g = nx.Graph()
        arrays = {k: np.ones((2, 2)) for k in "abc"}
        a, b, _ = (g.parameter(k, v) for k, v in arrays.items())
        grads = g.backward(nx.sum_all(nx.add(a, b)))
        np.testing.assert_array_equal(grads["a"], np.ones((2, 2)))
        assert not np.shares_memory(grads["a"], grads["b"])
        assert not any(np.shares_memory(grads[k], arrays[k]) for k in arrays)

    def test_contributions_sum_in_sweep_order(self):
        """A parameter read by three ops gets their contributions summed in
        the order the sweep delivers them, the last op's first: bit for bit
        (0.3 + 0.2) + 0.1, which rounds apart from (0.1 + 0.2) + 0.3."""
        g = nx.Graph()
        w = g.parameter("w", np.ones((1, 1)))
        reads = [nx.scale(w, c) for c in (0.1, 0.2, 0.3)]
        grads = g.backward(nx.add(nx.add(reads[0], reads[1]), reads[2]))
        assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3
        assert grads["w"][0, 0] == (0.3 + 0.2) + 0.1

    @pytest.mark.parametrize("returned", [1, 3], ids=["fewer", "more"])
    def test_a_rule_that_miscounts_its_operands_raises(self, returned):
        """record's contract is one contribution per operand; a rule that
        returns fewer or more is tape misuse, a GraphError naming the op and
        both counts, not a refused input."""
        g = nx.Graph()
        a = g.parameter("a", np.ones((1, 1)))
        b = g.parameter("b", np.ones((1, 1)))
        out = nx.record("miscount", a.data + b.data, (a, b), lambda adj: (adj,) * returned)
        with pytest.raises(nx.GraphError,
                           match=f"^miscount rule returned {returned} contributions "
                                 "for 2 operands$"):
            g.backward(out)

    def test_backward_returns_fresh_gradients_each_call(self):
        """A graph keeps no gradients, so a second sweep does not accumulate."""
        g = nx.Graph()
        w = g.parameter("w", np.array([[2.0]]))
        loss = nx.sum_all(nx.hadamard(w, w))
        first = g.backward(loss)
        second = g.backward(loss)
        assert first is not second
        assert first["w"][0, 0] == second["w"][0, 0] == 4.0


class TestGradientsAgainstFiniteDifferences:
    """Each primitive's backward rule versus a central-difference oracle."""

    def check(self, params, build, tol=1e-5):
        g = nx.Graph()
        leaves = {k: g.parameter(k, v) for k, v in params.items()}
        loss = build(g, leaves)
        got = g.backward(loss)

        def replay():
            g2 = nx.Graph()
            l2 = {k: g2.parameter(k, v) for k, v in params.items()}
            return build(g2, l2).item()

        want = finite_diff_grads(replay, params)
        assert max_rel_err(got, want) < tol

    def test_matmul_chain(self):
        rng = np.random.default_rng(10)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        self.check(params, lambda g, p: nx.sum_all(nx.matmul(p["a"], p["b"])))

    def test_transpose_and_block_transpose(self):
        rng = np.random.default_rng(11)
        params = {"a": rng.normal(size=(6, 4))}
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.block_transpose(p["a"], 2),
                        nx.Tensor(np.random.default_rng(0).normal(size=(8, 3))))))
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.transpose(p["a"]),
                        nx.Tensor(np.random.default_rng(1).normal(size=(4, 6))))))

    def test_elementwise_and_scale(self):
        rng = np.random.default_rng(12)
        params = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.sub(nx.scale(p["a"], 1.7), p["b"]),
                        nx.add(p["a"], p["b"]))))

    def test_exp_log(self):
        rng = np.random.default_rng(13)
        params = {"a": rng.uniform(0.5, 2.0, size=(2, 3))}
        self.check(params, lambda g, p: nx.sum_all(nx.log(nx.exp(p["a"]))))
        self.check(params, lambda g, p: nx.sum_all(nx.exp(nx.scale(p["a"], 0.5))))

    def test_gelu(self):
        rng = np.random.default_rng(14)
        params = {"a": rng.normal(size=(3, 4)) * 2.0}
        self.check(params, lambda g, p: nx.sum_all(nx.gelu(p["a"])))

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        params = {"a": rng.normal(size=(3, 4)) * 3.0}
        self.check(params, lambda g, p: nx.sum_all(nx.sigmoid(p["a"])))

    def test_layer_norm_all_three_inputs(self):
        rng = np.random.default_rng(16)
        params = {
            "x": rng.normal(size=(3, 5)),
            "gain": rng.uniform(0.5, 1.5, size=(1, 5)),
            "bias": rng.normal(size=(1, 5)),
        }
        weights = np.random.default_rng(2).normal(size=(3, 5))
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.layer_norm(p["x"], p["gain"], p["bias"]),
                        nx.Tensor(weights))))

    def test_reshape_and_rows_slice(self):
        rng = np.random.default_rng(17)
        params = {"a": rng.normal(size=(4, 3))}
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.reshape(p["a"], 2, 6), nx.reshape(p["a"], 2, 6))))
        self.check(params, lambda g, p: nx.sum_all(
            nx.hadamard(nx.rows_slice(p["a"], 1, 3), nx.rows_slice(p["a"], 1, 3))))

    def test_cosine_similarity_both_sides(self):
        rng = np.random.default_rng(18)
        params = {"u": rng.normal(size=(2, 4)), "v": rng.normal(size=(2, 4))}
        self.check(params, lambda g, p: nx.cosine_similarity(p["u"], p["v"]))

    def test_logsumexp_is_softmax_gradient(self):
        rng = np.random.default_rng(19)
        params = {"s": rng.normal(size=(1, 6))}

        def build(g, p):
            terms = [nx.rows_slice(nx.transpose(p["s"]), k, k + 1) for k in range(6)]
            return nx.logsumexp(terms)

        self.check(params, build)


class TestAdam:

    def test_zero_gradient_is_a_no_op(self):
        state = nx.AdamState(lr=0.1)
        p = {"w": np.array([[1.0, -2.0]])}
        nx.adam_step(state, p, {"w": np.zeros((1, 2))})
        np.testing.assert_array_equal(p["w"], np.array([[1.0, -2.0]]))
        assert state.step_count == 1

    def test_first_step_has_learning_rate_magnitude(self):
        """Bias correction makes the first update ~lr * sign(grad)."""
        state = nx.AdamState(lr=0.01)
        p = {"w": np.array([[0.0]])}
        nx.adam_step(state, p, {"w": np.array([[0.5]])})
        assert abs(abs(p["w"][0, 0]) - 0.01) < 1e-6
        assert p["w"][0, 0] < 0.0

    def test_converges_on_quadratic(self):
        """200 steps on (w - 3)^2 land within 0.05 of the minimum."""
        state = nx.AdamState(lr=0.1)
        p = {"w": np.array([[0.0]])}
        for _ in range(200):
            nx.adam_step(state, p, {"w": 2.0 * (p["w"] - 3.0)})
        assert abs(p["w"][0, 0] - 3.0) < 0.05

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match=r"adam_step: grad \(1, 2\) vs param \(2, 2\) for 'w'"):
            nx.adam_step(nx.AdamState(), {"w": np.zeros((2, 2))}, {"w": np.zeros((1, 2))})


class TestDescend:
    """descend on sum((w - 3)^2) at w = (1, -2): loss 4 + 25 = 29, and the
    gradient of loss / 2 is w - 3 = (-2, -5)."""

    def quadratic(self, w):
        g = nx.Graph()
        diff = nx.sub(g.parameter("w", w), nx.Tensor(np.full(w.shape, 3.0)))
        return nx.sum_all(nx.hadamard(diff, diff))

    def test_returns_undivided_loss_and_takes_one_adam_step(self):
        params = {"w": np.array([[1.0, -2.0]])}
        state = nx.AdamState(lr=0.1)
        got = nx.descend(state, params, ["only"], 1,
                         lambda shard: (self.quadratic(params["w"]), shard), 2, "here")
        assert got == (29.0, [["only"]])
        assert state.step_count == 1
        # Adam's first step is lr * g / (|g| + eps): lr against the gradient's sign
        np.testing.assert_allclose(params["w"], [[1.1, -1.9]], rtol=0, atol=1e-8)

    def test_non_finite_loss_raises_before_the_update(self):
        params = {"w": np.array([[np.inf, -2.0]])}
        state = nx.AdamState(lr=0.1)
        with pytest.raises(ValueError, match="non-finite loss inf in batch 3"):
            nx.descend(state, params, [None], 1,
                       lambda _: (self.quadratic(params["w"]), None), 2, "batch 3")
        np.testing.assert_array_equal(params["w"], [[np.inf, -2.0]])
        assert state.step_count == 0 and not state.m

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_gradient_raises_before_the_update(self):
        """1e-300 * 1e200 * 1e200 = 1e100 is finite; its slope 1e400 is not."""
        params = {"w": np.array([[1e-300]])}
        g = nx.Graph()
        loss = nx.sum_all(nx.scale(nx.scale(g.parameter("w", params["w"]), 1e200), 1e200))
        state = nx.AdamState(lr=0.1)
        with pytest.raises(ValueError, match="non-finite gradient for 'w' in batch 3"):
            nx.descend(state, params, [None], 1, lambda _: (loss, None), 1, "batch 3")
        np.testing.assert_array_equal(params["w"], [[1e-300]])
        assert state.step_count == 0 and not state.m


class TestShardedDescend:
    """A batch's loss as a sum over shards of rows, each on its own graph,
    run on two lanes: the calling thread and one pool thread."""

    @staticmethod
    def rows_loss(params, meet=None):
        """sum over a shard's rows r of (x_r w)^2, w a 3 x 1 weight. With
        ``meet``, a threading.Barrier, each shard waits there for the
        other lane's, so both lanes must be running at once."""
        def loss_of(rows):
            g = nx.Graph()
            pred = nx.matmul(nx.Tensor(rows), g.parameter("w", params["w"]))
            if meet is not None:
                meet.wait(timeout=30)
            return nx.sum_all(nx.hadamard(pred, pred)), threading.current_thread()
        return loss_of

    def step(self, monkeypatch, x, parts, loss_of=None):
        """Loss, by-products and the gradients descend hands to Adam, with
        the batch forced into ``parts`` shards. The lanes meet shard by
        shard, so they meet only when they hold as many shards each."""
        params = {"w": np.array([[0.5], [-1.0], [2.0]])}
        seen = {}
        monkeypatch.setattr(nx, "adam_step", lambda state, p, grads: seen.update(grads))
        monkeypatch.setattr(nx, "shard_count", lambda activation: parts)
        meet = threading.Barrier(min(parts, 2)) if parts == 1 or parts % 2 == 0 else None
        value, aux = nx.descend(nx.AdamState(), params, x, 1,
                                loss_of or self.rows_loss(params, meet), len(x), "batch 0")
        return value, aux, seen

    def test_two_shards_match_one(self, monkeypatch):
        x = np.random.default_rng(0).normal(size=(37, 3))
        one, _, grads_one = self.step(monkeypatch, x, 1)
        two, _, grads_two = self.step(monkeypatch, x, 2)
        assert abs(two - one) <= 1e-12 * abs(one)
        for name, want in grads_one.items():
            assert np.max(np.abs(grads_two[name] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_more_shards_than_cpus_under_fast_thread_switching(self, monkeypatch):
        """Every shard's result lands in its own slot: 16 shards on the two
        lanes, switching threads every microsecond, still sum to the
        one-shard step."""
        x = np.random.default_rng(1).normal(size=(64, 3))
        one, _, grads_one = self.step(monkeypatch, x, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                many, threads, grads = self.step(monkeypatch, x, 16)
                assert threads[:8] == [threading.main_thread()] * 8
                assert len(set(threads[8:])) == 1 and threads[8] is not threads[0]
                assert abs(many - one) <= 1e-12 * abs(one)
                assert np.max(np.abs(grads["w"] - grads_one["w"])) <= \
                    1e-12 * np.max(np.abs(grads_one["w"]))
        finally:
            sys.setswitchinterval(interval)

    def test_shards_past_the_first_run_on_threads_of_their_own(self, monkeypatch):
        """Three shards: the first lane (shard 0) runs on the calling
        thread, the second (shards 1 and 2) on one pool thread."""
        x = np.random.default_rng(0).normal(size=(9, 3))
        _, threads, _ = self.step(monkeypatch, x, 3)
        assert threads[0] is threading.main_thread()
        assert threads[1] is threads[2] is not threads[0]

    def test_at_most_two_shard_graphs_are_alive_at_once(self, monkeypatch):
        """Eight shards: each lane frees a shard's graph before it builds
        the next, so no more than two graphs live at a time, on no more
        than two threads."""
        params = {"w": np.array([[0.5], [-1.0], [2.0]])}
        lock = threading.Lock()
        live, peak, threads = [0], [0], set()

        def freed():
            with lock:
                live[0] -= 1

        def loss_of(rows):
            loss, thread = self.rows_loss(params, meet)(rows)
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            weakref.finalize(loss.graph, freed)
            threads.add(thread)
            return loss, None

        meet = threading.Barrier(2)
        monkeypatch.setattr(nx, "shard_count", lambda activation: 8)
        x = np.random.default_rng(2).normal(size=(64, 3))
        nx.descend(nx.AdamState(), params, x, 1, loss_of, len(x), "batch 0")
        assert 1 <= peak[0] <= 2 and live[0] == 0
        assert len(threads) == 2

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_an_exception_in_a_worker_reaches_the_caller(self, monkeypatch, bad):
        """Raised in either lane, the exception reaches the caller only
        after every shard that started has returned or raised, and nothing
        is updated. The bad shard raises once another shard has started,
        and the others take 50 ms, so the other lane is still running."""
        x = np.arange(12.0).reshape(4, 3)
        shards = nx.split(x, 3)
        monkeypatch.setattr(nx, "shard_count", lambda activation: 3)
        lock, other_started = threading.Lock(), threading.Event()
        started, ended = [], []

        def loss_of(rows):
            k = next(i for i, shard in enumerate(shards) if np.array_equal(rows, shard))
            with lock:
                started.append(k)
            try:
                if k == bad:
                    other_started.wait(timeout=30)
                    raise KeyError(f"shard {bad}")
                other_started.set()
                time.sleep(0.05)
                return self.rows_loss(params)(rows)
            finally:
                with lock:
                    ended.append(k)

        params = {"w": np.ones((3, 1))}
        state = nx.AdamState()
        with pytest.raises(KeyError, match=f"shard {bad}"):
            nx.descend(state, params, x, 1, loss_of, 4, "batch 0")
        with lock:
            assert sorted(ended) == sorted(started) and len(started) >= 2
        np.testing.assert_array_equal(params["w"], np.ones((3, 1)))
        assert state.step_count == 0 and not state.m

    def test_steps_share_one_lane_thread(self, monkeypatch):
        """The second lane's thread is kept for the process: two sharded
        steps run it on the same thread, not on a thread each."""
        x = np.random.default_rng(3).normal(size=(8, 3))
        _, first, _ = self.step(monkeypatch, x, 2)
        _, second, _ = self.step(monkeypatch, x, 2)
        assert first[1] is second[1] is not threading.main_thread()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_sharded_step(self):
        """A child forked after a sharded step has started the lane thread
        inherits the executor but not its thread; it runs a sharded step of
        its own instead of waiting on the parent's thread. The parent kills
        a child still running after 30 s."""
        out = run_python(
            "import os, signal, sys, time\n"
            "import numpy as np\n"
            "from dualmixer import numerics as nx\n"
            "w = np.ones((1, 1))\n"
            "def step():\n"
            "    def loss_of(shard):\n"
            "        return nx.sum_all(nx.Graph().parameter('w', w)), shard\n"
            "    return nx.descend(nx.AdamState(), {'w': w}, list(range(4)),\n"
            "                      nx.SHARD_ACTIVATION, loss_of, 1, 'a')[1]\n"
            "step()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if step() == [[0], [1], [2], [3]] else 1)\n"
            "deadline = time.monotonic() + 30\n"
            "while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:\n"
            "    if time.monotonic() > deadline:\n"
            "        os.kill(pid, signal.SIGKILL)\n"
            "        os.waitpid(pid, 0)\n"
            "        sys.exit('the child hung')\n"
            "    time.sleep(0.01)\n"
            "print(os.waitstatus_to_exitcode(done[1]))\n", timeout=60)
        assert out.split() == ["0"]

    def test_non_finite_loss_of_a_later_shard_raises_before_the_update(self, monkeypatch):
        x = np.ones((6, 3))
        x[4, 1] = np.nan
        params = {"w": np.ones((3, 1))}
        state = nx.AdamState()
        monkeypatch.setattr(nx, "shard_count", lambda activation: 2)
        with pytest.raises(ValueError, match="non-finite loss nan in batch 0"):
            nx.descend(state, params, x, 1, self.rows_loss(params), 6, "batch 0")
        np.testing.assert_array_equal(params["w"], np.ones((3, 1)))
        assert state.step_count == 0 and not state.m


class TestShardRule:
    """The shard count is a function of the batch alone, whatever the host:
    the fewest shards of at most SHARD_ACTIVATION values, an even count
    above one."""

    # stacked activation (windows x l x d) of one batch
    TINY = 12 * 8 * 4                 # w8 d4 b12
    STANDARD = 128 * 30 * 32          # the reference shape's standard batch
    FSGRI = (128 // 6) * 7 * 30 * 32  # its FSGRI batch: 21 groups of m + 2 = 7
    # fewest values a shard needs to pay for its thread (see SHARD_ACTIVATION)
    FLOOR = 10240

    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_tiny_batches_run_as_one_shard(self, batch):
        assert nx.shard_count(batch * 8 * 4) == 1  # w8 d4
        assert nx.shard_count(self.TINY) == 1

    @pytest.mark.parametrize("activation", [STANDARD, FSGRI])
    def test_reference_shape_uses_both_of_two_cpus(self, activation):
        """Four shards, two on each lane."""
        assert nx.shard_count(activation) == 4
        assert list(map(len, nx.split(range(4), 2))) == [2, 2]

    @pytest.mark.parametrize("activation", [STANDARD, FSGRI, 10**9])
    def test_many_cpus_give_no_more_than_the_measured_two_shards(self, activation):
        """However large the batch, and however many CPUs, no more than two
        shards run at once, on no more than two threads."""
        batch = list(range(64))
        seen, live, peak = [], [0], [0]
        lock = threading.Lock()
        params = {"w": np.zeros((1, 1))}

        def loss_of(shard):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            seen.append(threading.current_thread())
            loss = nx.sum_all(nx.Graph().parameter("w", params["w"]))
            with lock:
                live[0] -= 1
            return loss, shard

        shards = nx.descend(nx.AdamState(), params, batch, activation // len(batch),
                            loss_of, 1, "batch 0")[1]
        assert len(shards) == min(len(batch), nx.shard_count(activation)) > 2
        assert len(set(seen)) == 2 and peak[0] <= 2

    def test_no_shard_is_smaller_than_the_floor(self):
        for activation in range(0, 20 * nx.SHARD_ACTIVATION, 997):
            parts = nx.shard_count(activation)
            assert parts == 1 or activation / parts >= self.FLOOR

    def test_counts_above_one_are_even_and_no_shard_exceeds_the_budget(self):
        for activation in range(0, 20 * nx.SHARD_ACTIVATION, 997):
            parts = nx.shard_count(activation)
            assert parts == 1 or parts % 2 == 0
            assert activation / parts <= nx.SHARD_ACTIVATION
            # the next smaller count, even or one, would overfill a shard
            assert parts == 1 or activation / max(1, parts - 2) > nx.SHARD_ACTIVATION

    def test_batch_shards_split_by_the_rule(self):
        """The shards loss_of receives from descend: 128 windows at w30 d32
        make four shards of 32, 12 windows at w8 d4 one shard."""
        params = {"w": np.zeros((1, 1))}

        def shards_of(batch, per_item):
            def loss_of(shard):
                return nx.sum_all(nx.Graph().parameter("w", params["w"])), shard
            return nx.descend(nx.AdamState(), params, batch, per_item, loss_of, 1, "batch 0")[1]

        windows = list(range(128))
        assert shards_of(windows, 30 * 32) == [windows[k:k + 32] for k in range(0, 128, 32)]
        assert shards_of(windows[:12], 8 * 4) == [windows[:12]]

    @pytest.mark.parametrize("n,parts", [(7, 1), (7, 2), (7, 3), (3, 5), (128, 2)])
    def test_split_keeps_order_and_balance(self, n, parts):
        items = list(range(n))
        shards = nx.split(items, parts)
        assert [i for shard in shards for i in shard] == items
        assert len(shards) == min(n, parts) and all(shards)
        assert max(map(len, shards)) - min(map(len, shards)) <= 1
