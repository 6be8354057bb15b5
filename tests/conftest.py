"""Shared test helpers: a finite-difference gradient oracle, feature
vectors with chosen cosine scores, one group's loss and plain InfoNCE, the
primitive chains the fused mixer nodes are checked against, and dataset
discovery for the optional real-data checks."""

import math
import os

import numpy as np

from dualmixer import fsgri as fs
from dualmixer import model as dm
from dualmixer import numerics as nx

# Real turbofan data is looked up here (override with CMAPSS_DIR); the
# dataset-backed checks skip cleanly when it is absent.
CMAPSS_DIR = os.environ.get(
    "CMAPSS_DIR", os.path.join(os.path.dirname(__file__), "..", "data", "CMAPSS")
)


def cmapss_available(tag: str = "FD001") -> bool:
    return os.path.isfile(os.path.join(CMAPSS_DIR, f"train_{tag}.txt"))


def finite_diff_grads(loss_fn, params, h=1e-5):
    """Central-difference gradients of a scalar loss for every param entry.

    loss_fn() must recompute the loss as a float from the current contents
    of the arrays in ``params``; entries are perturbed in place and restored.
    This path shares no code with the tape's backward rules.
    """
    out = {}
    for name, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        out[name] = grad
    return out


def max_rel_err(got, want, floor=1e-6):
    """Worst elementwise relative error between two dicts of arrays."""
    worst = 0.0
    for name in want:
        a = np.asarray(got[name], dtype=float)
        b = np.asarray(want[name], dtype=float)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        if a.size:
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def unit_vec(v):
    return v / np.linalg.norm(v)


def features_with_scores(rng, n, scores):
    """A base direction u plus vectors whose cosine with u is each score."""
    u = unit_vec(rng.normal(size=n))
    out = []
    for s in scores:
        r = rng.normal(size=n)
        r = unit_vec(r - (r @ u) * u)
        out.append(s * u + math.sqrt(1.0 - s * s) * r)
    return u, out


def group_loss(group, params, cfg, graph=None):
    """One contrastive group's combined loss on one tape: the
    distance-weighted contrastive term plus the group's regression errors.
    ``group`` is build_group's (windows, labels) pair."""
    windows, labels = group
    feats, ruls = dm.forward_batch(params, windows, graph)
    return fs.batch_loss(feats, ruls, np.array([labels]), cfg)[0]


def info_nce(zi, zi_pos, z_negs, tau):
    """Plain InfoNCE over cosine scores, log-sum-exp stabilized: the
    reference fsgri.dw_info_nce reduces to when every weight is 1."""
    pos = nx.scale(nx.cosine_similarity(zi, zi_pos), 1.0 / tau)
    logits = [pos] + [nx.scale(nx.cosine_similarity(zi, zn), 1.0 / tau)
                      for zn in z_negs]
    return nx.sub(nx.logsumexp(logits), pos)


# --------------------------------------------------------------------------
# the fused mixer nodes as chains of primitive tape ops
# --------------------------------------------------------------------------

def chain_mix(x, w1, w2, gain, bias):
    """numerics.mix as matmul -> gelu -> matmul -> add -> layer_norm."""
    return nx.layer_norm(nx.add(nx.matmul(nx.gelu(nx.matmul(x, w1)), w2), x), gain, bias)


def chain_gate(x, wg):
    """numerics.gate as matmul -> sigmoid -> hadamard."""
    return nx.hadamard(nx.sigmoid(nx.matmul(x, wg)), x)


def chain_add_norm(a, b, gain, bias):
    """numerics.add_norm as add -> layer_norm."""
    return nx.layer_norm(nx.add(a, b), gain, bias)


def use_primitive_chains(monkeypatch):
    """Make the model build every fused node from its primitive chain."""
    monkeypatch.setattr(nx, "mix", chain_mix)
    monkeypatch.setattr(nx, "gate", chain_gate)
    monkeypatch.setattr(nx, "add_norm", chain_add_norm)


def mlp_block_forward(arrays, x, scope="mlp"):
    """GeLU(x @ W1) @ W2, shared across rows: the MLP inside numerics.mix."""
    w1, w2 = nx.Tensor(arrays[f"{scope}.w1"]), nx.Tensor(arrays[f"{scope}.w2"])
    return nx.matmul(nx.gelu(nx.matmul(x, w1)), w2)
