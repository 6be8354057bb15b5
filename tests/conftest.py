"""Shared test helpers: a finite-difference gradient oracle, feature
vectors with chosen cosine scores, one group's loss and plain InfoNCE, the
MLP of a mixer path's residual block, a spy on the trainers' optimizer
step, a fresh interpreter that imports dualmixer, and dataset discovery
for the optional real-data checks."""

import math
import os
import subprocess
import sys

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


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_python(code: str, timeout: float = 120) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    dualmixer from this checkout; it must exit 0 within ``timeout`` s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout


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


def mlp_block_forward(arrays, x, scope="mlp"):
    """GeLU(x @ W1) @ W2, shared across rows: the MLP inside a mixer path's
    residual block."""
    w1, w2 = nx.Tensor(arrays[f"{scope}.w1"]), nx.Tensor(arrays[f"{scope}.w2"])
    return nx.matmul(nx.gelu(nx.matmul(x, w1)), w2)


class Stopped(Exception):
    """Raised by spy_descend(stop=True) after a trainer's first optimizer step."""


def spy_descend(monkeypatch, seen, stop=False):
    """Run the real numerics.descend and record, for each step, in ``seen``:
    its state and divisor, its shards in batch order (as loss_of receives
    them) with the set of tape ops each shard's loss graph holds, and the
    undivided loss it returns. With ``stop``, Adam is not run: the
    gradients descend hands it are recorded, and Stopped is raised after
    the first step, leaving the parameters as they were."""
    descend = nx.descend

    def spy(state, params, batch, per_item, loss_of, divisor, where):
        recorded = []

        def recorded_loss_of(shard):
            ops = set()
            recorded.append((shard, ops))
            loss, aux = loss_of(shard)
            ops.update(node.op for node in loss.graph.nodes)
            return loss, aux

        if stop:
            monkeypatch.setattr(nx, "adam_step", lambda s, p, grads: seen.update(grads=grads))
        position = {id(item): k for k, item in enumerate(batch)}
        try:
            result = descend(state, params, batch, per_item, recorded_loss_of, divisor, where)
        finally:
            recorded.sort(key=lambda r: position[id(r[0][0])])
            seen.update(state=state, divisor=divisor, shards=[shard for shard, _ in recorded],
                        ops=[ops for _, ops in recorded])
        seen["loss"] = result[0]
        if stop:
            raise Stopped
        return result

    monkeypatch.setattr(nx, "descend", spy)
