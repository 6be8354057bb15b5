"""Relationship-preserving contrastive training.

For each anchor window the trainer draws m same-unit negatives through
Gaussian threshold sampling (probability falls off with index distance, and
a band around the anchor is excluded outright), builds a noise-augmented
positive, and optimizes a distance-weighted InfoNCE plus the regression
error of all group members. Far-in-life negatives get their contrastive
logits amplified, so the feature space is pushed to order itself by
remaining life rather than merely separating neighbors from strangers.

build_group returns a group as its m + 2 windows and labels in slot order
(anchor, positive, negatives). A training batch of anchor keys goes to
numerics.descend, which cuts it into shards; each shard builds its groups
on its own thread, concatenates their rows into one forward_batch call and
scores them with batch_loss, a single tape node (put there by
numerics.record) with a closed-form backward. The shards share no mutable
state; log_sampler_notes states what the sampler relaxes or skips, once.
dw_info_nce and mse_all compute the same terms for one group from scalar
tape ops; they are the reference batch_loss is tested against.

The knobs (m, beta, sigma1, sigma2, lam, tau and the batch size b) are read
from the run's harness.RunConfig, which checks them when it is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import model as dm
from . import numerics as nx
from .data import WindowSample, group_by_unit
from .numerics import Tensor

if TYPE_CHECKING:  # harness imports fsgri, so only type checkers import it back
    from .harness import RunConfig

logger = logging.getLogger(__name__)


class ShortSeriesError(ValueError):
    """A unit has too few windows to supply the requested negatives."""


# --------------------------------------------------------------------------
# negative sampling
# --------------------------------------------------------------------------

def threshold_probabilities(t: int, i: int, beta: float, sigma1: float) -> np.ndarray:
    """Per-index draw probabilities for one negative.

    Gaussian density centered on the anchor with std sigma1 * t, zeroed on
    the inclusive band [i - t*beta/2, i + t*beta/2], renormalized over the
    survivors. When no index is eligible the all-zero density is returned.
    """
    if not 0 <= i < t:
        raise ValueError(f"anchor index {i} outside series of {t} windows")
    idx = np.arange(t)
    std = sigma1 * t
    dens = np.exp(-0.5 * ((idx - i) / std) ** 2)
    dens[np.abs(idx - i) <= t * beta / 2.0] = 0.0
    total = dens.sum()
    return dens / total if total else dens


def _draw_without_replacement(rng: np.random.Generator, probs: np.ndarray,
                              m: int) -> list[int]:
    # sequential draws, renormalizing after each removal
    probs = probs.copy()
    out = []
    for _ in range(m):
        out.append(int(rng.choice(probs.size, p=probs / probs.sum())))
        probs[out[-1]] = 0.0
    return out


def _too_short(t: int, cfg: RunConfig) -> bool:
    """Whether a t-window unit has too few other windows for m negatives."""
    return t - 1 < cfg.m


def _workable_band(t: int, i: int, cfg: RunConfig) -> Optional[tuple[np.ndarray, float]]:
    """threshold_probabilities for anchor i at the first beta, halving from
    cfg.beta, that leaves m eligible indices, and that beta; None below 1/t."""
    beta = cfg.beta
    while True:
        probs = threshold_probabilities(t, i, beta, cfg.sigma1)
        if int(np.count_nonzero(probs)) >= cfg.m:
            return probs, beta
        beta /= 2.0
        if beta < 1.0 / t:
            return None


def sample_negatives(rng: np.random.Generator, t: int, i: int, cfg: RunConfig) -> list[int]:
    """m distinct negative indices for anchor i of a t-window unit.

    Gaussian threshold sampling: m sequential draws without replacement
    from threshold_probabilities. When the band leaves fewer than m
    eligible indices, beta is halved until enough survive or it drops below
    1/t; past that, indices are drawn uniformly from everything except the
    anchor. Units with at most m other windows cannot be sampled at all.
    It logs nothing: log_sampler_notes states what it relaxes, once a run.
    """
    if _too_short(t, cfg):
        raise ShortSeriesError(f"unit has {t} windows; need more than {cfg.m}")
    band = _workable_band(t, i, cfg)
    if band is None:
        others = np.delete(np.arange(t), i)
        return [int(k) for k in rng.permutation(others)[:cfg.m]]
    return _draw_without_replacement(rng, band[0], cfg.m)


def log_sampler_notes(samples: Sequence[WindowSample], cfg: RunConfig) -> None:
    """Log once each what the sampler does to these units under cfg: each
    short unit, which training skips, then per usable unit length (walking
    all its anchors) each relaxed beta, descending, and any uniform fallback.
    Short units come by id and lengths ascending, so the order is fixed."""
    groups = group_by_unit(samples)
    for uid in sorted(groups):
        if _too_short(len(groups[uid]), cfg):
            logger.warning("unit %d has only %d windows; need more than %d for negative "
                           "sampling; skipped", uid, len(groups[uid]), cfg.m)
    for t in sorted({len(w) for w in groups.values() if not _too_short(len(w), cfg)}):
        betas = {band and band[1] for band in (_workable_band(t, i, cfg) for i in range(t))}
        for beta in sorted(betas - {None, cfg.beta}, reverse=True):
            logger.warning("relaxed exclusion band to beta=%g for %d-window units", beta, t)
        if None in betas:
            logger.warning("falling back to uniform negative sampling for %d-window units", t)


def build_group(rng: np.random.Generator, unit_windows: Sequence[WindowSample],
                i: int, cfg: RunConfig) -> tuple[list[np.ndarray], list[float]]:
    """Sample one anchor's group from its unit's ordered window list.

    Returns the group's m + 2 windows and labels in slot order: the anchor,
    its positive (the anchor plus N(0, sigma2^2) noise per entry, with the
    anchor's label), then the m negatives. Draw order is fixed (negatives
    first, then the positive's noise) so a given rng state always yields
    the same group. It reads only its arguments, so shards share no state.
    """
    neg_idx = sample_negatives(rng, len(unit_windows), i, cfg)
    anchor = unit_windows[i]
    positive = anchor.values + rng.normal(0.0, cfg.sigma2, size=anchor.values.shape)
    negatives = [unit_windows[k] for k in neg_idx]
    return ([anchor.values, positive] + [n.values for n in negatives],
            [anchor.label, anchor.label] + [n.label for n in negatives])


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def distance_weights(anchor_rul: float, neg_ruls: Sequence[float],
                     lam: float) -> np.ndarray:
    """Per-negative logit weights: lam * (life gap)^2. Arrays broadcast, so
    a column of anchor labels weighs a G x m block of negatives at once."""
    gaps = anchor_rul - np.asarray(neg_ruls, dtype=float)
    return lam * gaps ** 2


def dw_info_nce(zi: Tensor, zi_pos: Tensor, z_negs: Sequence[Tensor],
                anchor_rul: float, neg_ruls: Sequence[float],
                lam: float, tau: float) -> Tensor:
    """InfoNCE with each negative logit scaled by its life-gap weight; the
    positive term is left unweighted."""
    if len(neg_ruls) != len(z_negs):
        raise ValueError(f"{len(z_negs)} negative features but {len(neg_ruls)} labels")
    alphas = distance_weights(anchor_rul, neg_ruls, lam)
    pos = nx.scale(nx.cosine_similarity(zi, zi_pos), 1.0 / tau)
    logits = [pos] + [nx.scale(nx.cosine_similarity(zi, zn), a / tau)
                      for zn, a in zip(z_negs, alphas)]
    return nx.sub(nx.logsumexp(logits), pos)


def mse_all(pred_anchor: Tensor, pred_pos: Tensor, pred_negs: Sequence[Tensor],
            anchor_rul: float, neg_ruls: Sequence[float]) -> Tensor:
    """Squared error of the anchor, of the positive (sharing the anchor's
    label), and the mean squared error over the negatives."""
    if len(neg_ruls) != len(pred_negs):
        raise ValueError(f"{len(pred_negs)} negative predictions but "
                         f"{len(neg_ruls)} labels")

    def sq(pred: Tensor, label: float) -> Tensor:
        diff = nx.sub(pred, Tensor([[label]]))
        return nx.hadamard(diff, diff)

    out = nx.add(sq(pred_anchor, anchor_rul), sq(pred_pos, anchor_rul))
    neg_sum = None
    for pred, label in zip(pred_negs, neg_ruls):
        term = sq(pred, label)
        neg_sum = term if neg_sum is None else nx.add(neg_sum, term)
    if neg_sum is not None:
        out = nx.add(out, nx.scale(neg_sum, 1.0 / len(pred_negs)))
    return out


def batch_loss(feats: Tensor, ruls: Tensor, labels: np.ndarray,
               cfg: RunConfig) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """dw_info_nce + mse_all summed over G groups, as one tape node.

    feats holds one feature row per window and ruls one prediction per
    window, G*K rows each, K = m + 2 windows per group in slot order
    anchor, positive, negatives; labels is G x K in the same order (the
    positive carries the anchor's label). Returns the 1x1 batch sum on the
    tape of feats/ruls, and the per-group contrastive and regression terms
    as plain arrays. The backward is closed-form.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n_groups, k = labels.shape
    if k < 3 or ruls.shape != (n_groups * k, 1) or feats.rows != n_groups * k:
        raise nx.ShapeError(f"batch_loss: {feats.shape} features and {ruls.shape} "
                            f"predictions do not hold {n_groups} groups of {k}")
    fshape = feats.shape
    z = feats.data.reshape(n_groups, k, -1)
    norms = np.linalg.norm(z, axis=2)
    if np.any(norms == 0.0):
        raise nx.DegenerateVectorError("batch_loss: a window's features have zero norm")
    anchor, others = z[:, 0], z[:, 1:]
    denom = norms[:, :1] * norms[:, 1:]
    cos = np.einsum("gd,gjd->gj", anchor, others) / denom
    # logit weights: 1 on the positive, lam * (life gap)^2 on the negatives
    coef = np.empty((n_groups, k - 1))
    coef[:, 0] = 1.0 / cfg.tau
    coef[:, 1:] = distance_weights(labels[:, :1], labels[:, 2:], cfg.lam) / cfg.tau
    logits = cos * coef
    top = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - top)
    total = shifted.sum(axis=1)
    contrastive = np.log(total) + top[:, 0] - logits[:, 0]
    err = ruls.data.reshape(n_groups, k) - labels
    sq = err * err
    inv_m = 1.0 / (k - 2)
    regression = sq[:, 0] + sq[:, 1] + sq[:, 2:].sum(axis=1) * inv_m
    out = np.array([[np.sum(contrastive + regression)]])

    def bwd(adj):
        a0 = float(adj[0, 0])
        # softmax minus the positive's indicator, chained through the weights
        dcos = shifted / total[:, None]
        dcos[:, 0] -= 1.0
        dcos *= coef * a0
        c_cos = dcos * cos
        dz = np.empty_like(z)
        dz[:, 0] = (np.einsum("gj,gjd->gd", dcos / denom, others)
                    - (c_cos.sum(axis=1) / norms[:, 0] ** 2)[:, None] * anchor)
        dz[:, 1:] = ((dcos / denom)[:, :, None] * anchor[:, None, :]
                     - (c_cos / norms[:, 1:] ** 2)[:, :, None] * others)
        druls = (2.0 * a0) * err
        druls[:, 2:] *= inv_m
        return dz.reshape(fshape), druls.reshape(-1, 1)

    return nx.record("fsgri_batch_loss", out, (feats, ruls), bwd), contrastive, regression


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

@dataclass
class EpochStats:
    """Per-epoch accounting; mean_* are per anchor, encodings counts every
    window forwarded through the model (m + 2 per anchor)."""

    mean_loss: float
    mean_contrastive: float
    mean_regression: float
    batches: int
    anchor_batch_size: int
    encodings: int
    skipped_anchors: int


def stratified_order(groups: dict[int, list[WindowSample]],
                     epoch_seed: int) -> list[tuple[int, int]]:
    """Shuffled (unit_id, window_index) sequence that round-robins across
    units, so every batch mixes units; the shuffle is keyed by epoch_seed."""
    rng = np.random.default_rng((epoch_seed, 0x0D0E))
    uids = sorted(groups)
    rng.shuffle(uids)
    queues = [(uid, [int(j) for j in rng.permutation(len(groups[uid]))])
              for uid in uids]
    order = []
    while queues:
        remaining = []
        for uid, queue in queues:
            order.append((uid, queue.pop()))
            if queue:
                remaining.append((uid, queue))
        queues = remaining
    return order


def train_epoch_fsgri(params: dm.DualMixerParams, samples: Sequence[WindowSample],
                      cfg: RunConfig, optimizer: nx.AdamState, epoch_seed: int) -> EpochStats:
    """One pass over all usable anchors.

    Anchors are grouped into batches of b // (m+1), and a config with no
    anchor per batch is refused, in any mode; numerics.descend cuts
    each batch's anchors into shards, each shard builds its groups, stacks
    their members into one forward and sums its per-anchor losses, and the
    step divides the batch's sum by the nominal batch size b. Group
    sampling is keyed by (epoch_seed, unit, window index), so a rerun with
    the same seed reproduces the epoch bit-for-bit on any thread.
    A non-finite batch loss or gradient raises ValueError before any update.
    Short units are skipped and counted, and nothing is logged: a run
    states its sampler notes once, through log_sampler_notes.
    """
    batch_size = cfg.anchor_batch
    usable = {uid: w for uid, w in group_by_unit(samples).items() if not _too_short(len(w), cfg)}
    if not usable:  # also an empty training set
        raise ValueError("no unit has enough windows for negative sampling")
    order = stratified_order(usable, epoch_seed)
    group_size = (cfg.m + 2) * params.config.l * params.config.d

    def group_loss(keys):
        groups = [build_group(np.random.default_rng((epoch_seed, uid, i)), usable[uid], i, cfg)
                  for uid, i in keys]
        windows = [w for group_windows, _ in groups for w in group_windows]
        feats, ruls = dm.forward_batch(params, windows, nx.Graph())
        batch_sum, contrastive, regression = batch_loss(
            feats, ruls, np.array([group_labels for _, group_labels in groups]), cfg)
        return batch_sum, (contrastive, regression)

    total_con = total_reg = 0.0
    starts = range(0, len(order), batch_size)
    for start in starts:
        _, terms = nx.descend(optimizer, params.arrays, order[start:start + batch_size],
                              group_size, group_loss, cfg.b,
                              f"batch {start // batch_size} of the epoch with seed {epoch_seed}")
        total_con += float(np.concatenate([c for c, _ in terms]).sum())
        total_reg += float(np.concatenate([r for _, r in terms]).sum())
    anchors = len(order)
    return EpochStats(mean_loss=(total_con + total_reg) / anchors,
                      mean_contrastive=total_con / anchors,
                      mean_regression=total_reg / anchors,
                      batches=len(starts), anchor_batch_size=batch_size,
                      encodings=anchors * (cfg.m + 2),
                      skipped_anchors=len(samples) - anchors)
