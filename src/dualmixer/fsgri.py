"""Relationship-preserving contrastive training.

For each anchor window the trainer draws m same-unit negatives through
Gaussian threshold sampling (probability falls off with index distance, and
a band around the anchor is excluded outright), builds a noise-augmented
positive, and optimizes a distance-weighted InfoNCE plus the regression
error of all group members. Far-in-life negatives get their contrastive
logits amplified, so the feature space is pushed to order itself by
remaining life rather than merely separating neighbors from strangers.

A training batch stacks every group's windows into one forward_batch call
and scores all groups with batch_loss, a single tape node with a
closed-form backward. dw_info_nce and mse_all compute the same terms for
one group from scalar tape ops; they are the reference batch_loss is
tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model as dm
from . import numerics as nx
from .data import WindowSample, group_by_unit
from .numerics import Tensor

logger = logging.getLogger(__name__)

_WARNED: set = set()


def _warn_once(key, msg, *args):
    if key not in _WARNED:
        _WARNED.add(key)
        logger.warning(msg, *args)


class ShortSeriesError(ValueError):
    """A unit has too few windows to supply the requested negatives."""


@dataclass(frozen=True)
class FsgriConfig:
    """Contrastive-training knobs.

    m: negatives per anchor. beta: excluded-band width as a fraction of the
    unit's window count. sigma1: sampling std as a fraction of the window
    count. sigma2: positive-noise std in normalized-data units. lam: scale
    of the squared-life-gap logit weights. tau: temperature. b: nominal
    batch size; the anchor batch is b // (m + 1).
    """

    m: int = 5
    beta: float = 0.4
    sigma1: float = 0.3
    sigma2: float = 0.15
    lam: float = 2.0
    tau: float = 0.1
    b: int = 128

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.sigma1 <= 0.0:
            raise ValueError("sigma1 must be > 0")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be >= 0")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")
        if self.anchor_batch < 1:
            raise ValueError(f"b={self.b} with m={self.m} gives an empty anchor batch")

    @property
    def anchor_batch(self) -> int:
        return self.b // (self.m + 1)


@dataclass
class ContrastiveGroup:
    """An anchor, its noise-augmented positive, and m same-unit negatives
    drawn outside the anchor's excluded band, all distinct."""

    anchor: WindowSample
    positive: np.ndarray
    negatives: list[WindowSample]

    @property
    def negative_labels(self) -> list[float]:
        return [n.label for n in self.negatives]


# --------------------------------------------------------------------------
# negative sampling
# --------------------------------------------------------------------------

def threshold_probabilities(t: int, i: int, beta: float, sigma1: float) -> np.ndarray:
    """Per-index draw probabilities for one negative.

    Gaussian density centered on the anchor with std sigma1 * t, zeroed on
    the inclusive band [i - t*beta/2, i + t*beta/2], renormalized over the
    survivors. All-zero (no eligible index) raises.
    """
    if not 0 <= i < t:
        raise ValueError(f"anchor index {i} outside series of {t} windows")
    idx = np.arange(t)
    std = sigma1 * t
    dens = np.exp(-0.5 * ((idx - i) / std) ** 2)
    dens[np.abs(idx - i) <= t * beta / 2.0] = 0.0
    total = dens.sum()
    if total == 0.0:
        raise ShortSeriesError(f"no eligible negatives for anchor {i} of {t} windows")
    return dens / total


def _draw_without_replacement(rng: np.random.Generator, probs: np.ndarray,
                              m: int) -> list[int]:
    # sequential draws, renormalizing after each removal
    probs = probs.copy()
    out = []
    for _ in range(m):
        out.append(int(rng.choice(probs.size, p=probs / probs.sum())))
        probs[out[-1]] = 0.0
    return out


def sample_negatives(rng: np.random.Generator, t: int, i: int,
                     cfg: FsgriConfig) -> list[int]:
    """m distinct negative indices for anchor i of a t-window unit.

    Gaussian threshold sampling: m sequential draws without replacement
    from threshold_probabilities. When the band leaves fewer than m
    eligible indices, beta is halved until enough survive or it drops below
    1/t; past that, indices are drawn uniformly from everything except the
    anchor. Units with at most m other windows cannot be sampled at all.
    """
    if t - 1 < cfg.m:
        raise ShortSeriesError(f"unit has {t} windows; need more than {cfg.m}")
    beta = cfg.beta
    while True:
        probs = threshold_probabilities(t, i, beta, cfg.sigma1)
        if int(np.count_nonzero(probs)) >= cfg.m:
            if beta != cfg.beta:
                _warn_once(("relaxed", t), "relaxed exclusion band to beta=%g "
                           "for %d-window units", beta, t)
            return _draw_without_replacement(rng, probs, cfg.m)
        beta /= 2.0
        if beta < 1.0 / t:
            break
    _warn_once(("uniform", t), "falling back to uniform negative sampling "
               "for %d-window units", t)
    others = np.delete(np.arange(t), i)
    return [int(k) for k in rng.permutation(others)[:cfg.m]]


def make_positive(rng: np.random.Generator, anchor: np.ndarray,
                  sigma2: float) -> np.ndarray:
    """Anchor plus i.i.d. Gaussian noise, elementwise."""
    return anchor + rng.normal(0.0, sigma2, size=anchor.shape)


def build_group(rng: np.random.Generator, unit_windows: Sequence[WindowSample],
                i: int, cfg: FsgriConfig) -> ContrastiveGroup:
    """Sample one anchor's group from its unit's ordered window list.

    Draw order is fixed (negatives first, then positive noise) so a given
    rng state always yields the same group.
    """
    neg_idx = sample_negatives(rng, len(unit_windows), i, cfg)
    anchor = unit_windows[i]
    positive = make_positive(rng, anchor.values, cfg.sigma2)
    return ContrastiveGroup(anchor=anchor, positive=positive,
                            negatives=[unit_windows[k] for k in neg_idx])


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def distance_weights(anchor_rul: float, neg_ruls: Sequence[float],
                     lam: float) -> np.ndarray:
    """Per-negative logit weights: lam * (life gap)^2. Arrays broadcast, so
    a column of anchor labels weighs a G x m block of negatives at once."""
    gaps = anchor_rul - np.asarray(neg_ruls, dtype=float)
    return lam * gaps ** 2


def info_nce(zi: Tensor, zi_pos: Tensor, z_negs: Sequence[Tensor],
             tau: float) -> Tensor:
    """Contrastive loss over cosine scores, log-sum-exp stabilized."""
    pos = nx.scale(nx.cosine_similarity(zi, zi_pos), 1.0 / tau)
    logits = [pos] + [nx.scale(nx.cosine_similarity(zi, zn), 1.0 / tau)
                      for zn in z_negs]
    return nx.sub(nx.logsumexp(logits), pos)


def dw_info_nce(zi: Tensor, zi_pos: Tensor, z_negs: Sequence[Tensor],
                anchor_rul: float, neg_ruls: Sequence[float],
                lam: float, tau: float) -> Tensor:
    """InfoNCE with each negative logit scaled by its life-gap weight; the
    positive term is left unweighted. Reduces to info_nce when all weights
    are 1."""
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
               cfg: FsgriConfig) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """dw_info_nce + mse_all summed over G groups, as one tape node.

    feats is the stacked (G*K*l) x d forward output and ruls the G*K x 1
    predictions, K = m + 2 windows per group in slot order anchor, positive,
    negatives; labels is G x K in the same order (the positive carries the
    anchor's label). Each window's l x d block is read row-major, as
    cosine_similarity reads it, through a (G, K, l*d) view. Returns the
    1x1 batch sum on the tape of feats/ruls, and the per-group contrastive
    and regression terms as plain arrays. The backward is closed-form.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n_groups, k = labels.shape
    if k < 3 or ruls.shape != (n_groups * k, 1) or feats.rows % (n_groups * k):
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

    g = nx._resolve_graph(feats, ruls)
    loss = nx._record(g, "fsgri_batch_loss", out, (nx._nid(g, feats), nx._nid(g, ruls)), bwd)
    return loss, contrastive, regression


def _score_groups(params: dm.DualMixerParams, groups: Sequence[ContrastiveGroup],
                  cfg: FsgriConfig, graph: Optional[nx.Graph]
                  ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Stack every group member into one forward and score it with batch_loss."""
    stack, labels = [], []
    for grp in groups:
        stack += [grp.anchor.values, grp.positive] + [n.values for n in grp.negatives]
        labels.append([grp.anchor.label, grp.anchor.label] + grp.negative_labels)
    feats, ruls = dm.forward_batch(params, Tensor(np.vstack(stack)), graph)
    return batch_loss(feats, ruls, np.array(labels), cfg)


def fsgri_loss(group: ContrastiveGroup, params: dm.DualMixerParams,
               cfg: FsgriConfig,
               graph: Optional[nx.Graph] = None) -> Tensor:
    """Combined loss for one group, on a single tape: the distance-weighted
    contrastive term plus the group's regression errors."""
    return _score_groups(params, [group], cfg, graph)[0]


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

@dataclass
class EpochStats:
    """Per-epoch accounting; mean_* are per anchor, encodings counts every
    window forwarded through the model."""

    mean_loss: float
    mean_contrastive: float
    mean_regression: float
    batches: int
    anchor_batch_size: int
    anchors: int
    encodings: int
    skipped_anchors: int


def stratified_order(groups: dict[int, list[WindowSample]],
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    """Shuffled (unit_id, window_index) sequence that round-robins across
    units, so every batch mixes units."""
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
                      cfg: FsgriConfig, optimizer: nx.AdamState,
                      epoch_seed: int) -> EpochStats:
    """One pass over all usable anchors.

    Anchors are grouped into batches of b // (m+1); each batch stacks every
    group member into one forward, sums the per-anchor losses, divides by
    the nominal batch size b, and takes one optimizer step. Group sampling
    is keyed by (epoch_seed, unit, window index), so a rerun with the same
    seed reproduces the epoch bit-for-bit regardless of execution order.
    A non-finite batch loss or gradient raises ValueError before any update.
    """
    cfg.validate()
    if not samples:
        raise ValueError("empty training set")
    groups = group_by_unit(samples)
    usable: dict[int, list[WindowSample]] = {}
    skipped = 0
    for uid, windows in sorted(groups.items()):
        if len(windows) - 1 < cfg.m:
            _warn_once(("unit", uid), "unit %d has only %d windows; need more "
                       "than %d for negative sampling; skipped", uid,
                       len(windows), cfg.m)
            skipped += len(windows)
        else:
            usable[uid] = windows
    if not usable:
        raise ValueError("no unit has enough windows for negative sampling")
    order = stratified_order(usable, np.random.default_rng((epoch_seed, 0x0D0E)))
    batch_size = cfg.anchor_batch
    total_con = total_reg = 0.0
    batches = anchors = 0
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        batch_groups = [build_group(np.random.default_rng((epoch_seed, uid, i)),
                                    usable[uid], i, cfg) for uid, i in chunk]
        batch_sum, contrastive, regression = _score_groups(params, batch_groups, cfg,
                                                           nx.Graph())
        nx.descend(optimizer, params.arrays, batch_sum, cfg.b,
                   f"batch {batches} of the epoch with seed {epoch_seed}")
        total_con += float(contrastive.sum())
        total_reg += float(regression.sum())
        batches += 1
        anchors += len(chunk)
    return EpochStats(mean_loss=(total_con + total_reg) / anchors,
                      mean_contrastive=total_con / anchors,
                      mean_regression=total_reg / anchors,
                      batches=batches, anchor_batch_size=batch_size,
                      anchors=anchors, encodings=anchors * (cfg.m + 2),
                      skipped_anchors=skipped)
