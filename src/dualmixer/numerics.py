"""Dense 2-D float64 tensors with a reverse-mode tape, plus Adam.

Everything here is deliberately small: matrices are plain numpy arrays in
row-major order, the tape is an append-only list of nodes (so it is
topologically ordered by construction), and every operation carries its own
local backward rule. record is the one way a node joins the tape: every op
here, and any op defined elsewhere (fsgri.batch_loss), hands it the result,
the operand tensors and the backward rule. One graph per loss evaluation;
graphs are single threaded, independent graphs may run in parallel.
backward returns fresh gradients; descend is the one checked training step
built on it and Adam.

A training loss is a sum over independent rows (windows, or FSGRI groups),
so descend cuts each batch into shards of at most SHARD_ACTIVATION stacked
values, each with its forward and backward on a graph of its own, and sums
their losses and gradients. Two lanes, the calling thread and one lane
thread kept for the process (a new one in a forked child), run the shards
in turn; numpy, scipy's erf and OpenBLAS release the GIL on arrays of the
model's size, so on a multi-CPU host the lanes run at once. BLAS should
then run one thread per call (OPENBLAS_NUM_THREADS=1). A backward rule
keeps only what it reads (gelu keeps its derivative alone), so a tape holds
about 0.9 MB per window at the reference shape (w30 d32 N6).
Importing this module sets two glibc allocator options for the whole
process (mallopt(3)), so a step's freed arrays stay in the process.

The dual-path mixer is built from these primitives (matmul, gelu, add,
layer_norm, sigmoid, hadamard).
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

LAYERNORM_EPS = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# mallopt(3) on glibc, a refusal ignored: M_MMAP_THRESHOLD (-3) at its 64-bit
# maximum of 32 MiB, M_TRIM_THRESHOLD (-1) at 256 MiB.
try:
    if os.confstr("CS_GNU_LIBC_VERSION"):
        _mallopt = ctypes.CDLL(None).mallopt
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-3, 32 << 20)
        _mallopt(-1, 256 << 20)
except (AttributeError, ValueError, OSError):  # no confstr or no such name
    pass


class GraphError(RuntimeError):
    """Tape misuse: mixed graphs, non-scalar loss, bad registration or rule arity."""


class Tensor:
    """A dense 2-D float64 matrix, optionally attached to a tape node.

    Tensors returned by the ops in this module are recorded on a graph when
    any operand lives on one; tensors with ``graph is None`` are plain
    values, and combining them with taped tensors treats them as constants
    (no gradient flows into them).
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: "Graph | None" = None, node_id: int = -1):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.graph = graph
        self.node_id = node_id

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])


@dataclass
class TapeNode:
    """One recorded operation: input node ids (-1 marks a constant operand)
    and a local backward rule mapping the output adjoint to per-input
    adjoint contributions. Leaves carry no rule."""

    op: str
    inputs: tuple[int, ...]
    backward: Optional[Callable[[np.ndarray], tuple]]


class Graph:
    """Reverse-mode tape with a registry of named learnable leaves."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._params: dict[str, tuple[np.ndarray, int]] = {}

    def _add_node(self, op, inputs, backward) -> int:
        self.nodes.append(TapeNode(op, inputs, backward))
        return len(self.nodes) - 1

    def parameter(self, name: str, data: np.ndarray) -> Tensor:
        """Register a named learnable leaf.

        A name joins a graph once: registering it again raises GraphError.
        The array is used as storage, not copied.
        The registry keeps (array, node id) pairs rather than tensors, so no
        reference cycle runs through the graph and a finished tape is freed
        as soon as its last tensor is dropped.
        """
        if name in self._params:
            raise GraphError(f"parameter {name!r} is already registered on this graph")
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"parameter {name!r} must be 2-D, got {arr.shape}")
        nid = self._add_node("param", (), None)
        self._params[name] = (arr, nid)
        return Tensor(arr, self, nid)

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar loss node.

        Returns a fresh dict from every registered parameter's name to its
        gradient, in registration order; parameters unreachable from the
        loss get zeros, and no two gradients share storage. One rule sums
        adjoints: a node keeps its first contribution as the rule returned
        it, and each later one makes a new array, adjoint + contribution,
        in the order the sweep delivers them. A rule must return one
        contribution per operand, or the sweep raises GraphError. A node's
        adjoint is dropped once its rule has read it, so the sweep holds
        only the adjoints still to be swept and those of the leaves.
        """
        if loss.graph is not self or loss.node_id < 0:
            raise GraphError("loss tensor is not recorded on this graph")
        if loss.shape != (1, 1):
            raise GraphError(f"loss must be a 1x1 scalar, got {loss.shape}")
        adjoint: list[Optional[np.ndarray]] = [None] * len(self.nodes)
        adjoint[loss.node_id] = np.ones((1, 1))
        for nid in range(loss.node_id, -1, -1):
            adj, node = adjoint[nid], self.nodes[nid]
            if adj is None or node.backward is None:
                continue
            adjoint[nid] = None
            contribs = node.backward(adj)
            if len(contribs) != len(node.inputs):
                raise GraphError(f"{node.op} rule returned {len(contribs)} contributions "
                                 f"for {len(node.inputs)} operands")
            for iid, contrib in zip(node.inputs, contribs):
                if iid >= 0:
                    adjoint[iid] = contrib if adjoint[iid] is None else adjoint[iid] + contrib
        # copied: a leaf's adjoint may also be another node's array
        return {name: np.zeros_like(arr) if adjoint[nid] is None else adjoint[nid].copy()
                for name, (arr, nid) in self._params.items()}


# --------------------------------------------------------------------------
# op plumbing
# --------------------------------------------------------------------------

def record(op: str, out: np.ndarray, inputs: Sequence[Tensor], bwd) -> Tensor:
    """Put an op's result on the tape its operands live on.

    ``bwd`` maps the output adjoint to one contribution per entry of
    ``inputs``, in order; an operand listed twice gets its contributions
    summed in that order. Operands off the tape are constants (id -1).
    With no operand on a tape the result is a plain Tensor; operands on
    two different tapes raise GraphError.
    """
    g = None
    for t in inputs:
        if t.graph is not None and t.graph is not g:
            if g is not None:
                raise GraphError("operands belong to different graphs")
            g = t.graph
    if g is None:
        return Tensor(out)
    ids = tuple(t.node_id if t.graph is g else -1 for t in inputs)
    return Tensor(out, g, g._add_node(op, ids, bwd))

def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} needs identical shapes, got {a.shape} and {b.shape}")


# --------------------------------------------------------------------------
# primitives
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (r x k) @ (k x c) -> (r x c)."""
    if a.cols != b.rows:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(adj):
        return adj @ bd.T, ad.T @ adj

    return record("matmul", out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    return block_transpose(a, 1)


def block_transpose(a: Tensor, blocks: int) -> Tensor:
    """Transpose each of ``blocks`` stacked row blocks independently.

    (blocks*r) x c -> (blocks*c) x r, block i transposed in place. With
    blocks=1 this is a plain transpose; it is the batched form of applying
    a per-sample transpose to vertically stacked sample matrices.
    """
    if a.rows % blocks != 0:
        raise ValueError(f"block_transpose: {a.rows} rows not divisible by {blocks} blocks")
    r = a.rows // blocks
    c = a.cols
    out = a.data.reshape(blocks, r, c).transpose(0, 2, 1).reshape(blocks * c, r)
    out = np.ascontiguousarray(out)

    def bwd(adj):
        back = adj.reshape(blocks, c, r).transpose(0, 2, 1).reshape(blocks * r, c)
        return (np.ascontiguousarray(back),)

    return record("block_transpose", out, (a,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    out = a.data + b.data

    def bwd(adj):
        return adj, adj

    return record("add", out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    out = a.data - b.data

    def bwd(adj):
        return adj, -adj

    return record("sub", out, (a, b), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product."""
    _check_same_shape("hadamard", a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(adj):
        return adj * bd, adj * ad

    return record("hadamard", out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    out = a.data * c

    def bwd(adj):
        return (adj * c,)

    return record("scale", out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    # unguarded: callers that may see large arguments must shift first
    # (the losses use a log-sum-exp with a detached max)
    out = np.exp(a.data)

    def bwd(adj):
        return (adj * out,)

    return record("exp", out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    ad = a.data

    def bwd(adj):
        return (adj / ad,)

    return record("log", out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries as a 1x1 tensor."""
    out = np.array([[a.data.sum()]])
    shape = a.shape

    def bwd(adj):
        return (np.full(shape, float(adj[0, 0])),)

    return record("sum_all", out, (a,), bwd)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.rows * a.cols:
        raise ValueError(f"reshape {a.shape} -> ({rows}, {cols}) changes size")
    out = np.ascontiguousarray(a.data).reshape(rows, cols)
    shape = a.shape

    def bwd(adj):
        return (np.ascontiguousarray(adj).reshape(shape),)

    return record("reshape", out, (a,), bwd)


def rows_slice(a: Tensor, i0: int, i1: int) -> Tensor:
    """Rows [i0, i1) as an own-storage tensor; backward scatters."""
    if not (0 <= i0 < i1 <= a.rows):
        raise ValueError(f"rows_slice [{i0}, {i1}) out of range for {a.rows} rows")
    out = a.data[i0:i1].copy()
    shape = a.shape

    def bwd(adj):
        full = np.zeros(shape)
        full[i0:i1] = adj
        return (full,)

    return record("rows_slice", out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact GeLU x * Phi(x) with Phi the standard normal CDF.

    On a tape, the forward also computes the derivative Phi(x) + x * pdf(x),
    pdf the standard normal density, and the backward rule keeps that one
    array and neither x nor Phi(x). Off a tape no derivative is computed.
    """
    ad = a.data
    cdf = ad * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = ad * cdf
    if a.graph is None:
        return Tensor(out)
    d = ad * -0.5
    d *= ad
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= ad
    d += cdf

    def bwd(adj):
        return (adj * d,)

    return record("gelu", out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + exp(-x)) saturates exactly: exp(-x) overflows to inf below
    # about -709 (giving 0) and underflows to 0 above about 37 (giving 1).
    # Within 2.2e-16 of scipy's expit, and about 3x faster where numpy's
    # exp is vectorized.
    out = np.negative(a.data)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)

    def bwd(adj):
        d = adj * out
        d *= 1.0 - out
        return (d,)

    return record("sigmoid", out, (a,), bwd)


# Row sums go through einsum: numpy's axis-1 reductions are slow on rows
# this narrow (30 to 64 values).

def _row_mean(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean over each row of x, or of x * y; a column vector."""
    n = x.shape[1]
    total = np.einsum("ij->i", x) if y is None else np.einsum("ij,ij->i", x, y)
    total /= n
    return total[:, None]


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine.

    gain and bias are 1 x cols; variance is the population variance with an
    epsilon floor, so constant rows map to the bias.
    """
    for name, t in (("gain", gain), ("bias", bias)):
        if t.shape != (1, a.cols):
            raise ValueError(f"layer_norm {name} must be 1x{a.cols}, got {t.shape}")
    ad, gd = a.data, gain.data
    xhat = ad - _row_mean(ad)
    inv = _row_mean(xhat, xhat)
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = xhat * gd
    out += bias.data

    def bwd(adj):
        dgain = np.einsum("ij,ij->j", adj, xhat)[None, :]
        dbias = adj.sum(axis=0, keepdims=True)
        dx = adj * gd
        m2 = _row_mean(dx, xhat)
        dx -= _row_mean(dx)
        dx -= xhat * m2
        dx *= inv
        return dx, dgain, dbias

    return record("layer_norm", out, (a, gain, bias), bwd)


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """Cosine of the row-major flattenings of u and v, as a 1x1 tensor."""
    uf = u.data.ravel()
    vf = v.data.ravel()
    if uf.size != vf.size:
        raise ValueError(f"cosine_similarity sizes disagree: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(uf))
    nv = float(np.linalg.norm(vf))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine_similarity of a zero-norm vector")
    s = float(uf @ vf) / (nu * nv)
    out = np.array([[s]])
    ushape, vshape = u.shape, v.shape

    def bwd(adj):
        a0 = float(adj[0, 0])
        du = (vf / (nu * nv) - s * uf / (nu * nu)) * a0
        dv = (uf / (nu * nv) - s * vf / (nv * nv)) * a0
        return du.reshape(ushape), dv.reshape(vshape)

    return record("cosine_similarity", out, (u, v), bwd)


def logsumexp(terms: list[Tensor]) -> Tensor:
    """log(sum_k exp(t_k)) over 1x1 tensors, shifted by the detached max.

    Treating the max as a constant leaves the gradient unchanged (it is the
    softmax either way) while keeping every exp argument at or below zero.
    """
    if not terms:
        raise ValueError("logsumexp needs at least one term")
    m = max(t.item() for t in terms)
    shift = Tensor(np.array([[m]]))
    acc = exp(sub(terms[0], shift))
    for t in terms[1:]:
        acc = add(acc, exp(sub(t, shift)))
    return add(log(acc), shift)


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Learning rate, per-parameter Adam moments and the step counter."""

    lr: float = 1e-2
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> None:
    """One bias-corrected Adam update of ``params``, in place; ``grads`` is
    only read."""
    state.step_count += 1
    t = state.step_count
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        gr = grads[name]
        if gr.shape != p.shape:
            raise ValueError(f"adam_step: grad {gr.shape} vs param {p.shape} for {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * gr
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (gr * gr)
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


# --------------------------------------------------------------------------
# the training step
# --------------------------------------------------------------------------

# Most stacked activation values (windows x l x d) in one shard; a step's
# peak is two shards' tapes. A shard holds more than half of it, past where
# shards pay: 2 shards ran 0.92x of 1 at 7,680 values each, 1.33x at 11,520
# and 2.19x at 61,440 (train_standard, 2-CPU x86-64 host, one BLAS thread).
SHARD_ACTIVATION = 36864


def shard_count(activation: int) -> int:
    """How many shards a batch of ``activation`` stacked values runs as:
    the fewest that hold at most SHARD_ACTIVATION each, rounded up to an
    even count above one, so both lanes get equal work. A function of the
    batch alone, so a run is a function of its config on any host."""
    parts = -(-activation // SHARD_ACTIVATION)
    return parts + parts % 2 if parts > 1 else 1


def split(items: Sequence, parts: int) -> list:
    """``items`` cut in order into ``parts`` contiguous runs (fewer if there
    are fewer items, so none is empty) whose lengths differ by at most one."""
    parts = max(1, min(parts, len(items)))
    bounds = [k * len(items) // parts for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _new_lane() -> None:
    """Give the process the executor of descend's second lane. A forked
    child inherits its parent's executor but not its thread, so it gets a
    new one."""
    global _lane
    _lane = ThreadPoolExecutor(max_workers=1)


# One lane thread for the process, started by the first sharded step. A
# thread started per step can, on a loaded host, start before the last
# step's thread has released its glibc arena; glibc then opens a third
# arena, which M_TRIM_THRESHOLD never trims.
_new_lane()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lane)


def _shard_step(loss_of: Callable, shard, divisor: float) -> tuple:
    """One shard's loss value, gradients of loss / divisor and by-product;
    no backward (gradients None) when the loss is not finite."""
    loss, aux = loss_of(shard)
    value = loss.item()
    if not math.isfinite(value):
        return value, None, aux
    return value, loss.graph.backward(scale(loss, 1.0 / divisor)), aux


def descend(state: AdamState, params: dict[str, np.ndarray], batch: Sequence,
            per_item: int, loss_of: Callable, divisor: float,
            where: str) -> tuple[float, list]:
    """One Adam step on the sum of ``batch``'s losses, divided by
    ``divisor``. Returns the undivided total loss and, in shard order, each
    shard's by-product.

    The batch is cut into shard_count contiguous shards, given the stacked
    activation values each of its items holds (``per_item``).
    ``loss_of(shard)`` builds one shard's scalar loss on a graph of its own
    and returns it with a by-product (anything the caller wants back). The
    shards are cut into two contiguous lanes, the first run on the calling
    thread and the second on the process's one lane thread (none for one
    shard). The step waits for both lanes before it returns or any shard's
    exception reaches the caller, so every shard has finished by then.
    A lane runs its shards in turn, so at most two shard graphs are alive
    at once. Losses and gradients are summed in shard order, so one shard
    is the unsharded step bit for bit. A non-finite loss or gradient raises
    ValueError naming ``where`` before ``params`` or ``state`` change.
    """
    def run(lane):
        return [_shard_step(loss_of, shard, divisor) for shard in lane]

    lanes = split(split(batch, shard_count(len(batch) * per_item)), 2)
    later = [_lane.submit(run, lane) for lane in lanes[1:]]
    try:
        results = run(lanes[0])
    finally:
        wait(later)
    results += [r for f in later for r in f.result()]
    value, grads, _ = results[0]
    for more, _, _ in results[1:]:
        value += more
    if not math.isfinite(value):
        raise ValueError(f"non-finite loss {value} in {where}")
    for _, more, _ in results[1:]:
        for name, gr in more.items():
            grads[name] += gr
    for name, gr in grads.items():
        if not np.isfinite(gr).all():
            raise ValueError(f"non-finite gradient for {name!r} in {where}")
    adam_step(state, params, grads)
    return value, [aux for _, _, aux in results]
