"""The dual-path mixer model.

A window (l timesteps x m_vars sensors) is projected to l x d, then N mixer
layers run two residual MLP stacks in parallel: a temporal path on the l x d
orientation (mixing across sensors per timestep) and a spatial path on the
d x l transpose (mixing across timesteps per feature). Each layer exchanges
gated features between the paths; the gate output feeds only the opposite
path, never its own trunk. After the final layer the two orientations are
gated and summed into one l x d feature matrix, flattened to one l*d row,
and mapped to a scalar remaining-life estimate by a single linear head.

Ablation variants prune pieces of this layout:

  full  everything above
  oCm   cross-path gates removed (paths independent until the output merge)
  oCO   oCm plus the two output gates removed (merge is a plain sum)
  oO    full layers, output gates removed
  oT    temporal path only, its output gate kept
  oS    spatial path only, its output gate kept

A model's parameters are one table: an ordered dict from canonical names
(w_in, layer{i}.m1.w1, layer{i}.ln_t1.gain, ..., g_out_t.wg, w_r) to plain
float64 arrays. layout(config, variant) is the only place that decides
which arrays a variant owns, what they are called and in which order they
are initialized and saved. Every variant runs the same forward:
forward_batch maps n windows to n rows and calls dml_forward for each
layer, each forward reads its weights by name, a removed path is None
from input to merge, and a layer without cross gates is one whose table
has no layer{i}.g1.wg. With a graph, the arrays are registered on the
tape under those same names, which also key the gradients and the
optimizer state.

Each path's residual block is LayerNorm(GeLU(x W1) W2 + x), each gate
sigmoid(x Wg) * x and each cross-path merge LayerNorm(a + b), all written
as numerics primitives, so a full layer records 22 tape ops: 10 for the
two residual blocks, 6 for the two cross gates, 2 block transposes that
carry gated features to the other orientation, and 4 for the two merges.

All linear maps are bias-free; layer norms carry gain and bias.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nx
from .data import check_fields, from_fields
from .numerics import Tensor

CHECKPOINT_MAGIC = b"DMIX"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Shape hyperparameters: window length l, input variables m_vars,
    embedding width d, layer count n_layers, and the init seed; checked by
    data.check_fields and the range checks when built."""

    l: int
    m_vars: int
    d: int
    n_layers: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("l", "m_vars", "d", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("ModelConfig.seed must be >= 0")


@dataclass
class DualMixerParams:
    """A model: its shape, its variant, and every learnable array keyed by
    its canonical name, in layout(config, variant) order."""

    config: ModelConfig
    variant: str
    arrays: dict[str, np.ndarray]


# Which parts each variant keeps: (temporal path, spatial path, cross
# gates, output gates). An output gate exists only on a kept path.
_VARIANT_PARTS = {
    "full": (True, True, True, True),
    "oCm": (True, True, False, True),
    "oCO": (True, True, False, False),
    "oO": (True, True, True, False),
    "oT": (True, False, False, True),
    "oS": (False, True, False, True),
}
VARIANTS = tuple(_VARIANT_PARTS)


def layout(config: ModelConfig, variant: str) -> list[tuple[str, int, int]]:
    """(name, rows, cols) of every learnable array of a variant, in the fixed
    order used for initialization, checkpoints and tape registration.

    An MLP block ``{scope}.w1``/``.w2`` doubles its width in the hidden
    layer; a layer norm ``{scope}.gain``/``.bias`` is one row wide.
    """
    if variant not in _VARIANT_PARTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    temporal, spatial, cross, out_gates = _VARIANT_PARTS[variant]
    l, d = config.l, config.d

    def mlp(scope, width):
        return [(f"{scope}.w1", width, 2 * width), (f"{scope}.w2", 2 * width, width)]

    def ln(scope, width):
        return [(f"{scope}.gain", 1, width), (f"{scope}.bias", 1, width)]

    out = [("w_in", config.m_vars, d)]
    for i in range(config.n_layers):
        pre = f"layer{i}"
        if temporal:
            out += mlp(f"{pre}.m1", d) + ln(f"{pre}.ln_t1", d)
        if spatial:
            out += mlp(f"{pre}.m2", l) + ln(f"{pre}.ln_s1", l)
        if cross:
            out += [(f"{pre}.g1.wg", d, d), (f"{pre}.g2.wg", l, l)]
            out += ln(f"{pre}.ln_t2", d) + ln(f"{pre}.ln_s2", l)
    if out_gates and temporal:
        out.append(("g_out_t.wg", d, d))
    if out_gates and spatial:
        out.append(("g_out_s.wg", d, d))
    out.append(("w_r", l * d, 1))
    return out


def make_variant(config: ModelConfig, variant: str) -> DualMixerParams:
    """Build a freshly initialized model of the requested variant.

    Walking layout(): layer-norm gains start at 1 and biases at 0, and
    every other array is uniform(-a, a) with a = sqrt(1/rows), drawn from
    one generator in layout order, so a given (config, variant) pair
    initializes bit-identically every time.
    """
    names = layout(config, variant)
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, rows, cols in names:
        if name.endswith(".gain"):
            arrays[name] = np.ones((rows, cols))
        elif name.endswith(".bias"):
            arrays[name] = np.zeros((rows, cols))
        else:
            a = math.sqrt(1.0 / rows)
            arrays[name] = rng.uniform(-a, a, size=(rows, cols))
    return DualMixerParams(config=config, variant=variant, arrays=arrays)


def count_params(p: DualMixerParams) -> int:
    return sum(a.size for a in p.arrays.values())


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------
#
# Every forward takes the name-keyed arrays and a scope, and reads its
# weights as arrays[f"{scope}.<part>"]; with a graph they are registered on
# the tape under that same name, which is the key of their gradient.

def _leaf(arrays: dict[str, np.ndarray], graph: Optional[nx.Graph], name: str) -> Tensor:
    arr = arrays[name]
    return graph.parameter(name, arr) if graph is not None else Tensor(arr)


def gate_forward(arrays: dict[str, np.ndarray], x: Tensor,
                 graph: Optional[nx.Graph] = None, scope: str = "gate") -> Tensor:
    """sigmoid(x @ Wg) * x, elementwise."""
    return nx.hadamard(nx.sigmoid(nx.matmul(x, _leaf(arrays, graph, f"{scope}.wg"))), x)


def _norm(arrays, x: Tensor, graph, scope: str) -> Tensor:
    """LayerNorm of x with the gain and bias under scope."""
    return nx.layer_norm(x, _leaf(arrays, graph, f"{scope}.gain"),
                         _leaf(arrays, graph, f"{scope}.bias"))


def _mix(arrays, x: Optional[Tensor], graph, mlp_scope: str,
         ln_scope: str) -> Optional[Tensor]:
    """LayerNorm(GeLU(x @ W1) @ W2 + x), or None on a path the model does
    not have."""
    if x is None:
        return None
    hidden = nx.gelu(nx.matmul(x, _leaf(arrays, graph, f"{mlp_scope}.w1")))
    residual = nx.add(nx.matmul(hidden, _leaf(arrays, graph, f"{mlp_scope}.w2")), x)
    return _norm(arrays, residual, graph, ln_scope)


def dml_forward(arrays: dict[str, np.ndarray], x_t: Optional[Tensor],
                x_s: Optional[Tensor], graph: Optional[nx.Graph] = None,
                scope: str = "layer0") -> tuple[Optional[Tensor], Optional[Tensor]]:
    """One mixer layer on both paths.

    x_t is (batch*l) x d, x_s is (batch*d) x l; with batch > 1 the samples
    are stacked vertically and every op here is row-shared, so the result
    equals per-sample application. A path the variant removes (oT, oS) is
    None on the way in and out. When the layer has no cross gates (no
    ``{scope}.g1.wg`` in arrays) the residual stages are returned directly
    (paths stay independent); otherwise both paths exist and the batch is
    read off their shapes.
    """
    z_t = _mix(arrays, x_t, graph, f"{scope}.m1", f"{scope}.ln_t1")
    z_s = _mix(arrays, x_s, graph, f"{scope}.m2", f"{scope}.ln_s1")
    if f"{scope}.g1.wg" not in arrays:
        return z_t, z_s
    batch = z_t.rows // z_s.cols
    from_spatial = nx.block_transpose(gate_forward(arrays, z_s, graph, f"{scope}.g2"), batch)
    from_temporal = nx.block_transpose(gate_forward(arrays, z_t, graph, f"{scope}.g1"), batch)
    out_t = _norm(arrays, nx.add(from_spatial, z_t), graph, f"{scope}.ln_t2")
    out_s = _norm(arrays, nx.add(from_temporal, z_s), graph, f"{scope}.ln_s2")
    return out_t, out_s


def forward_batch(p: DualMixerParams, windows,
                  graph: Optional[nx.Graph] = None) -> tuple[Tensor, Tensor]:
    """Forward for n windows given as an n x l x m_vars array or a sequence
    of l x m_vars arrays; returns the merged features as n x (l*d), each
    row a window's l x d matrix read row-major, and the life estimates as
    n x 1. The stacking into (n*l)-row matrices and the per-window
    transposes stay in here: every op is 2-D and row-shared, so a batch is
    bit-identical to its windows run one by one. A removed path is None
    through the layers; a kept path is gated at the output if it has a gate.
    """
    cfg, arrays = p.config, p.arrays
    try:
        stack = np.asarray(windows, dtype=np.float64)
    except ValueError as exc:
        raise nx.ShapeError(f"windows differ in shape: {exc}") from None
    if stack.ndim != 3 or stack.shape[1:] != (cfg.l, cfg.m_vars) or not len(stack):
        raise nx.ShapeError(
            f"expected n >= 1 windows of {cfg.l} x {cfg.m_vars}, got {stack.shape}")
    batch = len(stack)
    temporal, spatial, _, _ = _VARIANT_PARTS[p.variant]
    x = Tensor(stack.reshape(batch * cfg.l, cfg.m_vars))
    proj = nx.matmul(x, _leaf(arrays, graph, "w_in"))
    x_t = proj if temporal else None
    x_s = nx.block_transpose(proj, batch) if spatial else None
    for i in range(cfg.n_layers):
        x_t, x_s = dml_forward(arrays, x_t, x_s, graph, f"layer{i}")
    s_feat = None if x_s is None else nx.block_transpose(x_s, batch)
    if "g_out_t.wg" in arrays:
        x_t = gate_forward(arrays, x_t, graph, "g_out_t")
    if "g_out_s.wg" in arrays:
        s_feat = gate_forward(arrays, s_feat, graph, "g_out_s")
    parts = [f for f in (x_t, s_feat) if f is not None]
    merged = parts[0] if len(parts) == 1 else nx.add(*parts)
    features = nx.reshape(merged, batch, cfg.l * cfg.d)
    return features, nx.matmul(features, _leaf(arrays, graph, "w_r"))


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------
#
# Byte layout (little-endian throughout):
#   bytes 0..3   magic b"DMIX"
#   bytes 4..7   u32 format version (currently 1)
#   bytes 8..11  u32 header length H
#   bytes 12..   H bytes of UTF-8 JSON:
#                  {"l", "m_vars", "d", "n_layers", "seed", "variant",
#                   "arrays": [[name, rows, cols], ...]}
#   then, for each header entry in order, rows*cols float64 values,
#   row-major, little-endian, no padding.

def save_checkpoint(path: str, p: DualMixerParams) -> None:
    header = {
        **dataclasses.asdict(p.config), "variant": p.variant,
        "arrays": [[name, int(a.shape[0]), int(a.shape[1])] for name, a in p.arrays.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
        for a in p.arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> DualMixerParams:
    """Rebuild a model from a checkpoint; round-trips bit-exactly.

    The header's array list must equal layout() for its config and variant.
    Any file that does not hold exactly one well-formed checkpoint (bad
    magic or version, a cut header, a malformed or unknown header field,
    missing array data, a NaN or infinite weight, or trailing bytes) raises
    ValueError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    offset = 12 + hlen
    if offset > len(blob):
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = {**json.loads(blob[12:offset].decode("utf-8"))}  # TypeError unless an object
        variant, listed = header.pop("variant"), [tuple(entry) for entry in header.pop("arrays")]
        config = from_fields(ModelConfig, header, "model config")
        if any([type(v) for v in entry] != [str, int, int] for entry in listed):
            raise ValueError("array entries must be [name, rows, cols] with integer sizes")
        # every layer owns several arrays; this bounds the layout walk below
        if config.n_layers > len(listed):
            raise ValueError(f"{config.n_layers} layers but {len(listed)} arrays")
        expected = layout(config, variant)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from exc
    if [name for name, _, _ in listed] != [name for name, _, _ in expected]:
        raise ValueError(f"{path}: array list does not match variant structure")
    arrays = {}
    for entry, (name, rows, cols) in zip(listed, expected):
        if entry != (name, rows, cols):
            raise ValueError(f"{path}: shape mismatch for {name}")
        nbytes = 8 * rows * cols
        if offset + nbytes > len(blob):
            raise ValueError(f"{path}: truncated array data for {name}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=rows * cols,
                                     offset=offset).reshape(rows, cols).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: non-finite values in array {name}")
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last array")
    return DualMixerParams(config=config, variant=variant, arrays=arrays)
