"""The dual-path mixer model.

A window (l timesteps x m_vars sensors) is projected to l x d, then N mixer
layers run two residual MLP stacks in parallel: a temporal path on the l x d
orientation (mixing across sensors per timestep) and a spatial path on the
d x l transpose (mixing across timesteps per feature). Each layer exchanges
gated features between the paths; the gate output feeds only the opposite
path, never its own trunk. After the final layer the two orientations are
gated and summed into one l x d feature matrix, flattened, and mapped to a
scalar remaining-life estimate by a single linear head.

Ablation variants prune pieces of this layout:

  full  everything above
  oCm   cross-path gates removed (paths independent until the output merge)
  oCO   oCm plus the two output gates removed (merge is a plain sum)
  oO    full layers, output gates removed
  oT    temporal path only, its output gate kept
  oS    spatial path only, its output gate kept

Every variant runs the same forward: forward_batch calls dml_forward for
each layer, and a pruned piece is None in the parameters and is skipped
there (a removed path is carried as None from input to merge).

All linear maps are bias-free; layer norms carry gain and bias. Parameters
are plain float64 arrays here and are wrapped onto a tape by the forward
functions when a graph is supplied.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nx
from .numerics import Tensor

VARIANTS = ("full", "oCm", "oCO", "oO", "oT", "oS")

CHECKPOINT_MAGIC = b"DMIX"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Shape hyperparameters: window length l, input variables m_vars,
    embedding width d, layer count n_layers, and the init seed."""

    l: int
    m_vars: int
    d: int
    n_layers: int
    seed: int = 0

    def validate(self) -> None:
        for name in ("l", "m_vars", "d", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")


@dataclass
class MlpBlockParams:
    """Two bias-free linear maps with a GeLU between; hidden width is twice
    the output width."""

    W1: np.ndarray  # in_dim x (2 * out_dim)
    W2: np.ndarray  # (2 * out_dim) x out_dim


@dataclass
class GateParams:
    """A square sigmoid mask: sigmoid(x @ Wg) * x."""

    Wg: np.ndarray


@dataclass
class LayerNormParams:
    gain: np.ndarray  # 1 x width
    bias: np.ndarray  # 1 x width


@dataclass
class DmlLayerParams:
    """One mixer layer. Cross-exchange fields are None for variants that
    remove them; a whole path's fields are None for oT/oS."""

    m1: Optional[MlpBlockParams]      # temporal MLP, d -> d
    ln_t1: Optional[LayerNormParams]  # width d
    m2: Optional[MlpBlockParams]      # spatial MLP, l -> l
    ln_s1: Optional[LayerNormParams]  # width l
    g1: Optional[GateParams] = None   # on temporal features, dim d
    g2: Optional[GateParams] = None   # on spatial features, dim l
    ln_t2: Optional[LayerNormParams] = None
    ln_s2: Optional[LayerNormParams] = None


@dataclass
class DualMixerParams:
    config: ModelConfig
    variant: str
    w_in: np.ndarray                    # m_vars x d
    layers: list[DmlLayerParams]
    g_out_t: Optional[GateParams]       # dim d
    g_out_s: Optional[GateParams]       # dim d
    w_r: np.ndarray                     # (l * d) x 1


def _has_temporal(variant: str) -> bool:
    return variant != "oS"

def _has_spatial(variant: str) -> bool:
    return variant != "oT"

def _has_cross(variant: str) -> bool:
    return variant in ("full", "oO")

def _has_output_gates(variant: str) -> bool:
    return variant in ("full", "oCm", "oT", "oS")


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def _linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(1.0 / fan_in)
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _mlp(rng, in_dim: int, out_dim: int) -> MlpBlockParams:
    return MlpBlockParams(W1=_linear(rng, in_dim, 2 * out_dim),
                          W2=_linear(rng, 2 * out_dim, out_dim))


def _ln(width: int) -> LayerNormParams:
    return LayerNormParams(gain=np.ones((1, width)), bias=np.zeros((1, width)))


def make_variant(config: ModelConfig, variant: str) -> DualMixerParams:
    """Build a freshly initialized model of the requested variant.

    Weights are uniform(-a, a) with a = sqrt(1/fan_in), drawn in the fixed
    order of named_arrays(); layer-norm gains start at 1 and biases at 0, so
    a given (config, variant) pair initializes bit-identically every time.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    config.validate()
    l, m_vars, d = config.l, config.m_vars, config.d
    rng = np.random.default_rng(config.seed)
    w_in = _linear(rng, m_vars, d)
    layers = []
    for _ in range(config.n_layers):
        layer = DmlLayerParams(m1=None, ln_t1=None, m2=None, ln_s1=None)
        if _has_temporal(variant):
            layer.m1 = _mlp(rng, d, d)
            layer.ln_t1 = _ln(d)
        if _has_spatial(variant):
            layer.m2 = _mlp(rng, l, l)
            layer.ln_s1 = _ln(l)
        if _has_cross(variant):
            layer.g1 = GateParams(Wg=_linear(rng, d, d))
            layer.g2 = GateParams(Wg=_linear(rng, l, l))
            layer.ln_t2 = _ln(d)
            layer.ln_s2 = _ln(l)
        layers.append(layer)
    g_out_t = g_out_s = None
    if _has_output_gates(variant):
        if _has_temporal(variant):
            g_out_t = GateParams(Wg=_linear(rng, d, d))
        if _has_spatial(variant):
            g_out_s = GateParams(Wg=_linear(rng, d, d))
    w_r = _linear(rng, l * d, 1)
    return DualMixerParams(config=config, variant=variant, w_in=w_in,
                           layers=layers, g_out_t=g_out_t, g_out_s=g_out_s,
                           w_r=w_r)


def named_arrays(p: DualMixerParams) -> dict[str, np.ndarray]:
    """All learnable arrays keyed by their canonical names, in the fixed
    order used for initialization and checkpoints. Forward passes register
    tape parameters under exactly these names."""
    out: dict[str, np.ndarray] = {"w_in": p.w_in}
    for i, layer in enumerate(p.layers):
        pre = f"layer{i}"
        if layer.m1 is not None:
            out[f"{pre}.m1.w1"] = layer.m1.W1
            out[f"{pre}.m1.w2"] = layer.m1.W2
            out[f"{pre}.ln_t1.gain"] = layer.ln_t1.gain
            out[f"{pre}.ln_t1.bias"] = layer.ln_t1.bias
        if layer.m2 is not None:
            out[f"{pre}.m2.w1"] = layer.m2.W1
            out[f"{pre}.m2.w2"] = layer.m2.W2
            out[f"{pre}.ln_s1.gain"] = layer.ln_s1.gain
            out[f"{pre}.ln_s1.bias"] = layer.ln_s1.bias
        if layer.g1 is not None:
            out[f"{pre}.g1.wg"] = layer.g1.Wg
            out[f"{pre}.g2.wg"] = layer.g2.Wg
            out[f"{pre}.ln_t2.gain"] = layer.ln_t2.gain
            out[f"{pre}.ln_t2.bias"] = layer.ln_t2.bias
            out[f"{pre}.ln_s2.gain"] = layer.ln_s2.gain
            out[f"{pre}.ln_s2.bias"] = layer.ln_s2.bias
    if p.g_out_t is not None:
        out["g_out_t.wg"] = p.g_out_t.Wg
    if p.g_out_s is not None:
        out["g_out_s.wg"] = p.g_out_s.Wg
    out["w_r"] = p.w_r
    return out


def count_params(p: DualMixerParams) -> int:
    return sum(a.size for a in named_arrays(p).values())


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------

def _leaf(graph: Optional[nx.Graph], name: str, arr: np.ndarray) -> Tensor:
    return graph.parameter(name, arr) if graph is not None else Tensor(arr)


def mlp_block_forward(p: MlpBlockParams, x: Tensor,
                      graph: Optional[nx.Graph] = None, scope: str = "mlp") -> Tensor:
    """GeLU(x @ W1) @ W2, shared across rows."""
    w1 = _leaf(graph, f"{scope}.w1", p.W1)
    w2 = _leaf(graph, f"{scope}.w2", p.W2)
    return nx.matmul(nx.gelu(nx.matmul(x, w1)), w2)


def gate_forward(p: GateParams, x: Tensor,
                 graph: Optional[nx.Graph] = None, scope: str = "gate") -> Tensor:
    """sigmoid(x @ Wg) * x, elementwise."""
    wg = _leaf(graph, f"{scope}.wg", p.Wg)
    return nx.hadamard(nx.sigmoid(nx.matmul(x, wg)), x)


def _ln_forward(p: LayerNormParams, x: Tensor, graph, scope: str) -> Tensor:
    gain = _leaf(graph, f"{scope}.gain", p.gain)
    bias = _leaf(graph, f"{scope}.bias", p.bias)
    return nx.layer_norm(x, gain, bias)


def _mix(mlp: Optional[MlpBlockParams], ln: Optional[LayerNormParams],
         x: Optional[Tensor], graph, mlp_scope: str, ln_scope: str) -> Optional[Tensor]:
    """LayerNorm(MLP(x) + x), or None on a path the layer does not have."""
    if mlp is None:
        return None
    return _ln_forward(ln, nx.add(mlp_block_forward(mlp, x, graph, mlp_scope), x),
                       graph, ln_scope)


def dml_forward(p: DmlLayerParams, x_t: Optional[Tensor], x_s: Optional[Tensor],
                graph: Optional[nx.Graph] = None, scope: str = "layer0",
                batch: int = 1) -> tuple[Optional[Tensor], Optional[Tensor]]:
    """One mixer layer on both paths.

    x_t is (batch*l) x d, x_s is (batch*d) x l; with batch > 1 the samples
    are stacked vertically and every op here is row-shared, so the result
    equals per-sample application. A path the variant removes (oT, oS) is
    None on the way in and out. When the layer has no cross gates the
    residual stages are returned directly (paths stay independent).
    """
    z_t = _mix(p.m1, p.ln_t1, x_t, graph, f"{scope}.m1", f"{scope}.ln_t1")
    z_s = _mix(p.m2, p.ln_s1, x_s, graph, f"{scope}.m2", f"{scope}.ln_s1")
    if p.g1 is None:
        return z_t, z_s
    from_spatial = nx.block_transpose(gate_forward(p.g2, z_s, graph, f"{scope}.g2"), batch)
    from_temporal = nx.block_transpose(gate_forward(p.g1, z_t, graph, f"{scope}.g1"), batch)
    out_t = _ln_forward(p.ln_t2, nx.add(from_spatial, z_t), graph, f"{scope}.ln_t2")
    out_s = _ln_forward(p.ln_s2, nx.add(from_temporal, z_s), graph, f"{scope}.ln_s2")
    return out_t, out_s


def forward_batch(p: DualMixerParams, x: Tensor, batch: int,
                  graph: Optional[nx.Graph] = None) -> tuple[Tensor, Tensor]:
    """Forward for ``batch`` windows stacked vertically.

    x is (batch*l) x m_vars; returns the merged features as (batch*l) x d
    and the life estimates as a batch x 1 tensor. Row-shared ops plus
    per-block transposes make this bit-identical to running each window
    through model_forward separately. Every variant takes this one path: a
    removed path is None through the layers, and each remaining path is
    gated at the output when the variant has its gate.
    """
    cfg = p.config
    if x.shape != (batch * cfg.l, cfg.m_vars):
        raise nx.ShapeError(
            f"expected input {(batch * cfg.l, cfg.m_vars)} for batch={batch}, got {x.shape}")
    proj = nx.matmul(x, _leaf(graph, "w_in", p.w_in))
    x_t = proj if _has_temporal(p.variant) else None
    x_s = nx.block_transpose(proj, batch) if _has_spatial(p.variant) else None
    for i, layer in enumerate(p.layers):
        x_t, x_s = dml_forward(layer, x_t, x_s, graph, f"layer{i}", batch)
    s_feat = None if x_s is None else nx.block_transpose(x_s, batch)
    if p.g_out_t is not None:
        x_t = gate_forward(p.g_out_t, x_t, graph, "g_out_t")
    if p.g_out_s is not None:
        s_feat = gate_forward(p.g_out_s, s_feat, graph, "g_out_s")
    parts = [f for f in (x_t, s_feat) if f is not None]
    merged = parts[0] if len(parts) == 1 else nx.add(*parts)
    flat = nx.reshape(merged, batch, cfg.l * cfg.d)
    rul = nx.matmul(flat, _leaf(graph, "w_r", p.w_r))
    return merged, rul


def model_forward(p: DualMixerParams, x: Tensor,
                  graph: Optional[nx.Graph] = None) -> tuple[Tensor, Tensor]:
    """Single-window forward: merged l x d features and a 1x1 life estimate."""
    return forward_batch(p, x, 1, graph)


def predict(p: DualMixerParams, window: np.ndarray) -> float:
    """Untaped scalar prediction for one raw window array."""
    _, rul = model_forward(p, Tensor(window))
    return rul.item()


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
    arrays = named_arrays(p)
    cfg = p.config
    header = {
        "l": cfg.l, "m_vars": cfg.m_vars, "d": cfg.d,
        "n_layers": cfg.n_layers, "seed": cfg.seed, "variant": p.variant,
        "arrays": [[name, int(a.shape[0]), int(a.shape[1])] for name, a in arrays.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> DualMixerParams:
    """Rebuild a model from a checkpoint; round-trips bit-exactly.

    Any file that does not hold exactly one well-formed checkpoint (bad
    magic or version, a cut or malformed header, missing array data, or
    bytes after the last array) raises ValueError.
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
        header = json.loads(blob[12:offset].decode("utf-8"))
        config = ModelConfig(l=header["l"], m_vars=header["m_vars"], d=header["d"],
                             n_layers=header["n_layers"], seed=header["seed"])
        p = make_variant(config, header["variant"])
        listed = [(str(name), int(rows), int(cols)) for name, rows, cols in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from exc
    arrays = named_arrays(p)
    if [name for name, _, _ in listed] != list(arrays):
        raise ValueError(f"{path}: array list does not match variant structure")
    for name, rows, cols in listed:
        dest = arrays[name]
        if dest.shape != (rows, cols):
            raise ValueError(f"{path}: shape mismatch for {name}")
        if offset + dest.nbytes > len(blob):
            raise ValueError(f"{path}: truncated array data for {name}")
        dest[...] = np.frombuffer(blob, dtype="<f8", count=dest.size,
                                  offset=offset).reshape(rows, cols)
        offset += dest.nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last array")
    return p
