"""Behaviour fixture for all six variants at w8 d4 N2.

tests/golden.json holds, per variant, what the program computed when the
fixture was recorded: the DMIX bytes' SHA-256 of a freshly initialized
model, its features and life estimates on a fixed synth batch, and, for
each training mode, the first batch's loss and every parameter gradient,
taken at the trainers' own call of numerics.descend.

Each array is compared within GOLDEN_TOL of its own largest magnitude.
Reordered floating-point work (a faster kernel, a fused node) moves these
values by under 1e-14 of that scale; a change in what the program computes
moves them by far more than 1e-10. Multi-epoch loss traces are left out on
purpose: training amplifies ulp-level differences to about 1e-2 within two
epochs, so a trace cannot tell the two apart.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when
the program's meaning changes on purpose, and say why in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dualmixer.harness as hx
import dualmixer.model as dm
import dualmixer.numerics as nx

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_TOL = 1e-10
# windows of the fixed batch whose features and estimates are recorded
FEATURE_WINDOWS = (0, 37, 211, 650)


class _FirstBatch(Exception):
    """Stops a trainer at its first optimizer step."""


def golden_config(mode: str, variant: str) -> hx.RunConfig:
    return hx.RunConfig(dataset="synth", mode=mode, variant=variant, seed=3,
                        b=32, w=8, sl=1, epochs=1, n_layers=2, d=4)


def first_batch(monkeypatch, params, train, cfg) -> dict:
    """Loss and gradients of the trainer's first step; nothing is updated."""
    seen = {}

    def capture(state, arrays, loss, divisor, where):
        grads = loss.graph.backward(nx.scale(loss, 1.0 / divisor))
        seen.update(loss=loss.item(), divisor=divisor, grads=grads)
        raise _FirstBatch

    with monkeypatch.context() as m:
        m.setattr(nx, "descend", capture)
        trainer = hx.train_standard if cfg.mode == "standard" else hx.train_fsgri
        with pytest.raises(_FirstBatch):
            trainer(params, train, cfg)
    return seen


def compute(monkeypatch, variant: str, tmp_path: Path) -> dict:
    cfg = golden_config("standard", variant)
    train, _ = hx.load_dataset(cfg)
    model_cfg = dm.ModelConfig(l=cfg.w, m_vars=train[0].values.shape[1], d=cfg.d,
                               n_layers=cfg.n_layers, seed=cfg.seed)
    fresh = dm.make_variant(model_cfg, variant)
    ckpt = tmp_path / f"{variant}.ckpt"
    dm.save_checkpoint(str(ckpt), fresh)
    feats, life = dm.forward_batch(fresh, [train[i].values for i in FEATURE_WINDOWS])
    out = {"dmix_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
           "features": feats.data, "life": life.data}
    for mode in hx.MODES:
        out[mode] = first_batch(monkeypatch, dm.make_variant(model_cfg, variant), train,
                                golden_config(mode, variant))
    return out


def to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def assert_close(got, want, where: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, where
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    assert err <= GOLDEN_TOL * scale, f"{where}: off by {err:.3g} at scale {scale:.3g}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("variant", dm.VARIANTS)
def test_variant_matches_golden(variant, golden, monkeypatch, tmp_path):
    want = golden[variant]
    got = compute(monkeypatch, variant, tmp_path)
    # initialization and the checkpoint format must not move at all
    assert got["dmix_sha256"] == want["dmix_sha256"]
    assert_close(got["features"], want["features"], f"{variant} features")
    assert_close(got["life"], want["life"], f"{variant} life")
    for mode in hx.MODES:
        assert got[mode]["divisor"] == want[mode]["divisor"]
        assert_close(got[mode]["loss"], want[mode]["loss"], f"{variant} {mode} loss")
        assert list(got[mode]["grads"]) == list(want[mode]["grads"])
        for name, grad in want[mode]["grads"].items():
            assert_close(got[mode]["grads"][name], grad, f"{variant} {mode} d{name}")


def record() -> None:
    record_patch = pytest.MonkeyPatch()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            table = {v: to_json(compute(record_patch, v, Path(tmp))) for v in dm.VARIANTS}
    finally:
        record_patch.undo()
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    record()
