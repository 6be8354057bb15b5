"""The benchmark's entry points into the program.

bench/tracing.py replaces module attributes such as ``numerics.matmul`` or
``fsgri.dw_info_nce`` for the duration of a traced run, and reads the
``graph`` and ``scope`` arguments of the model forwards. Deleting or
renaming one of them breaks ``bench/run.py --trace 1`` with an
AttributeError, which nothing else in this suite runs; these tests catch it.
They also check that every tape op a training step records is one the
tracer wraps.

An untraced run calls the program through bench/workloads.py. The last
test makes each workload's first call at the benchmark's check seed and
shape ``tiny``, and compares it with bench/reference.json at the
benchmark's own tolerance, so a changed signature, field or number fails
here rather than only when the benchmark runs.
"""

import ast
import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from conftest import Stopped, spy_descend

import dualmixer.data as dd
import dualmixer.fsgri as fs
import dualmixer.harness as hx
import dualmixer.model as dm
import dualmixer.numerics as nx
import dualmixer.synthdata as sx

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"
MODULES = {"numerics": nx, "model": dm, "fsgri": fs, "harness": hx,
           "data": dd, "synthdata": sx}


def load_tracing():
    # executed from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def traced_targets():
    tracing = load_tracing()
    return tracing.Probe(MODULES, "adam_step", trace=True)._targets()


def test_every_traced_attribute_exists():
    targets = traced_targets()
    assert len(targets) > 20
    missing = [name for owner, attr, name in targets if not hasattr(owner, attr)]
    assert missing == []


def test_data_pipeline_targets_exist():
    tracing = load_tracing()
    missing = [f"{mod}.{attr}" for mod, attr in tracing.DATA_TARGETS
               if not hasattr(MODULES[mod], attr)]
    assert missing == []


def test_model_forwards_take_graph_and_scope():
    # the tracer binds these arguments by name to attribute tape nodes to
    # layers; forward_batch has no scope and is charged to "head"
    assert "graph" in inspect.signature(dm.forward_batch).parameters
    layer = inspect.signature(dm.dml_forward).parameters
    assert "graph" in layer and "scope" in layer


def load_workloads():
    # executed from source like tracing.py; registered in sys.modules only
    # while it runs, since its dataclasses look their module up there
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def check_tolerance() -> tuple[float, float]:
    """CHECK_RTOL and CHECK_ATOL as bench/run.py sets them; run.py itself is
    not run, as it sets BLAS thread variables and extends sys.path."""
    tree = ast.parse((BENCH / "run.py").read_text())
    found = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id.startswith("CHECK_")}
    return found["CHECK_RTOL"], found["CHECK_ATOL"]


@pytest.mark.parametrize("name", ["fsgri_train", "standard_train", "predict"])
def test_workload_first_call_matches_reference(name):
    workloads = load_workloads()
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["seed"] == workloads.CHECK_SEED
    rtol, atol = check_tolerance()
    work = workloads.WORKLOADS[name](MODULES, workloads.SHAPES["tiny"],
                                     workloads.CHECK_SEED)
    _, parts = work.call(0)
    expect = reference["shapes"]["tiny"][name]
    assert all(work.outputs_ok(parts))
    assert len(parts) == len(expect)
    for got, want in zip(parts, expect):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.mark.parametrize("mode", ["fsgri", "standard"])
def test_tracer_sees_every_tape_op(mode, monkeypatch):
    """Every node a training step puts on the tape is a leaf, the FSGRI
    loss node (charged to the loss) or a numerics op the tracer wraps by
    name. An op it does not know would run untimed and uncounted, and its
    backward would land in numerics.other_ops."""
    tracing = load_tracing()
    cfg = hx.RunConfig(dataset="synth", mode=mode, variant="full", seed=0, w=8,
                       d=4, n_layers=2, b=12, m=2, epochs=1)
    train, _ = hx.load_dataset(cfg)
    params = dm.make_variant(
        dm.ModelConfig(l=cfg.w, m_vars=train[0].values.shape[1], d=cfg.d,
                       n_layers=cfg.n_layers, seed=cfg.seed), cfg.variant)
    seen = {}
    spy_descend(monkeypatch, seen, stop=True)
    with pytest.raises(Stopped):
        hx.train(params, train, cfg)
    ops = set().union(*seen["ops"])
    assert sorted(ops - {"param", "fsgri_batch_loss"} - set(tracing.OPS)) == []
    assert {"matmul", "gelu", "sigmoid", "layer_norm"} <= ops
