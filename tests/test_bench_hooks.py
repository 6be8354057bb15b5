"""The benchmark's traced run wraps program functions by name.

bench/tracing.py replaces module attributes such as ``numerics.matmul`` or
``fsgri.dw_info_nce`` for the duration of a traced run, and reads the
``graph`` and ``scope`` arguments of the model forwards. Deleting or
renaming one of them breaks ``bench/run.py --trace 1`` with an
AttributeError, which nothing else in this suite runs; these tests catch it.
"""

import inspect
import types
from pathlib import Path

import dualmixer.data as dd
import dualmixer.fsgri as fs
import dualmixer.harness as hx
import dualmixer.model as dm
import dualmixer.numerics as nx
import dualmixer.synthdata as sx

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
