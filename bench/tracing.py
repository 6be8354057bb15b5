"""Step clock and per-layer tracer that observe dualmixer from outside.

Nothing in ``src/dualmixer`` is edited. The program looks its collaborators
up as module attributes at call time (``nx.matmul``, ``dm.forward_batch``,
``build_group`` inside ``fsgri`` ...), so replacing those attributes for the
duration of a run puts a timer around every call, and restoring them puts
the original functions back.

Two probes exist:

* ``Probe(boundary, trace=False)`` wraps only the step boundary (the end of
  ``numerics.adam_step`` for training, of ``model.forward_batch`` for
  prediction) and records a timestamp there. Every other function the
  program calls is the original. Untimed runs use this.
* ``Probe(boundary, trace=True)`` also wraps every numerics op, Adam,
  ``Graph.backward``, the model forwards and the fsgri sampler and losses.
  Before ``Graph.backward`` runs it wraps the backward rule of each tape
  node, and charges each node to the mixer layer, the rest of the model
  ("head") or the loss construction whose forward call created it.

Spans are kept in memory as ``[name, start, end, parent, step, info]`` and
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
import weakref
from typing import Callable, Optional

# Public tape ops. logsumexp is composed of exp/sub/add/log calls, which
# are its child spans, so self times never double count.
OPS = ("matmul", "transpose", "block_transpose", "add", "sub", "hadamard",
       "scale", "exp", "log", "sum_all", "reshape", "rows_slice", "gelu",
       "sigmoid", "layer_norm", "cosine_similarity", "logsumexp")

# Ops whose forward and backward times are reported on their own; the rest
# are summed into numerics.other_ops.
TIMED_OPS = ("gelu", "sigmoid", "layer_norm", "matmul", "hadamard", "add",
             "block_transpose", "rows_slice", "cosine_similarity")

# Mixer layers reported at the reference shape (N6).
MAX_LAYERS = 6

# Top-level spans of a training step that are not loss construction.
_STEP_PARTS = ("model.forward_batch", "numerics.Graph.backward",
               "numerics.adam_step", "fsgri.build_group")

# Functions the data pipeline calls through module attributes; timed only
# while loading the dataset.
DATA_TARGETS = (("harness", "load_dataset"), ("data", "build_training_windows"),
                ("data", "fit_minmax"), ("synthdata", "generate"))


def _computed_work(op: str, args) -> Optional[dict]:
    """Forward work of one op call, computed from operand sizes."""
    if op == "matmul":
        a, b = args[0].data, args[1].data
        return {"flop": 2 * a.shape[0] * a.shape[1] * b.shape[1]}
    if op in ("gelu", "sigmoid"):
        return {"bytes": 2 * args[0].data.nbytes}
    if op == "layer_norm":
        return {"bytes": 2 * args[0].data.nbytes + args[1].data.nbytes
                + args[2].data.nbytes}
    return None


class Probe:
    """Replaces module attributes with timing wrappers while installed.

    ``modules`` maps the short names ``numerics``, ``model``, ``fsgri``,
    ``harness``, ``data`` and ``synthdata`` to the imported modules.
    ``boundary`` is ``"adam_step"`` or ``"forward_batch"``.
    ``loss_label`` names the bucket that loss-construction nodes go to.
    """

    def __init__(self, modules: dict, boundary: str, trace: bool,
                 loss_label: str = "loss"):
        if boundary not in ("adam_step", "forward_batch"):
            raise ValueError(f"unknown step boundary {boundary!r}")
        self.mods = modules
        self.boundary = boundary
        self.trace = trace
        self.loss_label = loss_label
        self.spans: list[list] = []
        self.steps: list[tuple[int, float, float]] = []  # (id, start, end)
        self._stack: list[int] = []
        self._step_id = 0
        self._step_start = 0.0
        self._saved: list[tuple[object, str, object]] = []
        self._ranges: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- installation -----------------------------------------------------

    def _targets(self) -> list[tuple[object, str, str]]:
        nx, dm, fs = self.mods["numerics"], self.mods["model"], self.mods["fsgri"]
        if not self.trace:
            owner = nx if self.boundary == "adam_step" else dm
            return [(owner, self.boundary, "")]
        out = [(nx, op, f"numerics.{op}") for op in OPS]
        out += [(nx, "adam_step", "numerics.adam_step"),
                (nx.Graph, "backward", "numerics.Graph.backward"),
                (dm, "forward_batch", "model.forward_batch"),
                (dm, "dml_forward", "model.dml_forward"),
                (fs, "build_group", "fsgri.build_group"),
                (fs, "dw_info_nce", "fsgri.dw_info_nce"),
                (fs, "mse_all", "fsgri.mse_all")]
        return out

    def install(self) -> "Probe":
        if self._saved:
            raise RuntimeError("probe already installed")
        for owner, attr, name in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, attr, fn))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- steps --------------------------------------------------------------

    def begin_call(self) -> None:
        """Marks the start of a call into the program; its first step is
        timed from here. Spans left after the previous call's last boundary
        belong to no step."""
        self._step_id += 1
        self._step_start = time.perf_counter()

    def _boundary(self, now: float) -> None:
        self.steps.append((self._step_id, self._step_start, now))
        self._step_id += 1
        self._step_start = now

    def step_seconds(self, first: int = 0) -> list[float]:
        return [end - start for _, start, end in self.steps[first:]]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, attr: str, fn: Callable) -> Callable:
        at_boundary = attr == self.boundary
        if not self.trace:
            def clock(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._boundary(time.perf_counter())
                return out
            return clock

        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        op = attr if name == f"numerics.{attr}" and attr in OPS else None

        def traced(*args, **kwargs):
            info = None
            if op is not None:
                info = _computed_work(op, args)
            elif attr == "backward":
                info = self._wrap_nodes(args[0])
            elif attr in ("forward_batch", "dml_forward"):
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
                graph = bound["graph"]
                info = {"scope": bound.get("scope", "head")}
                if graph is not None:
                    info["n0"] = len(graph.nodes)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._step_id, info]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
                if info is not None and "n0" in info:
                    graph = bound["graph"]
                    info["n1"] = len(graph.nodes)
                    self._ranges.setdefault(graph, []).append(
                        (info["scope"], info["n0"], info["n1"]))
                if at_boundary:
                    self._boundary(t1)

        return traced

    def _node_owners(self, graph, n: int) -> list[str]:
        """Owner label per node id: the mixer layer whose dml_forward made
        it, "head" for the rest of forward_batch, the loss label for nodes
        made after the forward, "other" before it."""
        owner = ["other"] * n
        ranges = self._ranges.get(graph, [])
        fwd_end = None
        # forward_batch finishes after its layers, so it is appended last
        for scope, n0, n1 in reversed(ranges):
            if scope == "head":
                owner[n0:n1] = ["head"] * (n1 - n0)
                fwd_end = n1 if fwd_end is None else max(fwd_end, n1)
            else:
                owner[n0:n1] = [scope] * (n1 - n0)
        if fwd_end is not None:
            owner[fwd_end:] = [self.loss_label] * (n - fwd_end)
        return owner

    def _wrap_nodes(self, graph) -> dict:
        n = len(graph.nodes)
        owners = self._node_owners(graph, n)
        spans, stack = self.spans, self._stack
        for nid, node in enumerate(graph.nodes):
            rule = node.backward
            if rule is None:
                continue
            name = f"numerics.{node.op}.bwd"

            def timed(adj, rule=rule, name=name, owner=owners[nid]):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                        self._step_id, {"owner": owner}]
                spans.append(span)
                t0 = time.perf_counter()
                out = rule(adj)
                span[1], span[2] = t0, time.perf_counter()
                return out

            node.backward = timed
        return {"nodes": n, "loss_nodes": owners.count(self.loss_label)}


def time_data_pipeline(modules: dict, load: Callable[[], object],
                       repeats: int) -> dict:
    """Median wall time of each data-pipeline function over ``repeats``
    calls of ``load`` (which must call ``harness.load_dataset``)."""
    totals: dict[str, list[float]] = {f"{m}.{a}": [] for m, a in DATA_TARGETS}
    saved = []
    try:
        for mod, attr in DATA_TARGETS:
            owner = modules[mod]
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _accumulating(fn, f"{mod}.{attr}", totals))
        per_load = {k: [] for k in totals}
        for _ in range(repeats):
            for v in totals.values():
                v.clear()
            load()
            for k, v in totals.items():
                per_load[k].append(sum(v))
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return {k: statistics.median(v) for k, v in per_load.items()}


def _accumulating(fn: Callable, key: str, totals: dict) -> Callable:
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key].append(time.perf_counter() - t0)
    return timed


def summarize(probe: Probe, first_step: int = 0) -> dict:
    """Per-step means of every per-layer quantity over the probe's steps
    from ``first_step`` on. Times are in ms; the step partition

        harness.step.ms = model.forward_batch.ms + <loss>.fwd_ms
                          + numerics.backward.ms + numerics.adam_step.ms
                          + fsgri.build_group.ms + harness.step.self_ms

    holds exactly, as do forward_batch = sum of layer fwd + head fwd and
    backward = backward.self + sum of node backward times.
    """
    steps = {sid: (start, end) for sid, start, end in probe.steps[first_step:]}
    spans = probe.spans
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    loss = probe.loss_label
    for i, (name, t0, t1, parent, sid, info) in enumerate(spans):
        if sid not in steps:
            continue
        dur = (t1 - t0) * 1e3
        self_ms = dur - child[i] * 1e3
        if parent < 0:
            add("step.children_ms", dur)
            if name not in _STEP_PARTS:
                add(f"{loss}.fwd_ms", dur)
        if name.endswith(".bwd"):
            op = name.split(".")[1]
            add(f"numerics.{op if op in TIMED_OPS else 'other_ops'}.bwd_ms", dur)
            add(f"bwd_owner.{info['owner']}", dur)
            continue
        if name.startswith("numerics.") and name.split(".")[1] in OPS:
            op = name.split(".")[1]
            add(f"numerics.{op}.calls", 1)
            add(f"numerics.{op if op in TIMED_OPS else 'other_ops'}.fwd_ms", self_ms)
            for k, v in (info or {}).items():
                add(f"numerics.{op}.{k}", v)
        elif name == "numerics.Graph.backward":
            add("numerics.backward.ms", dur)
            add("numerics.backward.self_ms", self_ms)
            add("numerics.nodes_per_step", info["nodes"])
            add(f"{loss}.nodes_per_step", info["loss_nodes"])
        elif name == "numerics.adam_step":
            add("numerics.adam_step.ms", dur)
        elif name == "model.forward_batch":
            add("model.forward_batch.ms", dur)
        elif name == "model.dml_forward":
            add(f"model.{info['scope']}.fwd_ms", dur)
        elif name == "fsgri.build_group":
            add("fsgri.build_group.ms", dur)
            add("fsgri.build_group.calls", 1)
    n = max(1, len(steps))
    out = {k: v / n for k, v in acc.items()}
    wall = sum(end - start for start, end in steps.values()) * 1e3 / n
    out["harness.step.ms"] = wall
    out["harness.step.self_ms"] = wall - out.pop("step.children_ms", 0.0)
    layers_fwd = sum(out.get(f"model.layer{i}.fwd_ms", 0.0) for i in range(MAX_LAYERS))
    out["model.head.fwd_ms"] = out.get("model.forward_batch.ms", 0.0) - layers_fwd
    for key in [k for k in out if k.startswith("bwd_owner.")]:
        owner = key.split(".", 1)[1]
        value = out.pop(key)
        out[f"{owner}.bwd_ms" if owner == loss
            else f"model.{owner}.bwd_ms"] = value
    return out


def write_spans(probe: Probe, path: str) -> int:
    """One JSON array per line: name, start_s, end_s, parent, step, info.
    Step spans come first, named ``harness.step``, with parent -1; other
    top-level spans name their step as parent by the id ``"s<step>"``."""
    with open(path, "w") as f:
        for sid, start, end in probe.steps:
            f.write(json.dumps(["harness.step", start, end, -1, sid, None]) + "\n")
        for name, t0, t1, parent, sid, info in probe.spans:
            par = parent if parent >= 0 else f"s{sid}"
            f.write(json.dumps([name, t0, t1, par, sid, info]) + "\n")
    return len(probe.steps) + len(probe.spans)
