"""The benchmark's own tests, at the tiny shape (about a minute in all).

    python3 bench/selftest.py

They are not named test_*.py, so the repository's test suite does not pick
them up; ``python3 -m pytest bench/selftest.py`` also runs them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported
import numpy as np
import tracing as tr
import workloads as wl

MODS = wl.load_program(run.ROOT)
NX, DM, FS = MODS["numerics"], MODS["model"], MODS["fsgri"]
TINY = wl.SHAPES["tiny"]

# Every attribute the traced probe replaces, with its original.
TARGETS = ([(NX, op) for op in tr.OPS] +
           [(NX, "adam_step"), (NX.Graph, "backward"), (DM, "forward_batch"),
            (DM, "dml_forward"), (FS, "build_group"), (FS, "dw_info_nce"),
            (FS, "mse_all")])
ORIGINALS = {(owner, attr): getattr(owner, attr) for owner, attr in TARGETS}

# Share of a traced step that may fall outside every traced span (vstack,
# Tensor wrapping, .item(), loop glue, the tracer's own bookkeeping).
SELF_SHARE_MAX = 0.3
# Float rounding of sums of per-step means.
PARTITION_RTOL = 1e-6


def originals_in_place() -> dict:
    return {f"{getattr(o, '__name__', o)}.{a}": getattr(o, a) is ORIGINALS[(o, a)]
            for o, a in TARGETS}


@contextlib.contextmanager
def spy_on_build_group(seen: list):
    """Replace fsgri.build_group by a pass-through that records, at each
    call (i.e. while a run is in progress), which targets are original."""
    real = FS.build_group

    def spy(*args, **kwargs):
        seen.append(originals_in_place())
        return real(*args, **kwargs)

    FS.build_group = spy
    try:
        yield
    finally:
        FS.build_group = real


def traced_summary(name: str, seconds: float = 0.5) -> dict:
    work = wl.WORKLOADS[name](MODS, TINY, 3)
    with tr.Probe(MODS, work.boundary, trace=True, loss_label=work.loss_label) as probe:
        run.measure(work, probe, seconds, 0, run.Tally())
    return tr.summarize(probe, 0)


def run_main(*argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().strip().splitlines()


class TestWrappers(unittest.TestCase):

    def test_untraced_run_sees_original_functions(self):
        seen = []
        work = wl.FsgriTrain(MODS, TINY, 3)
        with spy_on_build_group(seen):
            with tr.Probe(MODS, work.boundary, trace=False):
                work.call(0)
            after = originals_in_place()
        self.assertTrue(seen)
        for during in seen:
            # only the step clock on adam_step is in place
            self.assertTrue(during.pop("dualmixer.numerics.adam_step") is False)
            during.pop("dualmixer.fsgri.build_group")  # the spy itself
            self.assertTrue(all(during.values()), during)
        after.pop("dualmixer.fsgri.build_group")
        self.assertTrue(all(after.values()), after)
        self.assertIs(NX.matmul, ORIGINALS[(NX, "matmul")])

    def test_wrappers_removed_after_traced_run(self):
        seen = []
        work = wl.FsgriTrain(MODS, TINY, 3)
        with spy_on_build_group(seen):
            with tr.Probe(MODS, work.boundary, trace=True):
                work.call(0)
        self.assertTrue(seen)
        self.assertFalse(seen[0]["dualmixer.numerics.matmul"])
        self.assertFalse(seen[0]["Graph.backward"])
        self.assertTrue(all(originals_in_place().values()))

    def test_wrappers_removed_when_the_program_raises(self):
        work = wl.Predict(MODS, TINY, 3)
        with self.assertRaises(ValueError):
            with tr.Probe(MODS, work.boundary, trace=True):
                MODS["harness"].evaluate(work.params, [])
        self.assertTrue(all(originals_in_place().values()))


class TestSelfTimes(unittest.TestCase):

    def check_partition(self, s: dict, loss: str):
        step = s["harness.step.ms"]
        parts = (s.get("model.forward_batch.ms", 0.0) + s.get(f"{loss}.fwd_ms", 0.0)
                 + s.get("numerics.backward.ms", 0.0) + s.get("numerics.adam_step.ms", 0.0)
                 + s.get("fsgri.build_group.ms", 0.0) + s["harness.step.self_ms"])
        self.assertAlmostEqual(parts / step, 1.0, delta=PARTITION_RTOL)
        self.assertGreaterEqual(s["harness.step.self_ms"], 0.0)
        self.assertLess(s["harness.step.self_ms"], SELF_SHARE_MAX * step)
        layers = [f"layer{i}" for i in range(TINY.n_layers)] + ["head"]
        fwd = sum(s.get(f"model.{x}.fwd_ms", 0.0) for x in layers)
        self.assertAlmostEqual(fwd / s["model.forward_batch.ms"], 1.0, delta=PARTITION_RTOL)
        for x in layers:
            self.assertGreater(s[f"model.{x}.fwd_ms"], 0.0)
        op_fwd = sum(s.get(f"numerics.{op}.fwd_ms", 0.0)
                     for op in tr.TIMED_OPS + ("other_ops",))
        self.assertLessEqual(op_fwd, s["model.forward_batch.ms"] + s.get(f"{loss}.fwd_ms", 0.0))
        if "numerics.backward.ms" not in s:
            return
        owners = sum(s.get(f"model.{x}.bwd_ms", 0.0) for x in layers) + s[f"{loss}.bwd_ms"]
        op_bwd = sum(s.get(f"numerics.{op}.bwd_ms", 0.0)
                     for op in tr.TIMED_OPS + ("other_ops",))
        self.assertAlmostEqual(op_bwd / owners, 1.0, delta=PARTITION_RTOL)
        self.assertAlmostEqual((s["numerics.backward.self_ms"] + owners)
                               / s["numerics.backward.ms"], 1.0, delta=PARTITION_RTOL)

    def test_fsgri_step_partition(self):
        s = traced_summary("fsgri_train")
        self.check_partition(s, "fsgri.loss")
        self.assertGreater(s["fsgri.loss.bwd_ms"], 0.0)
        self.assertGreater(s["fsgri.loss.nodes_per_step"], 0.0)
        self.assertGreater(s["numerics.nodes_per_step"], s["fsgri.loss.nodes_per_step"])

    def test_standard_step_partition(self):
        s = traced_summary("standard_train")
        self.check_partition(s, "harness.loss")
        self.assertNotIn("fsgri.build_group.ms", s)

    def test_predict_chunk_partition(self):
        s = traced_summary("predict")
        self.check_partition(s, "loss")
        self.assertNotIn("numerics.backward.ms", s)
        self.assertNotIn("numerics.adam_step.ms", s)

    def test_matmul_flop_is_computed_from_shapes(self):
        s = traced_summary("predict", seconds=0.1)
        b, l, d, m_vars = TINY.windows, TINY.w, TINY.d, 14
        rows_t, rows_s = b * l, b * d  # temporal and spatial stacks
        per_layer = (8 * rows_t * d * d + 8 * rows_s * l * l    # two MLPs
                     + 2 * rows_t * d * d + 2 * rows_s * l * l)  # two gates
        expected = (2 * rows_t * m_vars * d + TINY.n_layers * per_layer
                    + 2 * 2 * rows_t * d * d + 2 * b * l * d)   # output gates, head
        self.assertEqual(s["numerics.matmul.flop"], expected)


class TestOutputCheck(unittest.TestCase):

    def check(self, name: str) -> run.Tally:
        tally = run.Tally()
        args = run.parse_args(["--workload", name, "--seed", "0", "--shape", "tiny"])
        run.check_outputs(MODS, args, tally)
        return tally

    def test_reference_passes_on_every_workload(self):
        for name in wl.WORKLOADS:
            tally = self.check(name)
            self.assertGreater(tally.attempted, 0)
            self.assertEqual(tally.failed, 0, name)

    @contextlib.contextmanager
    def replaced(self, attr, fn):
        real = getattr(NX, attr)
        setattr(NX, attr, fn)
        try:
            yield real
        finally:
            setattr(NX, attr, real)

    def test_reordered_arithmetic_passes(self):
        # sigmoid through scipy's expit differs from the piecewise form by
        # at most an ulp, as a reordering of the arithmetic would
        from scipy.special import expit
        real = NX.sigmoid

        def sigmoid(a):
            out = real(a)
            out.data[...] = expit(a.data)
            return out

        with self.replaced("sigmoid", sigmoid):
            for name in wl.WORKLOADS:
                self.assertEqual(self.check(name).failed, 0, name)

    def test_wrong_kernel_fails(self):
        # the tanh approximation of GeLU is off by up to ~1e-3
        real = NX.gelu
        c = math.sqrt(2.0 / math.pi)

        def gelu(a):
            out = real(a)
            x = a.data
            out.data[...] = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
            return out

        with self.replaced("gelu", gelu):
            for name in wl.WORKLOADS:
                tally = self.check(name)
                self.assertGreater(tally.failed, 0, name)
                self.assertLessEqual(tally.failed, tally.attempted)


class TestCommand(unittest.TestCase):

    def test_smoke_prints_every_declared_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec["paths"]), {"bench"})
        declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        self.assertEqual(declared[0], run.END_TO_END_UNITS)
        self.assertEqual(declared[1], run.per_layer_units())
        for w in spec["workloads"]:
            for trace in (0, 1):
                code, lines = run_main("--workload", w["name"], "--seed", "5",
                                       "--seconds", "0.3", "--trace", str(trace),
                                       "--shape", "tiny")
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared[trace])
                for k, v in result["metrics"].items():
                    self.assertTrue(math.isfinite(v["value"]), k)
                    if trace == 0:
                        self.assertGreater(v["value"], 0.0, k)
                self.assertTrue(lines[0].startswith("environment "))
                env = json.loads(lines[0].split(" ", 1)[1])
                for key in ("python", "numpy", "scipy", "blas", "blas_threads",
                            "nproc", "cpu", "commit", "seed"):
                    self.assertIn(key, env)
                self.assertLessEqual(env["blas_threads"], env["nproc"])
        spans = run.OUT_DIR / "spans-predict-s5.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        self.assertEqual(first[0], "harness.step")

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "predict", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
