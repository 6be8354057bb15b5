"""dualmixer benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fsgri_train --seed 1 --seconds 50 --trace 0

Run from the repository root (the program is imported from ``src/``).

A run
  1. measures set-up: the median of several fresh interpreters that each
     import dualmixer (numpy and scipy.special already imported), load the
     synth dataset and build the model;
  2. runs the output check: one call at the fixed check seed, compared with
     ``bench/reference.json`` at a tolerance that reordered floating-point
     sums pass and a wrong kernel fails. Being the first call in the
     process, it is also the warm-up that the metrics leave out (the first
     calls of a process run about 15% slow);
  3. builds the workload at ``--seed`` and measures calls into it for
     ``--seconds`` seconds.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` it carries the per-layer metrics: half the time runs with
only the step clock, half with every layer wrapped (see ``tracing.py``); the
difference in throughput is reported as the tracing overhead, and the spans
go to ``.bench_out/``.

Every step or chunk that raises, gives a non-finite loss or prediction, or
fails the output check counts as failed; ``failed / attempted`` is the
failure share. The metric ``throughput_per_s`` is encodings/s on
``fsgri_train`` (EpochStats.encodings over wall time) and windows/s on the
other two workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# One BLAS thread (never more than nproc): faster than two for these matrix
# sizes on a 2-CPU box, and less exposed to other load. Set before numpy is
# imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 11
DATA_REPEATS = 5
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
# Output-check tolerance: reordered float64 sums move the checked losses
# and predictions by far less; a wrong kernel moves them by far more.
CHECK_RTOL = 1e-7
CHECK_ATOL = 1e-9

END_TO_END_UNITS = {"throughput_per_s": "1/s", "step_ms_p50": "ms",
                    "step_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# What throughput_per_s is called on each workload.
THROUGHPUT_NAMES = {"fsgri_train": "fsgri_encodings_per_s",
                    "standard_train": "standard_windows_per_s",
                    "predict": "predict_windows_per_s"}


def per_layer_units() -> dict:
    """Every per-layer metric, by name, with its unit."""
    units = {}
    for op in tr.TIMED_OPS + ("other_ops",):
        units[f"numerics.{op}.fwd_ms"] = "ms"
        units[f"numerics.{op}.bwd_ms"] = "ms"
    for op in tr.OPS:
        units[f"numerics.{op}.calls"] = "count"
    units["numerics.matmul.flop"] = "flop"
    for op in ("gelu", "sigmoid", "layer_norm"):
        units[f"numerics.{op}.bytes"] = "B"
    units.update({"numerics.backward.ms": "ms", "numerics.backward.self_ms": "ms",
                  "numerics.nodes_per_step": "count",
                  "numerics.adam_step.ms": "ms", "model.forward_batch.ms": "ms"})
    for scope in [f"layer{i}" for i in range(tr.MAX_LAYERS)] + ["head"]:
        units[f"model.{scope}.fwd_ms"] = "ms"
        units[f"model.{scope}.bwd_ms"] = "ms"
    units.update({"fsgri.build_group.ms": "ms", "fsgri.build_group.calls": "count",
                  "fsgri.loss.fwd_ms": "ms", "fsgri.loss.bwd_ms": "ms",
                  "fsgri.loss.nodes_per_step": "count",
                  "fsgri.skipped_anchors": "count",
                  "harness.loss.fwd_ms": "ms", "harness.loss.bwd_ms": "ms",
                  "harness.step.ms": "ms", "harness.step.self_ms": "ms"})
    for mod, attr in tr.DATA_TARGETS:
        units[f"{mod}.{attr}.ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def environment(args) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dualmixer").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed, "shape": args.shape,
            "seconds": args.seconds, "trace": args.trace}


# --------------------------------------------------------------------------
# calls, check and measurement
# --------------------------------------------------------------------------

@dataclass
class Tally:
    """Steps (or chunks) attempted and failed over the whole run."""

    attempted: int = 0
    failed: int = 0


def run_call(work, probe, k, tally, expect=None):
    """Make call k, count its steps, check its outputs. Returns
    (items, seconds) or None when the call failed."""
    n0 = len(probe.steps)
    probe.begin_call()
    t0 = time.perf_counter()
    try:
        items, parts = work.call(k)
    except Exception:  # a failing step is reported, not fatal
        traceback.print_exc()
        steps = len(probe.steps) - n0 + 1
        tally.attempted += steps
        tally.failed += steps
        return None
    finally:
        # Each step's tape is freed only by a full collection (a reference
        # cycle), so without one memory grows by gigabytes before Python
        # collects on its own, and the share of each call spent faulting in
        # fresh pages varies from run to run. Collecting after every call
        # keeps the peak to one call's tapes; it is timed, as freeing the
        # tapes is part of what the call costs.
        gc.collect()
    seconds = time.perf_counter() - t0
    steps = len(probe.steps) - n0
    ok = work.outputs_ok(parts)
    if expect is not None:
        ok = [good and i < len(expect) and p.shape == expect[i].shape
              and bool(np.allclose(p, expect[i], rtol=CHECK_RTOL, atol=CHECK_ATOL))
              for i, (good, p) in enumerate(zip(ok, parts))]
    per_part = steps / max(1, len(parts))
    tally.attempted += steps
    tally.failed += round(per_part * ok.count(False))
    return (items, seconds) if all(ok) else None


def check_outputs(mods, args, tally) -> None:
    """The output check: the first call at CHECK_SEED against reference.json."""
    ref = json.loads(REFERENCE.read_text())
    expect = ref["shapes"][args.shape][args.workload]
    work = wl.WORKLOADS[args.workload](mods, wl.SHAPES[args.shape], wl.CHECK_SEED)
    with tr.Probe(mods, work.boundary, trace=False) as probe:
        run_call(work, probe, 0, tally, [np.array(p) for p in expect])


def write_reference(mods) -> None:
    """Regenerate reference.json from the current program. Only for a
    change that is meant to alter the checked numbers beyond tolerance."""
    shapes = {}
    for shape_name, shape in wl.SHAPES.items():
        shapes[shape_name] = {
            name: [p.tolist() for p in cls(mods, shape, wl.CHECK_SEED).call(0)[1]]
            for name, cls in wl.WORKLOADS.items()}
    REFERENCE.write_text(json.dumps({"seed": wl.CHECK_SEED, "shapes": shapes},
                                    indent=1) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(work, probe, seconds, k0, tally):
    """Calls from k0 on until ``seconds`` have passed. Returns the per-call
    rates, the index of the first step measured and the next call index."""
    first = len(probe.steps)
    rates = []
    k = k0
    deadline = time.perf_counter() + seconds
    while True:
        done = run_call(work, probe, k, tally)
        k += 1
        if done is not None:
            rates.append(done[0] / done[1])
        if time.perf_counter() >= deadline:
            return rates, first, k


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters (see --setup-probe)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--shape", args.shape],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def setup_probe(args) -> None:
    """One set-up in this fresh interpreter. numpy and scipy.special are
    imported first: their import cost is not the program's."""
    import scipy.special  # noqa: F401
    t0 = time.perf_counter()
    mods = wl.load_program(ROOT)
    wl.build(mods, wl.SHAPES[args.shape], args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def ms_percentile(seconds, q):
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def end_to_end(mods, args, work, tally) -> tuple[dict, int]:
    with tr.Probe(mods, work.boundary, trace=False) as probe:
        rates, first, _ = measure(work, probe, args.seconds, 0, tally)
    steps = probe.step_seconds(first)
    if not rates or not steps:
        raise RuntimeError("no call completed")
    return {"throughput_per_s": statistics.median(rates),
            "step_ms_p50": ms_percentile(steps, 50),
            "step_ms_p90": ms_percentile(steps, 90),
            "setup_s": setup_seconds(args),
            "peak_rss_mb": peak_rss_mb()}, len(steps)


def per_layer(mods, args, work, tally) -> tuple[dict, int]:
    half = args.seconds / 2
    with tr.Probe(mods, work.boundary, trace=False) as probe:
        plain, _, k = measure(work, probe, half, 0, tally)
    skipped = getattr(work, "skipped", 0)
    with tr.Probe(mods, work.boundary, trace=True,
                  loss_label=work.loss_label) as probe:
        traced, first, _ = measure(work, probe, half, k, tally)
    if not plain or not traced:
        raise RuntimeError("no call completed")
    out = dict.fromkeys(per_layer_units(), 0.0)
    out.update({k: v for k, v in tr.summarize(probe, first).items() if k in out})
    n_steps = len(probe.steps) - first
    out["fsgri.skipped_anchors"] = (getattr(work, "skipped", 0) - skipped) / max(1, n_steps)
    timings = tr.time_data_pipeline(
        mods, lambda: mods["harness"].load_dataset(work.cfg), DATA_REPEATS)
    out.update({f"{k}.ms": v * 1e3 for k, v in timings.items()})
    out["trace.overhead_pct"] = 100.0 * (1.0 - statistics.median(traced)
                                         / statistics.median(plain))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
    n = tr.write_spans(probe, str(path))
    print(f"spans: {n} written to {path.relative_to(ROOT)}")
    return out, n_steps


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(wl.SHAPES), default="reference")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json and exit")
    args = ap.parse_args(argv)
    if not args.write_reference and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        mods = wl.load_program(ROOT)
    except ImportError as e:
        print(f"cannot import dualmixer from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(mods)
        return 0
    print("environment " + json.dumps(environment(args)))
    tally = Tally()
    check_outputs(mods, args, tally)
    work = wl.WORKLOADS[args.workload](mods, wl.SHAPES[args.shape], args.seed)
    if args.trace:
        metrics, n_steps = per_layer(mods, args, work, tally)
        units = per_layer_units()
    else:
        metrics, n_steps = end_to_end(mods, args, work, tally)
        units = END_TO_END_UNITS
        print(f"{THROUGHPUT_NAMES[args.workload]} = {metrics['throughput_per_s']:.6g} 1/s"
              f" ({work.items}/s)")
    step = "chunk" if work.boundary == "forward_batch" else "step"
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"measured {step}s = {n_steps}")
    print(f"failed_frac = {tally.failed}/{tally.attempted}"
          f" = {tally.failed / max(1, tally.attempted):.4g}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed,
                      "metrics": {k: {"value": float(v), "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
