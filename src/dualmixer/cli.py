"""Command-line entry points.

Subcommands: train, eval, ablate, grid, export, synth. Every run-shaped command
resolves its configuration the same way: the defaults (for eval and export, the
checkpoint's model, which nothing may contradict), then an optional JSON config
file, then explicit flags. The run flags are made from RunConfig's fields, one
each, and each flag's dest is the field it sets; that one RunConfig carries
every setting of the run. Building it enforces the values each field declares
(a choice field's flag offers its choices), and grid builds every cell's config
before any cell trains, so a bad value exits 2 first.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

# numerics.descend runs a training step's shards on two threads at once; a
# BLAS thread pool under each would oversubscribe the CPUs. Set before numpy
# is imported; a value the user sets wins. eval and export are not sharded
# and run about 10% slower for it (README, "Sharded steps").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import data as dd  # noqa: E402
from . import harness as hx  # noqa: E402
from . import model as dm  # noqa: E402
from . import synthdata as sx  # noqa: E402

logger = logging.getLogger(__name__)

# RunConfig fields whose flag has another name; every other field's flag
# is --<field>.
_FLAG_NAMES = {"data_dir": "data-dir", "out_dir": "out", "n_layers": "layers",
               "lam": "lambda", "b": "batch", "w": "window", "sl": "stride"}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """--config and one flag per RunConfig field, whose dest is the field;
    a flag not given is None, so it leaves the file's or default value."""
    parser.add_argument("--config", help="JSON file of config fields")
    for field in dataclasses.fields(hx.RunConfig):
        flag = "--" + _FLAG_NAMES.get(field.name, field.name)
        kind = type(field.default)
        if kind is bool:
            parser.add_argument(flag, dest=field.name, action="store_true", default=None,
                                help="evaluate on 10%% of training units instead of "
                                     "the test split")
        else:
            parser.add_argument(flag, dest=field.name, type=None if kind is str else kind,
                                choices=field.metadata.get("choices"))


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def resolve_config(args: argparse.Namespace, base=hx.RunConfig()) -> hx.RunConfig:
    """The run's config: ``base`` (the defaults unless given), the --config
    file's values over it, checked naming the file, then the flags given."""
    cfg = base
    if args.config:
        values = {**base.to_dict(), **dd.read_json_object(args.config, "config file")}
        cfg = dd.from_fields(hx.RunConfig, values, f"{args.config}: config file")
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
             if getattr(args, f.name) is not None}
    return dataclasses.replace(cfg, **given)


def _load_checkpoint_and_data(args) -> tuple:
    """The config resolved over the checkpoint's model, which no flag or
    config file value may contradict; the model; and the data it reads."""
    params = dm.load_checkpoint(args.checkpoint)
    model = {"variant": params.variant, "w": params.config.l,
             "d": params.config.d, "n_layers": params.config.n_layers}
    cfg = resolve_config(args, hx.RunConfig(**model))
    for name, have in model.items():
        if getattr(cfg, name) != have:
            flag = _FLAG_NAMES.get(name, name)
            raise ValueError(f"{args.checkpoint}: checkpoint has --{flag} {have}, "
                             f"the command line gives {getattr(cfg, name)}")
    train, test = hx.load_dataset(cfg)
    width = train[0].values.shape[1]
    if params.config.m_vars != width:
        raise ValueError(f"{args.checkpoint}: checkpoint takes {params.config.m_vars} "
                         f"input variables, the data has {width}")
    return cfg, params, train, test


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    report = hx.run_one(cfg, resume=not args.force)
    print(f"run dir: {os.path.join(cfg.out_dir, cfg.run_name())}")
    mape = "n/a" if report.mape is None else f"{report.mape:.3f}%"
    print(f"rmse: {report.rmse:.6f}  mape: {mape}")
    return 0


def cmd_eval(args) -> int:
    cfg, params, _, test = _load_checkpoint_and_data(args)
    rmse, mape = hx.evaluate(params, test)
    print(f"rmse: {rmse:.6f}")
    print("mape: " + ("undefined (all labels below floor)" if mape is None
                      else f"{mape:.3f}%"))
    if args.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "eval.json")
        hx.write_json(path, {"checkpoint": args.checkpoint, "dataset": cfg.dataset,
                             "rmse": rmse, "mape": mape})
        print(f"wrote {path}")
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    reports = hx.run_ablation(cfg)
    print(f"{'variant':8s} {'rmse':>10s} {'mape':>10s} {'params':>10s}")
    for variant, rep in zip(dm.VARIANTS, reports):
        mape = "n/a" if rep.mape is None else f"{rep.mape:.2f}"
        print(f"{variant:8s} {rep.rmse:10.6f} {mape:>10s} {rep.param_count:10d}")
    print(f"wrote {os.path.join(cfg.out_dir, 'ablation.csv')}")
    return 0


def cmd_grid(args) -> int:
    cfg = resolve_config(args)
    matrix = hx.grid_search(cfg, args.n_list, args.d_list)
    header = "N\\d  " + "  ".join(f"{d:>8d}" for d in args.d_list)
    print(header)
    for i, n in enumerate(args.n_list):
        print(f"{n:<4d} " + "  ".join(f"{v:8.5f}" for v in matrix[i]))
    print(f"wrote {os.path.join(cfg.out_dir, 'grid.csv')}")
    return 0


def cmd_export(args) -> int:
    cfg, params, train, test = _load_checkpoint_and_data(args)
    samples = train if args.split == "train" else test
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "features.csv")
    hx.export_features(params, samples, path)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def cmd_synth(args) -> int:
    if args.vars != 21:
        raise ValueError("emitting the 26-column file format requires 21 sensor columns")
    train, test, ruls = sx.generate_splits(sx.SynthSpec(
        n_units=args.units, test_units=args.test_units, cycles=tuple(args.cycles),
        n_vars=args.vars, gamma=args.gamma, noise_std=args.noise, seed=args.seed))
    os.makedirs(args.out_dir, exist_ok=True)
    paths = sx.emit_cmapss(args.out_dir, args.tag, train, test, ruls)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmixer",
        description="Dual-path mixer RUL models: training, sweeps, and export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and write its report")
    _add_run_flags(p)
    p.add_argument("--force", action="store_true",
                   help="retrain even if this configuration already has a report")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    _add_run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train all six variants on one seed")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="sweep layer count and model width")
    _add_run_flags(p)
    p.add_argument("--n-list", type=_int_list, default="2,4,6,8,10,12",
                   help="comma-separated layer counts")
    p.add_argument("--d-list", type=_int_list, default="16,32,64,128",
                   help="comma-separated model widths")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("export", help="dump merged features and predictions to CSV")
    _add_run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("synth", help="emit a synthetic dataset in the on-disk format")
    p.add_argument("--out", dest="out_dir", required=True)
    spec = sx.SynthSpec()  # the defaults, but for 21 columns and seed 1
    p.add_argument("--tag", default="SY001")
    p.add_argument("--units", type=int, default=spec.n_units)
    p.add_argument("--test-units", type=int, default=spec.test_units)
    p.add_argument("--cycles", type=int, nargs=2, default=list(spec.cycles),
                   metavar=("LO", "HI"))
    p.add_argument("--vars", type=int, default=21)
    p.add_argument("--gamma", type=float, default=spec.gamma)
    p.add_argument("--noise", type=float, default=spec.noise_std)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
