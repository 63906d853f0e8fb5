"""Command-line front end: one subcommand per benchmark experiment.

Configuration resolves in three layers: built-in defaults, then a JSON
config file (--config), then individual flags, with later layers winning.
Exit codes: 0 for completed runs (non-convergence is a result, not an
error), 1 for configuration or I/O problems, 2 for argument parse errors.
"""

import argparse
import dataclasses
import json
import sys

from .errors import DatasetFormatError, DatasetIntegrityError, ValidationError
from .reporting import emit_report
from .runner import DEFAULTS, NETS, ExperimentConfig, run_experiment


def _split_csv(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnnbench",
        description=(
            "Benchmark real-valued, complex-valued, and simulated quantum "
            "neural networks on logic gates, Iris, and an entanglement witness."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, extra in (
        ("gates", "six logic-gate truth tables"),
        ("iris", "Iris classification on a stratified split"),
        ("entanglement", "pure-state entanglement witness regression"),
    ):
        p = sub.add_parser(name, help=f"run the {name} experiment: {extra}")
        p.add_argument("--nets", default=None, help="comma list from rvnn,cvnn,qnn")
        p.add_argument("--seeds", default=None, help="comma list of integer seeds")
        if name != "gates":
            p.add_argument("--train-size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None, help="max epochs for every selected net")
        p.add_argument("--lr", type=float, default=None, help="learning rate for rvnn and qnn")
        p.add_argument("--hidden", type=int, default=None, help="hidden width for rvnn and cvnn")
        p.add_argument("--slices", type=int, default=None, help="qnn schedule slices")
        p.add_argument("--tf", type=float, default=None, help="qnn total evolution time")
        p.add_argument("--format", choices=("csv", "markdown"), default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--config", default=None, help="JSON ExperimentConfig; flags override it")
        p.add_argument("--timing", action="store_true", help="record wall-clock times")
        if name == "iris":
            p.add_argument("--iris-csv", default=None, help="alternate Iris CSV path")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ValidationError("config file must hold a JSON object")
    return payload


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    experiment = args.experiment
    fields = _load_config_file(args.config) if args.config else {}
    if fields.setdefault("experiment", experiment) != experiment:
        raise ValidationError(
            f"config file is for {fields['experiment']!r}, "
            f"but the subcommand is {experiment!r}"
        )
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in fields:
        if key not in known:
            raise ValidationError(f"unknown config key {key!r}")
    config = ExperimentConfig(**fields)

    flags = {}
    if args.nets is not None:
        flags["nets"] = _split_csv(args.nets)
    if args.seeds is not None:
        try:
            flags["seeds"] = tuple(int(s) for s in _split_csv(args.seeds))
        except ValueError:
            raise ValidationError(f"seeds must be integers, got {args.seeds!r}")
    if getattr(args, "train_size", None) is not None:
        flags["train_size"] = args.train_size
    if args.format is not None:
        flags["output_format"] = args.format
    if getattr(args, "iris_csv", None) is not None:
        flags["iris_path"] = args.iris_csv
    if args.timing:
        flags["timing"] = True

    net_params = {net: dict(o) for net, o in config.net_params.items()}
    # Each per-net flag reaches the selected nets whose defaults carry its key.
    # With no known net selected, ExperimentConfig rejects the nets instead.
    defaults = DEFAULTS[experiment]
    nets = flags.get("nets", config.nets)
    selected = [n for n in NETS if n in nets]
    for flag, key, value in (
        ("--epochs", "max_epochs", args.epochs),
        ("--lr", "learning_rate", args.lr),
        ("--hidden", "hidden", args.hidden),
        ("--slices", "slices", args.slices),
        ("--tf", "t_f", args.tf),
    ):
        if value is None:
            continue
        targets = [n for n in selected if key in defaults[n]]
        if selected and not targets:
            accepting = " and ".join(n for n in NETS if key in defaults[n])
            raise ValidationError(f"{flag} applies to {accepting} only")
        for net in targets:
            net_params.setdefault(net, {})[key] = value

    return dataclasses.replace(config, net_params=net_params, **flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        reports = run_experiment(config)
        text = emit_report(reports, config.output_format, args.out)
    except (ValidationError, DatasetFormatError, DatasetIntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
