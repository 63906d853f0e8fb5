"""Command-line front end: one subcommand per benchmark experiment.

Configuration resolves in three layers: built-in defaults, then a JSON
config file (--config), then individual flags, with later layers winning.
Exit codes: 0 for completed runs (non-convergence is a result, not an
error), 1 for configuration or I/O problems, 2 for argument parse errors.
"""

import argparse
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
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ValidationError("config file must hold a JSON object")
    # JSON types of the fields read here rather than in ExperimentConfig.
    for key, kind, what in (
        ("nets", list, "an array"),
        ("seeds", list, "an array"),
        ("net_params", dict, "an object"),
        ("timing", bool, "true or false"),
        ("iris_path", (str, type(None)), "a string or null"),
    ):
        if key in payload and not isinstance(payload[key], kind):
            raise ValidationError(f"config {key} must be {what}")
    for overrides in payload.get("net_params", {}).values():
        if not isinstance(overrides, dict):
            raise ValidationError("config net_params must map each net to an object")
    return payload


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    experiment = args.experiment
    file_cfg = _load_config_file(args.config) if args.config else {}
    if "experiment" in file_cfg and file_cfg["experiment"] != experiment:
        raise ValidationError(
            f"config file is for {file_cfg['experiment']!r}, "
            f"but the subcommand is {experiment!r}"
        )

    nets = tuple(file_cfg.get("nets", NETS))
    if args.nets is not None:
        nets = _split_csv(args.nets)

    seeds = tuple(file_cfg.get("seeds", (0,)))
    if args.seeds is not None:
        raw = _split_csv(args.seeds)
        try:
            seeds = tuple(int(s) for s in raw)
        except ValueError:
            raise ValidationError(f"seeds must be integers, got {args.seeds!r}")

    train_size = file_cfg.get("train_size")
    if getattr(args, "train_size", None) is not None:
        train_size = args.train_size

    output_format = file_cfg.get("output_format", "csv")
    if args.format is not None:
        output_format = args.format

    net_params = {
        net: dict(overrides)
        for net, overrides in file_cfg.get("net_params", {}).items()
    }
    # Each per-net flag reaches the selected nets whose defaults carry its key.
    # With no known net selected, ExperimentConfig rejects the nets instead.
    defaults = DEFAULTS[experiment]
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

    iris_path = file_cfg.get("iris_path")
    if getattr(args, "iris_csv", None) is not None:
        iris_path = args.iris_csv

    return ExperimentConfig(
        experiment=experiment,
        nets=nets,
        seeds=seeds,
        train_size=train_size,
        output_format=output_format,
        net_params=net_params,
        iris_path=iris_path,
        timing=args.timing or file_cfg.get("timing", False),
    )


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
