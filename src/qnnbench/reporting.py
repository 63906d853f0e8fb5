"""Metrics and report emission for benchmark runs.

A run produces one RunReport per trained network; reports aggregate into a
CSV with a fixed column order or into markdown tables, one per experiment.
Emission is a pure function of the report list so identical runs serialize
to identical bytes.

RMS values in this module are percentages of full scale, unlike the
training modules, which work in fractions.
"""

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

CSV_COLUMNS = (
    "experiment",
    "net",
    "seed",
    "epochs_used",
    "converged",
    "train_rms_pct",
    "test_rms_pct",
    "accuracy_pct",
    "wall_time_ms",
)

NET_NAMES = ("rvnn", "cvnn", "qnn")


def rms_percent(outputs, targets) -> float:
    """100 * sqrt(mean squared error over all pairs and components)."""
    out = np.asarray(outputs, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    if out.shape != tgt.shape:
        raise ValidationError(
            f"output shape {out.shape} does not match target shape {tgt.shape}"
        )
    if out.size == 0:
        raise ValidationError("rms_percent needs at least one value")
    return 100.0 * float(np.sqrt(np.mean((out - tgt) ** 2)))


def accuracy_percent(outs, labels, train_outs, train_classes) -> float:
    """Percentage of test records whose decision matches their label (a
    class index). outs holds one row per record, and the width of the rows
    picks the decision. With one output per class, a record is correct
    when its output at the labeled class exceeds 0.5, whatever the other
    outputs are. A single output picks the training class whose mean
    training output is nearest; for sorted means that is a threshold rule
    with cuts at the midpoints between adjacent means."""
    outs = np.asarray(outs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(outs) != len(labels):
        raise ValidationError("outputs and labels must pair up")
    if not len(outs):
        raise ValidationError("accuracy_percent needs at least one record")
    if outs.ndim != 2:
        raise ValidationError("outputs must be one row per record")
    if outs.shape[1] == 1:
        train_outs = np.asarray(train_outs, dtype=float)
        train_classes = np.asarray(train_classes, dtype=int)
        # Not np.unique: its first call imports numpy.ma, about 1.3 MB of
        # peak RSS in an iris run.
        classes = np.array(sorted(set(train_classes.tolist())))
        if classes.size < 2:
            raise ValidationError("need at least two training classes")
        means = np.array([np.mean(train_outs[train_classes == k]) for k in classes])
        correct = classes[np.argmin(np.abs(means - outs), axis=1)] == labels
    else:
        if labels.min() < 0 or labels.max() >= outs.shape[1]:
            raise ValidationError("one-hot labels must index the outputs")
        correct = outs[np.arange(len(outs)), labels] > 0.5
    return 100.0 * int(np.count_nonzero(correct)) / len(outs)


@dataclass(frozen=True)
class RunReport:
    """One trained network's results: its fields are the emitted CSV's
    columns, in order, except the last, a wall time that always reads 0.0
    so that identical runs emit identical bytes.

    The experiment label carries the task variant after a colon
    ("gates:AND", "iris:75", "entanglement:4") so rows stay self-describing
    without extra columns.
    """

    experiment: str
    net: str
    seed: int
    epochs_used: int
    converged: bool
    train_rms_pct: float
    test_rms_pct: Optional[float] = None
    accuracy_pct: Optional[float] = None

    def __post_init__(self):
        if not self.experiment:
            raise ValidationError("experiment label must be nonempty")
        if self.net not in NET_NAMES:
            raise ValidationError(f"unknown net {self.net!r}")
        if self.epochs_used < 0:
            raise ValidationError("epochs_used must be >= 0")
        if self.train_rms_pct < 0:
            raise ValidationError("train RMS percentage must be >= 0")
        if self.test_rms_pct is not None and self.test_rms_pct < 0:
            raise ValidationError("test RMS percentage must be >= 0")
        if self.accuracy_pct is not None and not 0 <= self.accuracy_pct <= 100:
            raise ValidationError("accuracy must lie in [0, 100]")


def _fmt(value, decimals=4) -> str:
    if value is None:
        return ""
    return f"{value:.{decimals}f}"


def _sorted_reports(reports):
    return sorted(reports, key=lambda r: (r.experiment, r.net, r.seed))


def reports_to_csv(reports: Sequence[RunReport]) -> str:
    if not reports:
        raise ValidationError("no reports to emit")
    lines = [",".join(CSV_COLUMNS)]
    for r in _sorted_reports(reports):
        lines.append(
            ",".join(
                (
                    r.experiment,
                    r.net,
                    str(r.seed),
                    str(r.epochs_used),
                    "true" if r.converged else "false",
                    _fmt(r.train_rms_pct),
                    _fmt(r.test_rms_pct),
                    _fmt(r.accuracy_pct),
                    "0.0",
                )
            )
        )
    return "\n".join(lines) + "\n"


def reports_to_markdown(reports: Sequence[RunReport]) -> str:
    """One table per experiment label; rows aggregate a net's seeds with
    median epochs and mean RMS/accuracy, mirroring one-number-per-cell
    summary tables."""
    if not reports:
        raise ValidationError("no reports to emit")
    by_experiment = {}
    for r in _sorted_reports(reports):
        by_experiment.setdefault(r.experiment, []).append(r)
    blocks = []
    for experiment, group in by_experiment.items():
        lines = [
            "| net | trials | converged | median epochs | train RMS % | test RMS % | accuracy % |",
            "|---|---|---|---|---|---|---|",
        ]
        for net in NET_NAMES:
            runs = [r for r in group if r.net == net]
            if not runs:
                continue
            tests = [r.test_rms_pct for r in runs if r.test_rms_pct is not None]
            accs = [r.accuracy_pct for r in runs if r.accuracy_pct is not None]
            cells = (
                net,
                str(len(runs)),
                f"{sum(1 for r in runs if r.converged)}/{len(runs)}",
                _fmt(statistics.median(r.epochs_used for r in runs), 1),
                _fmt(statistics.mean(r.train_rms_pct for r in runs), 2),
                _fmt(statistics.mean(tests), 2) if tests else "-",
                _fmt(statistics.mean(accs), 2) if accs else "-",
            )
            lines.append("| " + " | ".join(cells) + " |")
        blocks.append(f"## {experiment}\n\n" + "\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def emit_report(reports: Sequence[RunReport], output_format: str, destination=None) -> str:
    """Serialize reports and optionally write them to the path destination.

    Returns the serialized text; destination None means the caller prints it.
    """
    if output_format == "csv":
        text = reports_to_csv(reports)
    elif output_format == "markdown":
        text = reports_to_markdown(reports)
    else:
        raise ValidationError(f"unknown output format {output_format!r}")
    if destination is not None:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return text
