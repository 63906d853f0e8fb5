"""Tests for metrics and report serialization."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from qnnbench.errors import ValidationError
from qnnbench.reporting import (
    CSV_COLUMNS,
    RunReport,
    accuracy_percent,
    emit_report,
    reports_to_csv,
    reports_to_markdown,
    rms_percent,
)


class TestRmsPercent:
    def test_equal_vectors_give_zero(self):
        outs = [[0.1, 0.2], [0.3, 0.4]]
        assert rms_percent(outs, outs) == 0.0

    def test_single_unit_error_gives_one_hundred(self):
        assert rms_percent([[1.0]], [[0.0]]) == pytest.approx(100.0)

    def test_two_scalar_pairs_hand_value(self):
        # errors 0.3 and 0.4: 100*sqrt((0.09+0.16)/2) = 100*sqrt(0.125)
        value = rms_percent([[0.3], [0.4]], [[0.0], [0.0]])
        assert value == pytest.approx(100.0 * np.sqrt(0.125))
        assert value == pytest.approx(35.35533905932738)

    def test_symmetric_in_argument_order(self):
        a = [[0.2, 0.9], [0.5, 0.1]]
        b = [[0.4, 0.3], [0.8, 0.6]]
        assert rms_percent(a, b) == rms_percent(b, a)

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValidationError):
            rms_percent([[1.0, 2.0]], [[1.0]])

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValidationError, match="at least one value"):
            rms_percent([], [])


# A one-wide training set whose class means are 0.1, 0.5 and 0.9.
MEANS_TRAIN = ([[0.0], [0.2], [0.4], [0.6], [0.8], [1.0]], [0, 0, 1, 1, 2, 2])


class TestAccuracy:
    def test_perfect_one_hot_outputs(self):
        labels = [i % 3 for i in range(9)]
        outputs = [np.eye(3)[label] for label in labels]
        assert accuracy_percent(outputs, labels, outputs, labels) == 100.0

    def test_uniform_outputs_fail_the_half_rule(self):
        outputs = [np.full(3, 1.0 / 3.0)] * 6
        labels = [i % 3 for i in range(6)]
        assert accuracy_percent(outputs, labels, outputs, labels) == 0.0

    def test_seventy_one_of_seventy_five(self):
        outputs = [np.eye(3)[0]] * 71 + [np.zeros(3)] * 4
        labels = [0] * 75
        value = accuracy_percent(outputs, labels, np.eye(3), [0, 1, 2])
        assert value == pytest.approx(100.0 * 71 / 75)

    def test_nearest_mean_rule_cuts_at_midpoints(self):
        outs = [[0.29], [0.31], [0.71], [0.69]]
        assert accuracy_percent(outs, [0, 1, 2, 1], *MEANS_TRAIN) == 100.0
        assert accuracy_percent(outs, [1, 0, 1, 2], *MEANS_TRAIN) == 0.0

    def test_the_output_width_picks_the_rule(self):
        # As one record of three outputs labeled class 0, the numbers fail
        # the one-hot rule: 0.1 does not exceed 0.5. As three records of one
        # output labeled 0, 1 and 2, each is nearest its own class mean.
        numbers = np.array([0.1, 0.6, 0.9])
        assert accuracy_percent(numbers[None], [0], np.eye(3), [0, 1, 2]) == 0.0
        assert accuracy_percent(numbers[:, None], [0, 1, 2], *MEANS_TRAIN) == 100.0

    def test_nearest_mean_rule_needs_two_means(self):
        with pytest.raises(ValidationError, match="two training classes"):
            accuracy_percent([[0.4]], [0], [[0.4], [0.5]], [0, 0])

    @pytest.mark.parametrize(
        "outs, labels",
        [
            ([[1.0, 0.0], [0.0, 1.0]], [0]),
            ([], []),
            # Outputs that are not one row per record.
            ([0.2, 0.8], [0, 1]),
            (np.zeros((2, 1, 3)), [0, 1]),
            # One-hot labels that do not index the outputs; -1 would read
            # the last column.
            (np.eye(3)[[0, 2]], [0, 3]),
            (np.eye(3)[[0, 2]], [0, -1]),
        ],
    )
    def test_unpaired_or_empty_test_sets_are_rejected(self, outs, labels):
        with pytest.raises(ValidationError):
            accuracy_percent(outs, labels, np.eye(2), [0, 1])


def report(**overrides):
    base = dict(
        experiment="gates:AND",
        net="rvnn",
        seed=0,
        epochs_used=10,
        converged=True,
        train_rms_pct=0.5,
    )
    base.update(overrides)
    return RunReport(**base)


class TestRunReport:
    def test_validation(self):
        with pytest.raises(ValidationError):
            report(net="mlp")
        with pytest.raises(ValidationError):
            report(train_rms_pct=-0.1)
        with pytest.raises(ValidationError):
            report(accuracy_pct=101.0)
        with pytest.raises(ValidationError):
            report(experiment="")
        with pytest.raises(ValidationError, match="epochs_used"):
            report(epochs_used=-1)
        with pytest.raises(ValidationError, match="test RMS"):
            report(test_rms_pct=-0.1)

    def test_optional_metrics_default_to_none(self):
        r = report()
        assert r.test_rms_pct is None and r.accuracy_pct is None

    def test_fields_are_the_csv_columns_but_wall_time(self):
        assert [f.name for f in dataclasses.fields(RunReport)] == list(CSV_COLUMNS[:-1])


class TestCsv:
    def test_header_and_row_shape(self):
        text = reports_to_csv([report()])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "gates:AND"
        assert fields[4] == "true"
        assert fields[6] == "" and fields[7] == ""
        assert fields[8] == "0.0"

    def test_rows_sort_by_experiment_net_seed(self):
        rows = [
            report(experiment="iris:75", net="qnn", seed=1),
            report(experiment="gates:AND", net="rvnn", seed=2),
            report(experiment="gates:AND", net="cvnn", seed=0),
            report(experiment="gates:AND", net="rvnn", seed=0),
        ]
        lines = reports_to_csv(rows).splitlines()[1:]
        keys = [tuple(l.split(",")[:3]) for l in lines]
        assert keys == sorted(keys)
        assert keys[0][1] == "cvnn"

    def test_emission_is_deterministic(self):
        rows = [report(seed=s) for s in range(3)]
        assert reports_to_csv(rows) == reports_to_csv(list(rows))

    def test_empty_report_list_is_rejected(self):
        with pytest.raises(ValidationError):
            reports_to_csv([])


class TestMarkdown:
    def test_one_table_per_experiment(self):
        rows = [
            report(experiment="gates:AND", net="rvnn", seed=0),
            report(experiment="gates:AND", net="rvnn", seed=1, epochs_used=20),
            report(experiment="gates:XOR", net="qnn", accuracy_pct=None),
        ]
        text = reports_to_markdown(rows)
        assert text.count("## gates:AND") == 1
        assert text.count("## gates:XOR") == 1
        assert text.count("|---|---|---|---|---|---|---|") == 2

    def test_aggregates_median_epochs(self):
        rows = [
            report(seed=0, epochs_used=10),
            report(seed=1, epochs_used=30),
            report(seed=2, epochs_used=50),
        ]
        text = reports_to_markdown(rows)
        assert "| rvnn | 3 | 3/3 | 30.0 |" in text

    def test_empty_report_list_is_rejected(self):
        with pytest.raises(ValidationError):
            reports_to_markdown([])


class TestEmit:
    def test_writes_csv_to_a_path(self, tmp_path):
        target = tmp_path / "out.csv"
        text = emit_report([report()], "csv", target)
        assert target.read_text(encoding="utf-8") == text

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValidationError):
            emit_report([report()], "yaml")


SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))

# Runs a short table of each experiment, emits it in both formats and
# prints whether numpy.ma was imported along the way.
SHORT_TABLES = """
import sys
from qnnbench.reporting import emit_report
from qnnbench.runner import ExperimentConfig, run_experiment

params = {net: {"max_epochs": 2} for net in ("rvnn", "cvnn", "qnn")}
for experiment, train_size in (("gates", None), ("iris", 12), ("entanglement", None)):
    config = ExperimentConfig(experiment=experiment, train_size=train_size, net_params=params)
    reports = run_experiment(config)
    for output_format in ("csv", "markdown"):
        emit_report(reports, output_format)
print("numpy.ma" in sys.modules)
"""


def test_no_table_imports_numpy_ma():
    # numpy.ma is about 1.3 MB of peak RSS, which the benchmark gates on; one
    # np.unique call on the run path imports it.
    run = subprocess.run(
        [sys.executable, "-c", SHORT_TABLES],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.stdout == "False\n"
