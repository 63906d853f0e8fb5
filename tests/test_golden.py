"""The bench's gates table, the classical rows of its witness table and the
cvnn row of its iris table, run through the library and held to the golden
tables in bench/golden: every row's epochs_used, converged and RMS columns
must come out as recorded there."""

import os

from qnnbench.reporting import emit_report
from qnnbench.runner import ExperimentConfig, run_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "bench", "golden")
COLUMNS = ("epochs_used", "converged", "train_rms_pct", "test_rms_pct")


def table(lines):
    """CSV lines -> {(experiment, net, seed): the COLUMNS fields}."""
    header = lines[0].split(",")
    at = [header.index(c) for c in COLUMNS]
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[tuple(fields[:3])] = tuple(fields[i] for i in at)
    return rows


def golden(name):
    with open(os.path.join(GOLDEN, f"{name}.csv"), encoding="utf-8") as handle:
        return table(handle.read().splitlines())


def run(config):
    return table(emit_report(run_experiment(config), "csv").splitlines())


def test_gates_table_matches_the_golden_table():
    config = ExperimentConfig(
        "gates", seeds=(0, 1, 2), net_params={"rvnn": {"max_epochs": 20_000}}
    )
    assert run(config) == golden("gates")


def test_witness_classical_rows_match_the_golden_table():
    # The golden witness qnn rows were recorded before the witness qnn took
    # its backtracking step, which moved all ten, so only the classical
    # rows are held to it.
    config = ExperimentConfig(
        "entanglement", nets=("rvnn", "cvnn"), seeds=tuple(range(10)), train_size=4
    )
    expected = {k: v for k, v in golden("witness").items() if k[1] != "qnn"}
    assert run(config) == expected


def test_iris_cvnn_row_matches_the_golden_table():
    # The 4-100-3 cvnn runs all 1,000 of its epochs here, 75,000 pair steps
    # over which a change in the step's rounding grows into the RMS columns.
    config = ExperimentConfig("iris", nets=("cvnn",), seeds=(0,), train_size=75)
    expected = {k: v for k, v in golden("iris").items() if k[1] == "cvnn"}
    assert run(config) == expected
