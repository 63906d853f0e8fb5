"""The stop rule shared by the three nets (qnnbench.training), checked once
through each net's training entry point on the XOR gate."""

import math

import numpy as np
import pytest

from qnnbench import cvnn, qnn, rvnn, tasks
from qnnbench.errors import ValidationError

XOR = tasks.gate_dataset("XOR")


def train_rvnn(rms_target, max_epochs):
    net = rvnn.random_stack((2, 2, 1), 2.0, np.random.default_rng(0))
    pairs = tasks.gate_encode_rvnn(XOR)
    return rvnn.train_to_threshold(net, pairs, rms_target, max_epochs)


def train_cvnn(rms_target, max_epochs):
    net = cvnn.random_stack((2, 1), np.random.default_rng(0))
    pairs, readout = tasks.gate_encode_cvnn(XOR)
    return cvnn.train_to_threshold(net, pairs, rms_target, max_epochs, readout)


def train_qnn(rms_target, max_epochs):
    schedule = qnn.random_schedule(4, 1.0, np.random.default_rng(0))
    pairs, readout = tasks.gate_encode_qnn(XOR)
    config = qnn.QnnConfig(
        learning_rate=20.0, max_epochs=max_epochs, rms_target=rms_target
    )
    return qnn.train(pairs, config, schedule, readout)


TRAIN = pytest.mark.parametrize(
    "train", [train_rvnn, train_cvnn, train_qnn], ids=["rvnn", "cvnn", "qnn"]
)

# Far below any RMS the reference runs reach in their few epochs.
UNREACHED = 1e-12
REFERENCE_EPOCHS = 12


@TRAIN
@pytest.mark.parametrize(
    "rms_target, max_epochs",
    [
        (0.0, 10),
        (1.0, 10),
        (math.nan, 10),
        (1.5, 10),
        (0.01, 0),
        (0.01, 2.5),
        (0.01, True),
    ],
)
def test_stop_rule_arguments_are_validated(train, rms_target, max_epochs):
    with pytest.raises(ValidationError):
        train(rms_target, max_epochs)


@TRAIN
def test_unconverged_run_uses_every_epoch(train):
    result = train(UNREACHED, REFERENCE_EPOCHS)
    assert result.epochs_used == REFERENCE_EPOCHS
    assert not result.converged
    assert len(result.rms_history) == REFERENCE_EPOCHS


@TRAIN
def test_run_stops_at_the_first_epoch_equal_to_the_target(train):
    history = train(UNREACHED, REFERENCE_EPOCHS).rms_history
    # A rerun from the same start with target history[k] must stop at epoch
    # k + 1, provided no earlier epoch already reached history[k].
    k = max(
        j
        for j in range(1, REFERENCE_EPOCHS - 1)
        if history[j] < min(history[:j])
    )
    result = train(history[k], REFERENCE_EPOCHS)
    assert result.epochs_used == k + 1
    assert result.converged
    assert result.rms_history == history[: k + 1]
