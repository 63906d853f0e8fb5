"""The stop rule shared by the three nets (qnnbench.training), checked once
through each net's training entry point on the XOR gate, and the epoch loop's
cycle fast-forward, checked against a plain loop that runs every epoch."""

import math

import numpy as np
import pytest

from qnnbench import cvnn, qnn, runner, rvnn, tasks, training
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


# ---------------------------------------------------------------------------
# Cycle fast-forward: run_epochs against a plain loop that runs every epoch
# ---------------------------------------------------------------------------


def plain_epochs(epoch, state, rms_target, max_epochs):
    """run_epochs without cycle detection: every epoch runs."""
    training.check_stop_rule(rms_target, max_epochs)
    columns = []
    for used in range(1, max_epochs + 1):
        record = epoch()
        if not columns:
            columns = [[] for _ in record]
        for column, value in zip(columns, record):
            column.append(value)
        if record[0] <= rms_target:
            return (used, True, *columns)
    return (max_epochs, False, *columns)


def counted(monkeypatch, module, name):
    """Wrap module.name so that its calls are counted; returns the count."""
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def bits(values):
    return b"".join(np.asarray(v).tobytes() for v in values)


def rho_map(tail, period):
    """A deterministic epoch over integer states: tail states lead into a
    cycle of the given period. Records are (rms, state)."""
    x = 0

    def step(v):
        return v + 1 if v + 1 < tail + period else tail

    def epoch():
        nonlocal x
        x = step(x)
        return 0.5 + 0.01 * (x % 7), x

    return epoch, lambda: x


@pytest.mark.parametrize("tail, period", [(0, 1), (5, 1), (0, 3), (7, 5), (100, 37)])
def test_run_epochs_matches_the_plain_loop_on_every_cap(tail, period):
    for max_epochs in range(1, 300):
        fast = training.run_epochs(*rho_map(tail, period), 0.01, max_epochs)
        slow = plain_epochs(*rho_map(tail, period), 0.01, max_epochs)
        assert fast == slow


def runner_stream(net, seed, variant):
    """The init stream runner.run_trial hands a net."""
    entropy = (seed, runner.ROLE_NET_INIT, runner.NETS.index(net), variant)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def rvnn_xor_trial(max_epochs):
    params = runner.DEFAULTS["gates"]["rvnn"]
    rng = runner_stream("rvnn", 0, tasks.GATE_NAMES.index("XOR"))
    net = rvnn.random_stack((2, 1), params["learning_rate"], rng)
    pairs = tasks.gate_encode_rvnn(XOR)
    result = rvnn.train_to_threshold(net, pairs, params["rms_target"], max_epochs)
    return result, bits(net.weights + net.biases)


def assert_same_run(fast, slow):
    (fast, fast_state), (slow, slow_state) = fast, slow
    assert fast.epochs_used == slow.epochs_used
    assert fast.converged == slow.converged
    assert bits(fast.rms_history) == bits(slow.rms_history)
    assert fast_state == slow_state


# Seed 0 enters a cycle of period 4 at epoch 617, so these caps leave every
# remainder mod 4 for the leftover epochs.
@pytest.mark.parametrize("max_epochs", [2_000, 2_001, 2_002, 2_003])
def test_parity_rvnn_trial_matches_the_plain_loop(monkeypatch, max_epochs):
    calls = counted(monkeypatch, rvnn, "pair_gradients")
    fast = rvnn_xor_trial(max_epochs)
    assert calls[0] < max_epochs * len(XOR.pairs)
    with monkeypatch.context() as patch:
        patch.setattr(rvnn, "run_epochs", plain_epochs)
        slow = rvnn_xor_trial(max_epochs)
    assert not fast[0].converged
    assert_same_run(fast, slow)


def witness_qnn_trial(seed):
    params = runner.DEFAULTS["entanglement"]["qnn"]
    pairs = [tasks.witness_encode_qnn(p) for p in tasks.witness_dataset(4, seed)]
    rng = runner_stream("qnn", seed, 0)
    schedule = qnn.random_schedule(params["slices"], params["t_f"], rng)
    config = qnn.QnnConfig(
        learning_rate=params["learning_rate"],
        max_epochs=params["max_epochs"],
        rms_target=params["rms_target"],
        seed=seed,
        backtracking=params["backtracking"],
    )
    result = qnn.train(pairs, config, schedule)
    return result, result.schedule.as_array().tobytes()


def test_stalled_witness_qnn_matches_the_plain_loop(monkeypatch):
    # Seed 7's line search rejects every halving from epoch 1,074 on, a
    # fixed point that no power-of-two snapshot would reach within 2,000.
    calls = counted(monkeypatch, qnn, "gradient")
    fast = witness_qnn_trial(7)
    assert calls[0] < 1_100
    with monkeypatch.context() as patch:
        patch.setattr(qnn, "run_epochs", plain_epochs)
        slow = witness_qnn_trial(7)
    assert_same_run(fast, slow)


def test_all_degenerate_cvnn_counts_every_skip_of_the_budget():
    # Both pairs sum to exactly 0, so every epoch skips them and leaves the
    # weights as they are: the plain loop's run is known without running it.
    net = cvnn.ComplexLayerStack([np.array([[1.0 + 0j, 1.0 + 0j, 0j]])])
    before = bits(net.weights)
    target = [cvnn.map_scalar(1)]
    pairs = [
        (np.array([1.0 + 0j, -1.0 + 0j]), target),
        (np.array([-1.0 + 0j, 1.0 + 0j]), target),
    ]
    with pytest.warns(UserWarning):
        result = cvnn.train_to_threshold(net, pairs, 0.01, 1_000_000)
    assert (result.epochs_used, result.converged) == (1_000_000, False)
    assert result.skipped == len(pairs) * 1_000_000
    assert result.rms_history == [1.0] * 1_000_000
    assert bits(net.weights) == before


def test_a_frozen_net_runs_one_epoch_of_a_million(monkeypatch):
    calls = counted(monkeypatch, rvnn, "pair_gradients")
    net = rvnn.random_stack((2, 1), 0.0, np.random.default_rng(0))
    pairs = tasks.gate_encode_rvnn(XOR)
    result = rvnn.train_to_threshold(net, pairs, 0.01, 1_000_000)
    assert calls[0] <= 2 * len(pairs)
    assert (result.epochs_used, result.converged) == (1_000_000, False)
    assert len(result.rms_history) == 1_000_000
