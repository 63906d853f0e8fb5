import math

import numpy as np
import pytest

from qnnbench.errors import ValidationError
from qnnbench import rvnn
from sampling import numeric_rvnn_gradients, pair_loss

CORNERS = [
    np.array([0.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 0.0]),
    np.array([1.0, 1.0]),
]


def gate_pairs(bits):
    return [(x, np.array([float(b)])) for x, b in zip(CORNERS, bits)]


def zeros_stack(sizes):
    weights = [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(o) for o in sizes[1:]]
    return rvnn.RealLayerStack(weights, biases)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_all_zero_weights():
    net = zeros_stack((3, 5, 2))
    out = rvnn.forward(net, np.array([0.3, -1.2, 7.0]))
    assert np.allclose(out, 0.5)


def test_forward_single_neuron_values():
    net = rvnn.RealLayerStack([np.array([[1.0]])], [np.zeros(1)])
    assert rvnn.forward(net, np.array([0.0]))[0] == pytest.approx(0.5)
    assert rvnn.forward(net, np.array([math.log(3.0)]))[0] == pytest.approx(0.75)


def test_forward_bounded_and_deterministic():
    rng = np.random.default_rng(2)
    net = rvnn.random_stack((4, 8, 3), rng)
    x = rng.standard_normal(4)
    out1 = rvnn.forward(net, x)
    out2 = rvnn.forward(net, x)
    assert np.array_equal(out1, out2)
    assert np.all((out1 > 0) & (out1 < 1))


def test_sigmoid_matches_the_two_divide_form_bit_for_bit():
    # Both branches of the stable logistic divide by the same 1 + e, so
    # dividing once after the select changes no bit.
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0,
             1e308, -1e308, 5e-324, -5e-324]
    t = np.concatenate([rng.normal(scale=30.0, size=10**6), edges])
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    oracle = np.where(t >= 0, 1.0 / d, e / d)
    assert np.array_equal(rvnn.sigmoid(t).view(np.uint64), oracle.view(np.uint64))


def test_forward_rejects_wrong_length():
    net = zeros_stack((3, 2))
    with pytest.raises(ValidationError):
        rvnn.forward(net, np.array([1.0, 2.0]))


def test_stack_validation():
    with pytest.raises(ValidationError, match="one bias vector per weight matrix"):
        rvnn.RealLayerStack([], [])
    with pytest.raises(ValidationError, match="one bias vector per weight matrix"):
        rvnn.RealLayerStack([np.zeros((2, 3))], [np.zeros(2), np.zeros(1)])
    with pytest.raises(ValidationError, match="shapes disagree"):
        rvnn.RealLayerStack([np.zeros((2, 3))], [np.zeros(3)])
    with pytest.raises(ValidationError, match="shapes disagree"):
        rvnn.RealLayerStack([np.zeros(3)], [np.zeros(3)])
    with pytest.raises(ValidationError):
        rvnn.RealLayerStack([np.zeros((2, 3)), np.zeros((2, 4))],
                            [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValidationError):
        rvnn.RealLayerStack([np.full((2, 3), np.nan)], [np.zeros(2)])
    assert_rate_rejected_before_any_update(-0.5)


def assert_rate_rejected_before_any_update(rate):
    nets = [rvnn.random_stack((2, 1), np.random.default_rng(seed)) for seed in (0, 1)]
    before = [[p.copy() for p in net.weights + net.biases] for net in nets]
    pairs = gate_pairs([0, 0, 0, 1])
    with pytest.raises(ValidationError, match="learning rate"):
        rvnn.train_lockstep(nets, [pairs, pairs], rate, 0.01, max_epochs=1)
    for net, old in zip(nets, before):
        for p, q in zip(net.weights + net.biases, old):
            assert p.tobytes() == q.tobytes()


@pytest.mark.parametrize("rate", [True, np.bool_(False), "0.5", None])
def test_stack_rejects_a_learning_rate_that_is_not_a_real_number(rate):
    assert_rate_rejected_before_any_update(rate)


# ---------------------------------------------------------------------------
# Training mechanics
# ---------------------------------------------------------------------------

def test_zero_rate_epoch_is_a_no_op():
    net = rvnn.random_stack((2, 3, 1), np.random.default_rng(5))
    pairs = gate_pairs([0, 1, 1, 1])
    before = [w.copy() for w in net.weights]
    static_sq = sum(
        float(np.sum((rvnn.forward(net, x) - t) ** 2)) for x, t in pairs
    )
    rms = rvnn.train_to_threshold(net, pairs, 0.0, 0.01, max_epochs=1).rms_history[0]
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))
    assert rms == pytest.approx(math.sqrt(static_sq / 4))


def test_tiny_rate_reduces_single_pair_loss():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = rvnn.random_stack((3, 4, 2), rng)
        pair = (rng.standard_normal(3), rng.uniform(0.1, 0.9, 2))
        before = pair_loss(net, *pair)
        rvnn.train_to_threshold(net, [pair], 1e-3, 0.01, max_epochs=1)
        assert pair_loss(net, *pair) <= before


def test_epoch_change_scales_with_rate():
    pairs = gate_pairs([0, 0, 0, 1])
    deltas = []
    for lr in (1e-4, 1e-5):
        net = rvnn.random_stack((2, 1), np.random.default_rng(3))
        w0 = net.weights[0].copy()
        rvnn.train_to_threshold(net, pairs, lr, 0.01, max_epochs=1)
        deltas.append(np.max(np.abs(net.weights[0] - w0)))
    assert deltas[0] == pytest.approx(10 * deltas[1], rel=1e-2)


def test_or_gate_epoch_count_matches_reference_scale():
    # At the tuned rate a bare perceptron needs a few thousand epochs for OR.
    net = rvnn.random_stack((2, 1), np.random.default_rng(0))
    result = rvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 1]), 2.0, 0.01, 20_000)
    assert result.converged
    assert 3_000 <= result.epochs_used <= 9_000


def test_single_layer_xor_stalls_above_half():
    net = rvnn.random_stack((2, 1), np.random.default_rng(0))
    result = rvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 0]), 2.0, 0.01, 20_000)
    assert not result.converged
    assert result.rms_history[-1] >= 0.5


def test_hidden_layer_solves_xor():
    net = rvnn.random_stack((2, 2, 1), np.random.default_rng(0))
    result = rvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 0]), 2.0, 0.01, 30_000)
    assert result.converged


def test_converged_net_stops_after_one_epoch():
    net = rvnn.random_stack((2, 1), np.random.default_rng(1))
    pairs = [(x, rvnn.forward(net, x)) for x in CORNERS]
    result = rvnn.train_to_threshold(net, pairs, 0.0, 0.01, 100)
    assert result.converged and result.epochs_used == 1


def test_threshold_argument_validation():
    net = zeros_stack((2, 1))
    with pytest.raises(ValidationError):
        rvnn.train_to_threshold(net, [], 0.1, 0.01, max_epochs=1)


@pytest.mark.parametrize(
    "sizes, x, t",
    [
        # One target for two outputs would broadcast into both.
        ((2, 2), [0.0, 1.0], [1.0]),
        ((2, 1), [0.0, 1.0, 1.0], [1.0]),
        ((2, 1), [0.0, 1.0], [1.0, 0.0]),
        ((2, 1), [0.0, 1.0], 1.0),
        # A non-finite value would turn every weight into NaN.
        ((2, 1), [np.nan, 1.0], [1.0]),
        ((2, 1), [0.0, np.inf], [1.0]),
        ((2, 1), [0.0, 1.0], [np.nan]),
        ((2, 1), [0.0, 1.0], [-np.inf]),
    ],
    ids=[
        "narrow-target",
        "wide-input",
        "wide-target",
        "scalar-target",
        "nan-input",
        "inf-input",
        "nan-target",
        "inf-target",
    ],
)
def test_pair_widths_are_checked_before_any_update(sizes, x, t):
    net = rvnn.random_stack(sizes, np.random.default_rng(2))
    before = [p.copy() for p in net.weights + net.biases]
    good = (np.zeros(sizes[0]), np.full(sizes[-1], 0.5))
    pairs = [good, (np.array(x), np.array(t))]
    with pytest.raises(ValidationError):
        rvnn.train_to_threshold(net, pairs, 0.5, 0.01, max_epochs=1)
    for p, old in zip(net.weights + net.biases, before):
        assert p.tobytes() == old.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_parameters_other_than_float64_are_rejected(dtype):
    # Training runs in a float64 buffer; writing it back into narrower
    # arrays would cast the final weights silently.
    net = zeros_stack((2, 1))
    net.weights[0] = net.weights[0].astype(dtype)
    with pytest.raises(ValidationError):
        rvnn.train_to_threshold(net, gate_pairs([0, 0, 0, 1]), 0.1, 0.01, max_epochs=1)
    assert net.weights[0].dtype == dtype


def test_training_is_deterministic_per_seed():
    histories = []
    for _ in range(2):
        net = rvnn.random_stack((2, 2, 1), np.random.default_rng(42))
        result = rvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 0]), 2.0, 0.01, 2_000)
        histories.append(result.rms_history)
    assert histories[0] == histories[1]


# ---------------------------------------------------------------------------
# Gradient correctness
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for sizes in ((2, 1), (3, 4, 2), (4, 8, 3)):
        net = rvnn.random_stack(sizes, rng)
        pairs = [
            (rng.standard_normal(sizes[0]), rng.uniform(0.1, 0.9, sizes[-1]))
            for _ in range(5)
        ]
        for x, t in pairs:
            analytic_w, analytic_b, _ = rvnn.pair_gradients(net, x, t)
            numeric_w, numeric_b = numeric_rvnn_gradients(net, x, t)
            for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
                rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-8)
                assert np.max(rel) < 1e-4
