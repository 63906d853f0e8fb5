import cmath
import math
import warnings

import numpy as np
import pytest

from qnnbench.errors import DegenerateActivationError, ValidationError
from qnnbench import cvnn, tasks
from qnnbench.training import run_epochs

BITS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def gate_pairs(table, periodic=False):
    pairs = []
    for (b1, b2), t in zip(BITS, table):
        x = np.array([cvnn.map_scalar(b1), cvnn.map_scalar(b2)])
        spec = [cvnn.periodic_candidates(t)] if periodic else [cvnn.map_scalar(t)]
        pairs.append((x, spec))
    return pairs


# ---------------------------------------------------------------------------
# Circle mapping
# ---------------------------------------------------------------------------

def test_map_scalar_endpoints_and_midpoint():
    assert cvnn.map_scalar(0.0) == pytest.approx(1.0 + 0.0j)
    assert cvnn.map_scalar(1.0) == pytest.approx(-1.0 + 0.0j, abs=1e-15)
    assert cvnn.map_scalar(0.5) == pytest.approx(1.0j, abs=1e-15)


def test_map_scalar_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValidationError):
            cvnn.map_scalar(bad)


def test_unmap_reference_points():
    assert cvnn.unmap(1.0 + 0.0j) == pytest.approx(0.0)
    assert cvnn.unmap(1.0j) == pytest.approx(0.5)
    assert cvnn.unmap(-1.0 + 0.0j) == pytest.approx(1.0)


def test_unmap_rejects_origin():
    with pytest.raises(ValidationError):
        cvnn.unmap(0.0 + 0.0j)


def test_map_unmap_round_trip():
    for r in np.linspace(0.0, 1.0, 101):
        assert abs(cvnn.unmap(cvnn.map_scalar(r)) - r) < 1e-12


def test_unmap_reflects_lower_half_plane():
    # Conjugate points read back identically.
    for angle in (0.3, 1.1, 2.9):
        z = cmath.exp(1j * angle)
        assert cvnn.unmap(z.conjugate()) == pytest.approx(cvnn.unmap(z))


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

def test_activation_reference_points():
    assert cvnn.activation(1 + 1j) == pytest.approx(cmath.exp(1j * math.pi / 4))
    assert cvnn.activation(-3 + 0j) == pytest.approx(-1.0 + 0.0j)
    assert cvnn.activation(5j) == pytest.approx(1.0j)


def test_activation_rejects_origin():
    with pytest.raises(DegenerateActivationError):
        cvnn.activation(0j)


def test_activation_rejects_an_array_with_one_zero_entry():
    z = np.array([1.0 + 1.0j, 0j, -2.0 + 0.5j])
    with pytest.raises(DegenerateActivationError):
        cvnn.activation(z)


def test_activation_preserves_argument():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if z == 0:
            continue
        out = cvnn.activation(z)
        assert abs(abs(out) - 1.0) < 1e-12
        assert cmath.phase(out) == pytest.approx(cmath.phase(z))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_single_neuron_sum():
    net = cvnn.ComplexLayerStack([np.array([[1.0 + 0j, 1.0 + 0j, 0j]])])
    out = cvnn.forward(net, np.array([1.0 + 0j, 1.0j]))
    assert out[0] == pytest.approx(cmath.exp(1j * math.pi / 4))


def test_forward_positive_real_product():
    net = cvnn.ComplexLayerStack([np.array([[2.0 - 1.0j, 0j]])])
    x = np.array([(2.0 + 1.0j) / 5.0])  # w*x = 1
    assert cvnn.forward(net, x)[0] == pytest.approx(1.0 + 0.0j)


def test_forward_two_layer_unit_weights():
    net = cvnn.ComplexLayerStack(
        [np.array([[1.0 + 0j, 0j]]), np.array([[1.0 + 0j, 0j]])]
    )
    assert cvnn.forward(net, np.array([1.0 + 0j]))[0] == pytest.approx(1.0 + 0.0j)


def test_forward_outputs_on_unit_circle():
    rng = np.random.default_rng(3)
    net = cvnn.random_stack((4, 6, 3), rng)
    for _ in range(50):
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        out = cvnn.forward(net, x)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12


def test_forward_degenerate_sum_raises():
    net = cvnn.ComplexLayerStack([np.array([[1.0 + 0j, 1.0 + 0j, 0j]])])
    with pytest.raises(DegenerateActivationError):
        cvnn.forward(net, np.array([1.0 + 0j, -1.0 + 0j]))


def test_forward_rejects_wrong_length():
    net = cvnn.random_stack((3, 2), np.random.default_rng(0))
    with pytest.raises(ValidationError, match="input of length 3"):
        cvnn.forward(net, np.ones(2, dtype=complex))


def test_stack_validation():
    with pytest.raises(ValidationError):
        cvnn.ComplexLayerStack([])
    with pytest.raises(ValidationError, match="must be a matrix"):
        cvnn.ComplexLayerStack([np.ones(3, dtype=complex)])
    with pytest.raises(ValidationError, match="non-finite"):
        cvnn.ComplexLayerStack([np.array([[1.0 + 0j, complex(np.nan), 0j]])])
    # Layer 1 needs 2 + 1 columns: the hidden width plus the bias column.
    with pytest.raises(ValidationError):
        cvnn.ComplexLayerStack(
            [np.ones((2, 3), dtype=complex), np.ones((1, 2), dtype=complex)]
        )


# ---------------------------------------------------------------------------
# Layer correction
# ---------------------------------------------------------------------------

def correct_sum(w, x, t):
    """One neuron with weights w corrected toward the raw sum t by the
    kernel that training runs."""
    return cvnn._correct(w[None, :], x, np.array([t - np.dot(w, x)]))[0]


def test_update_zero_error_is_identity():
    w = np.array([0.3 + 0.2j, -0.5 + 1j])
    x = np.array([1.0 + 0j, 1.0j])
    t = np.dot(w, x)
    assert np.allclose(correct_sum(w, x, t), w)


def test_update_single_weight_reference():
    new = correct_sum(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 1.0j)
    assert new[0] == pytest.approx(1.0j)


def test_update_two_weight_reference():
    w = np.array([1.0 + 0j, 1.0 + 0j])
    x = np.array([1.0 + 0j, 1.0j])
    t = 0.5 * np.dot(w, x)
    new = correct_sum(w, x, t)
    assert np.dot(new, x) == pytest.approx(t, abs=1e-12)


def test_update_is_exact_correction():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.2, 2.0, n)
        t = complex(rng.standard_normal(), rng.standard_normal())
        new = correct_sum(w, x, t)
        worst = max(worst, abs(np.dot(new, x) - t))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_zero_error_pairs_leave_net_unchanged():
    net = cvnn.random_stack((2, 1), np.random.default_rng(31))
    inputs = [x for x, _ in gate_pairs([0, 0, 0, 1])]
    pairs = [(x, [cvnn.forward(net, x)[0]]) for x in inputs]
    before = net.weights[0].copy()
    result = cvnn.train_to_threshold(net, pairs, 0.01, max_epochs=1)
    rms, skipped = result.rms_history[0], result.skipped
    assert np.array_equal(net.weights[0], before)
    assert rms == pytest.approx(0.0, abs=1e-12)
    assert skipped == 0


def test_epoch_rms_is_the_error_before_the_update():
    net = cvnn.random_stack((2, 3, 1), np.random.default_rng(5))
    x, targets = gate_pairs([0, 0, 0, 1])[3]
    want = cvnn.unmap(targets[0])
    before_error = abs(cvnn.unmap(cvnn.forward(net, x)[0]) - want)
    before = [w.copy() for w in net.weights]
    result = cvnn.train_to_threshold(net, [(x, targets)], 0.01, max_epochs=1)
    rms, skipped = result.rms_history[0], result.skipped
    after_error = abs(cvnn.unmap(cvnn.forward(net, x)[0]) - want)
    assert skipped == 0
    assert not any(np.array_equal(w, b) for w, b in zip(net.weights, before))
    assert before_error > 0.1 and abs(after_error - before_error) > 0.01
    assert rms == pytest.approx(before_error, rel=1e-12)


@pytest.mark.parametrize(
    "table,periodic",
    [
        ([0, 0, 0, 1], False),
        ([1, 1, 1, 0], False),
        ([0, 1, 1, 1], False),
        ([1, 0, 0, 0], False),
        ([0, 1, 1, 0], True),
        ([1, 0, 0, 1], True),
    ],
    ids=["and", "nand", "or", "nor", "xor", "xnor"],
)
def test_single_layer_converges_each_gate(table, periodic):
    readout = cvnn.doubled_angle_readout if periodic else cvnn.unmap
    net = cvnn.random_stack((2, 1), np.random.default_rng(0))
    result = cvnn.train_to_threshold(
        net, gate_pairs(table, periodic), 0.01, 5000, readout=readout
    )
    assert result.converged
    assert result.epochs_used <= 200


def test_hidden_layer_converges_on_xor_with_plain_targets():
    net = cvnn.random_stack((2, 4, 1), np.random.default_rng(0))
    result = cvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 0]), 0.01, 2000)
    assert result.converged


def test_already_correct_net_stops_immediately():
    net = cvnn.ComplexLayerStack([np.array([[1.0 + 0j, 1.0 + 0j, 1.0 + 0j]])])
    result = cvnn.train_to_threshold(net, gate_pairs([0, 0, 0, 1]), 0.01, 100)
    assert result.converged and result.epochs_used == 1


def test_degenerate_pair_is_skipped_and_counted():
    net = cvnn.ComplexLayerStack([np.array([[1.0 + 0j, 1.0 + 0j, 0j]])])
    bad = (np.array([1.0 + 0j, -1.0 + 0j]), [cvnn.map_scalar(1)])
    before = net.weights[0].copy()
    with pytest.warns(UserWarning):
        skipped = cvnn.train_to_threshold(net, [bad], 0.01, max_epochs=1).skipped
    assert skipped == 1
    assert np.array_equal(net.weights[0], before)
    # Since the skip restores the weights, the pair degenerates every epoch;
    # an all-skipped epoch reports full-scale RMS instead of claiming success.
    with pytest.warns(UserWarning):
        result = cvnn.train_to_threshold(net, [bad], 0.5, 3)
    assert not result.converged
    assert result.skipped == 3
    assert result.rms_history == [1.0, 1.0, 1.0]


def test_pair_degenerating_after_a_corrected_layer_leaves_the_net_untouched():
    # Correcting layer 0 moves the hidden sum from 1 to exactly 0, so the
    # pair degenerates only after a layer has already been corrected.
    net = cvnn.ComplexLayerStack(
        [np.array([[0.5 + 0j, 0.5 + 0j]]), np.array([[1.0 + 0j, 0j]])]
    )
    before = [w.copy() for w in net.weights]
    with pytest.warns(UserWarning):
        result = cvnn.train_to_threshold(
            net, [(np.array([1.0 + 0j]), [-1.0 + 0j])], 0.01, max_epochs=1
        )
    rms, skipped = result.rms_history[0], result.skipped
    assert skipped == 1
    assert rms == 1.0
    for w, old in zip(net.weights, before):
        assert w.tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "x, targets",
    [
        # A second target would be zipped away yet counted in the RMS.
        ([1.0 + 0j, 1.0 + 0j], [1.0 + 0j, -1.0 + 0j]),
        ([1.0 + 0j, 1.0 + 0j], []),
        ([1.0 + 0j, 1.0 + 0j, 1.0 + 0j], [1.0 + 0j]),
        ([1.0 + 0j], [1.0 + 0j]),
        # The update takes the inverse of every input, and the RMS reads
        # every target back; neither exists at the origin.
        ([0j, 1.0 + 0j], [1.0 + 0j]),
        ([1.0 + 0j, 1.0 + 0j], [0j]),
        # A non-finite value would turn every weight into NaN.
        ([complex(np.nan), 1.0 + 0j], [1.0 + 0j]),
        ([1.0 + 0j, complex(np.inf)], [1.0 + 0j]),
        ([1.0 + 0j, 1.0 + 0j], [complex(np.nan)]),
        ([1.0 + 0j, 1.0 + 0j], [(1j, complex(np.inf))]),
    ],
    ids=[
        "wide-target",
        "no-target",
        "wide-input",
        "narrow-input",
        "zero-input",
        "zero-target",
        "nan-input",
        "inf-input",
        "nan-target",
        "inf-candidate",
    ],
)
def test_pair_widths_are_checked_before_any_update(x, targets):
    net = cvnn.random_stack((2, 1), np.random.default_rng(4))
    before = net.weights[0].copy()
    good = gate_pairs([0, 0, 0, 1])[1]
    pairs = [good, (np.array(x), targets)]
    with pytest.raises(ValidationError):
        cvnn.train_to_threshold(net, pairs, 0.01, max_epochs=1)
    assert net.weights[0].tobytes() == before.tobytes()


def test_training_is_deterministic_per_seed():
    histories = []
    for _ in range(2):
        net = cvnn.random_stack((2, 1), np.random.default_rng(11))
        result = cvnn.train_to_threshold(net, gate_pairs([0, 1, 1, 1]), 0.01, 500)
        histories.append(result.rms_history)
    assert histories[0] == histories[1]


def test_threshold_argument_validation():
    net = cvnn.random_stack((2, 1), np.random.default_rng(0))
    with pytest.raises(ValidationError):
        cvnn.train_to_threshold(net, [], 0.01, max_epochs=1)


def test_initial_weights_avoid_origin():
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = cvnn.random_stack((3, 5, 2), rng)
        for w in net.weights:
            mods = np.abs(w)
            assert np.all(mods >= 0.1) and np.all(mods <= 0.5)


# ---------------------------------------------------------------------------
# Training against the checked per-pair oracle
# ---------------------------------------------------------------------------

def oracle_pair(net, x, targets):
    """One pair through the checked public forward pass, then the pair
    errors and the correction kernel per layer, each fed by the corrected
    layers below it. The net is written only once every layer is corrected."""
    outputs = cvnn.forward(net, x)
    errors = cvnn._pair_errors(net.weights, outputs, targets)
    fed = cvnn._with_bias(np.asarray(x, dtype=complex))
    corrected = []
    for w, e in zip(net.weights, errors):
        if corrected:
            fed = cvnn._with_bias(cvnn.activation(corrected[-1] @ fed))
        corrected.append(cvnn._correct(w, fed, e))
    net.weights = corrected
    return outputs


def oracle_train(net, pairs, rms_target, max_epochs, readout=cvnn.unmap):
    """train_to_threshold's epochs and stop rule, each pair run by oracle_pair."""
    wants = [[readout(t[0] if isinstance(t, tuple) else t) for t in ts] for _, ts in pairs]

    def epoch():
        sq_sum, skipped = 0.0, 0
        for (x, targets), want in zip(pairs, wants):
            try:
                outs = oracle_pair(net, x, targets)
            except DegenerateActivationError:
                skipped += 1
                continue
            pair_sq = 0.0
            for z, w in zip(outs, want):
                pair_sq += (readout(z) - w) ** 2
            sq_sum += pair_sq
        n_components = net.sizes[-1] * (len(pairs) - skipped)
        if n_components == 0:
            return [1.0], [skipped]
        return [float(np.sqrt(sq_sum / n_components))], [skipped]

    [(used, converged, history, skips)] = run_epochs(
        epoch,
        lambda: np.concatenate([w.ravel() for w in net.weights]).view(np.uint64)[None],
        rms_target,
        max_epochs,
    )
    return cvnn.TrainResult(net, used, converged, history, sum(skips))


def assert_matches_oracle(sizes, seed, pairs, max_epochs, readout=cvnn.unmap):
    runs = []
    for train in (cvnn.train_to_threshold, oracle_train):
        net = cvnn.random_stack(sizes, np.random.default_rng(seed))
        runs.append(train(net, pairs, 0.01, max_epochs, readout=readout))
    lean, oracle = runs
    assert np.array(lean.rms_history).tobytes() == np.array(oracle.rms_history).tobytes()
    assert (lean.epochs_used, lean.converged, lean.skipped) == (
        oracle.epochs_used,
        oracle.converged,
        oracle.skipped,
    )
    for w, ref in zip(lean.net.weights, oracle.net.weights):
        assert w.tobytes() == ref.tobytes()
    return lean


def test_iris_training_matches_the_oracle():
    records = tasks.load_iris(None)
    bounds = tasks.feature_bounds(records)
    train, _ = tasks.split_stratified(records, 75, 0)
    pairs = [tasks.iris_encode_cvnn(r, bounds) for r in train]
    result = assert_matches_oracle((4, 100, 3), 0, pairs, 20)
    assert result.epochs_used == 20 and result.skipped == 0


@pytest.mark.parametrize("table", [[0, 1, 1, 0], [1, 0, 0, 1]], ids=["xor", "xnor"])
@pytest.mark.parametrize("seed", range(3))
def test_periodic_gate_training_matches_the_oracle(table, seed):
    result = assert_matches_oracle(
        (2, 1), seed, gate_pairs(table, periodic=True), 300, cvnn.doubled_angle_readout
    )
    assert result.converged


@pytest.mark.parametrize("seed", range(3))
def test_witness_training_matches_the_oracle(seed):
    pairs = [tasks.witness_encode_cvnn(p) for p in tasks.witness_dataset(4, seed)]
    assert_matches_oracle((16, 8, 1), seed, pairs, 300)


@pytest.mark.parametrize(
    "second",
    # [1, 0] corrects the hidden sum to exactly 0; [0, 1] has a zero carrier.
    [np.array([[1.0 + 0j, 0j]]), np.array([[0j, 1.0 + 0j]])],
    ids=["zero-corrected-sum", "zero-carrier"],
)
def test_pair_degenerating_part_way_matches_the_oracle(second):
    pairs = [(np.array([1.0 + 0j]), [-1.0 + 0j])]
    results = []
    for train in (cvnn.train_to_threshold, oracle_train):
        net = cvnn.ComplexLayerStack([np.array([[0.5 + 0j, 0.5 + 0j]]), second.copy()])
        before = [w.tobytes() for w in net.weights]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results.append(train(net, pairs, 0.01, 3))
        assert [w.tobytes() for w in net.weights] == before
    lean, oracle = results
    assert lean.rms_history == oracle.rms_history == [1.0, 1.0, 1.0]
    assert lean.skipped == oracle.skipped == 3
    assert not lean.converged and lean.epochs_used == oracle.epochs_used == 3


# ---------------------------------------------------------------------------
# Periodic codec
# ---------------------------------------------------------------------------

def test_periodic_candidates_are_antipodal_and_read_back():
    for bit in (0, 1):
        a, b = cvnn.periodic_candidates(bit)
        assert a == pytest.approx(-b)
        assert cvnn.doubled_angle_readout(a) == pytest.approx(float(bit), abs=1e-12)
        assert cvnn.doubled_angle_readout(b) == pytest.approx(float(bit), abs=1e-12)
    with pytest.raises(ValidationError):
        cvnn.periodic_candidates(2)


def test_nearest_target_selection():
    spec = cvnn.periodic_candidates(1)  # (i, -i)
    assert cvnn.nearest_target(spec, 0.9j) == pytest.approx(1.0j)
    assert cvnn.nearest_target(spec, -0.9j) == pytest.approx(-1.0j)
    assert cvnn.nearest_target(0.5 + 0j, 123.0 + 0j) == pytest.approx(0.5 + 0j)
