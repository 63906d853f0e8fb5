"""The stop rule shared by the three nets (qnnbench.training), checked once
through each net's training entry point on the XOR gate, and the epoch loop's
cycle fast-forward and lockstep trials, checked against a plain loop that
runs every epoch of one trial."""

import math

import numpy as np
import pytest

from qnnbench import cvnn, qnn, runner, rvnn, tasks, training
from qnnbench.errors import ValidationError

XOR = tasks.gate_dataset("XOR")


def train_rvnn(rms_target, max_epochs):
    net = rvnn.random_stack((2, 2, 1), np.random.default_rng(0))
    pairs, _ = tasks.gate_encode_rvnn(XOR)
    return rvnn.train_to_threshold(net, pairs, 2.0, rms_target, max_epochs)


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


def plain_epochs(epoch, state, rms_target, max_epochs, shrink=None):
    """run_epochs for one trial without cycle detection: every epoch runs."""
    training.check_stop_rule(rms_target, max_epochs)
    assert len(state()) == 1
    columns = []
    for used in range(1, max_epochs + 1):
        record = epoch()
        if not columns:
            columns = [[] for _ in record]
        for column, values in zip(columns, record):
            column.append(values[0])
        if record[0][0] <= rms_target:
            return [(used, True, *columns)]
    return [(max_epochs, False, *columns)]


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


def rho_maps(*shapes):
    """Deterministic epochs over integer states, one trial per (tail,
    period, hit): tail states lead into a cycle of the given period, and a
    trial converges on reaching state hit (None: never). Records are
    (rms, state) per running trial."""
    shapes = list(shapes)
    xs = [0] * len(shapes)

    def epoch():
        for k, (tail, period, _) in enumerate(shapes):
            xs[k] = xs[k] + 1 if xs[k] + 1 < tail + period else tail
        rms = [
            0.0 if x == hit else 0.5 + 0.01 * (x % 7)
            for x, (_, _, hit) in zip(xs, shapes)
        ]
        return rms, list(xs)

    def state():
        return np.array(xs, dtype=np.uint64)[:, None]

    def shrink(keep):
        shapes[:] = [s for s, k in zip(shapes, keep) if k]
        xs[:] = [x for x, k in zip(xs, keep) if k]

    return epoch, state, shrink


def run_maps(run_epochs, shapes, max_epochs):
    epoch, state, shrink = rho_maps(*shapes)
    return run_epochs(epoch, state, 0.01, max_epochs, shrink)


@pytest.mark.parametrize("tail, period", [(0, 1), (5, 1), (0, 3), (7, 5), (100, 37)])
def test_run_epochs_matches_the_plain_loop_on_every_cap(tail, period):
    for max_epochs in range(1, 300):
        fast = run_maps(training.run_epochs, [(tail, period, None)], max_epochs)
        slow = run_maps(plain_epochs, [(tail, period, None)], max_epochs)
        assert fast == slow


def test_lockstep_trials_each_match_their_plain_loop_on_every_cap():
    # Fixed points, cycles entered late and early, trials that converge
    # before, inside or after their cycle, and one that converges never:
    # the batch shrinks at different epochs for every cap.
    shapes = [
        (0, 1, None),
        (5, 1, None),
        (7, 5, None),
        (100, 37, None),
        (3, 4, 5),
        (20, 6, 12),
        (60, 2, 61),
        (0, 3, 2),
    ]
    for max_epochs in range(1, 200):
        fast = run_maps(training.run_epochs, shapes, max_epochs)
        slow = [run_maps(plain_epochs, [s], max_epochs)[0] for s in shapes]
        assert fast == slow


def test_lockstep_trials_without_shrink_are_rejected_before_any_epoch():
    # The first trial converges at epoch 2, when its row would have to go.
    epoch, state, _ = rho_maps((0, 3, 2), (0, 1, None))
    with pytest.raises(ValidationError):
        training.run_epochs(epoch, state, 0.01, 10)
    assert state().tolist() == [[0], [0]]


def runner_stream(net, seed, variant):
    """The init stream the runner hands a net."""
    entropy = (seed, runner.ROLE_NET_INIT, runner.NETS.index(net), variant)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def rvnn_xor_trial(max_epochs):
    params = runner.DEFAULTS["gates"]["rvnn"]
    rng = runner_stream("rvnn", 0, tasks.GATE_NAMES.index("XOR"))
    net = rvnn.random_stack((2, 1), rng)
    pairs, _ = tasks.gate_encode_rvnn(XOR)
    result = rvnn.train_to_threshold(
        net, pairs, params["learning_rate"], params["rms_target"], max_epochs
    )
    return result, bits(net.weights + net.biases)


def assert_same_run(fast, slow):
    (fast, fast_state), (slow, slow_state) = fast, slow
    assert fast.epochs_used == slow.epochs_used
    assert fast.converged == slow.converged
    assert bits(fast.rms_history) == bits(slow.rms_history)
    assert fast_state == slow_state


# Seed 0 enters a cycle of period 4 at epoch 617, so these caps leave every
# remainder mod 4 for the leftover epochs. rvnn training calls sigmoid once
# per layer per pair step, so counting its calls on these single-layer nets
# counts the pair steps run.
@pytest.mark.parametrize("max_epochs", [2_000, 2_001, 2_002, 2_003])
def test_parity_rvnn_trial_matches_the_plain_loop(monkeypatch, max_epochs):
    calls = counted(monkeypatch, rvnn, "sigmoid")
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
    calls = counted(monkeypatch, rvnn, "sigmoid")
    net = rvnn.random_stack((2, 1), np.random.default_rng(0))
    pairs, _ = tasks.gate_encode_rvnn(XOR)
    result = rvnn.train_to_threshold(net, pairs, 0.0, 0.01, 1_000_000)
    assert calls[0] <= 2 * len(pairs)
    assert (result.epochs_used, result.converged) == (1_000_000, False)
    assert len(result.rms_history) == 1_000_000


# ---------------------------------------------------------------------------
# Lockstep rvnn trials against the slow oracle, one trial at a time
# ---------------------------------------------------------------------------


def oracle_rvnn(net, pairs, learning_rate, rms_target, max_epochs):
    """The slow oracle for rvnn training: one pair_gradients step per pair,
    in order, under the plain loop."""
    data = [(np.asarray(x, dtype=float), np.asarray(t, dtype=float)) for x, t in pairs]
    params = net.weights + net.biases
    n_components = net.sizes[-1] * len(data)

    def epoch():
        sq_sum = 0.0
        for x, target in data:
            gw, gb, out = rvnn.pair_gradients(net, x, target)
            sq_sum += float(np.sum((out - target) ** 2))
            for p, g in zip(params, gw + gb):
                p -= learning_rate * g
        return ([np.sqrt(sq_sum / n_components)],)

    state = lambda: np.zeros((1, 1), dtype=np.uint64)
    [run] = plain_epochs(epoch, state, rms_target, max_epochs)
    return rvnn.TrainResult(net, *run)


def assert_lockstep_matches_the_oracle(
    make_nets, pair_sets, learning_rate, rms_target, max_epochs
):
    """Train make_nets() in lockstep and a second make_nets() one at a time
    under the oracle; every trial must come out bit for bit the same."""
    nets = make_nets()
    fast = rvnn.train_lockstep(nets, pair_sets, learning_rate, rms_target, max_epochs)
    slow = [
        oracle_rvnn(net, pairs, learning_rate, rms_target, max_epochs)
        for net, pairs in zip(make_nets(), pair_sets)
    ]
    assert [r.net for r in fast] == nets
    for f, s in zip(fast, slow):
        assert_same_run(
            (f, bits(f.net.weights + f.net.biases)),
            (s, bits(s.net.weights + s.net.biases)),
        )
    return fast, slow


def gate_batch(gates, seeds):
    pair_sets, keys = [], []
    for gate in gates:
        for seed in seeds:
            pairs, _ = tasks.gate_encode_rvnn(tasks.gate_dataset(gate))
            pair_sets.append(pairs)
            keys.append((seed, tasks.GATE_NAMES.index(gate)))

    def make_nets():
        return [
            rvnn.random_stack((2, 1), runner_stream("rvnn", seed, variant))
            for seed, variant in keys
        ]

    return make_nets, pair_sets


# At a 2% target the OR trials converge near epoch 1,550, the AND trials
# are still above it at the cap and the parity trials cycle, so the batch
# shrinks twice, and the caps leave every remainder mod 4 for the cycles.
@pytest.mark.parametrize("max_epochs", [2_000, 2_001, 2_002, 2_003])
def test_lockstep_gate_trials_match_the_oracle(monkeypatch, max_epochs):
    rows = [0]
    sigmoid = rvnn.sigmoid

    def counted_rows(t):
        rows[0] += len(t)
        return sigmoid(t)

    make_nets, pair_sets = gate_batch(("AND", "OR", "XOR", "XNOR"), (0, 1, 2))
    with monkeypatch.context() as patch:
        patch.setattr(rvnn, "sigmoid", counted_rows)
        fast = rvnn.train_lockstep(make_nets(), pair_sets, 2.0, 0.02, max_epochs)
    runs = [(r.epochs_used, r.converged) for r in fast]
    assert [c for _, c in runs] == [False] * 3 + [True] * 3 + [False] * 6
    # Without the fast-forward the parity trials would take a step on
    # every pair of every epoch of the budget.
    ran_alone = sum(e for e, _ in runs[:6]) + 6 * max_epochs
    assert rows[0] < ran_alone * 4
    assert_lockstep_matches_the_oracle(make_nets, pair_sets, 2.0, 0.02, max_epochs)


def test_lockstep_witness_trials_match_the_oracle():
    params = runner.DEFAULTS["entanglement"]["rvnn"]
    pair_sets = [
        [tasks.witness_encode_rvnn(p) for p in tasks.witness_dataset(4, seed)]
        for seed in range(10)
    ]

    def make_nets():
        return [
            rvnn.random_stack((16, 8, 1), runner_stream("rvnn", seed, 0))
            for seed in range(10)
        ]

    assert_lockstep_matches_the_oracle(
        make_nets, pair_sets, params["learning_rate"], params["rms_target"], 150
    )


def test_lockstep_iris_trials_match_the_oracle():
    params = runner.DEFAULTS["iris"]["rvnn"]
    records = tasks.load_iris()
    bounds = tasks.feature_bounds(records)
    pair_sets = [
        [tasks.iris_encode_onehot(r, bounds) for r in train]
        for train, _ in (tasks.split_stratified(records, 75, seed) for seed in (0, 1))
    ]

    def make_nets():
        return [
            rvnn.random_stack((4, 8, 3), runner_stream("rvnn", seed, 0))
            for seed in (0, 1)
        ]

    assert_lockstep_matches_the_oracle(
        make_nets, pair_sets, params["learning_rate"], params["rms_target"], 20
    )


def gate_nets(*sizes):
    """Nets of the given sizes, drawn from one stream."""
    rng = np.random.default_rng(4)
    return [rvnn.random_stack(s, rng) for s in sizes]


AND_PAIRS, _ = tasks.gate_encode_rvnn(tasks.gate_dataset("AND"))


@pytest.mark.parametrize(
    "sizes, pair_sets",
    [
        ([(2, 1), (2, 2, 1)], [AND_PAIRS, AND_PAIRS]),
        ([(2, 1), (2, 1)], [AND_PAIRS, AND_PAIRS[:3]]),
        ([(2, 1), (2, 1)], [AND_PAIRS]),
        ([(2, 1), (2, 1)], [AND_PAIRS, AND_PAIRS, AND_PAIRS]),
    ],
    ids=["sizes", "pair-counts", "fewer-pair-lists", "more-pair-lists"],
)
def test_a_mixed_lockstep_batch_is_rejected(sizes, pair_sets):
    nets = gate_nets(*sizes)
    before = [bits(net.weights + net.biases) for net in nets]
    with pytest.raises(ValidationError):
        rvnn.train_lockstep(nets, pair_sets, 2.0, 0.01, 10)
    assert [bits(net.weights + net.biases) for net in nets] == before


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_bad_pair_in_any_trial_is_rejected_before_any_net_changes(bad):
    nets = gate_nets(*[(2, 1)] * 3)
    before = [bits(net.weights + net.biases) for net in nets]
    pair_sets = [list(AND_PAIRS) for _ in nets]
    pair_sets[bad][-1] = (pair_sets[bad][-1][0], np.array([np.nan]))
    with pytest.raises(ValidationError):
        rvnn.train_lockstep(nets, pair_sets, 2.0, 0.01, 10)
    assert [bits(net.weights + net.biases) for net in nets] == before
