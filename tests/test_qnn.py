"""Tests for the quantum network: forward readouts, finite-difference
gradients, and full-batch training."""

import numpy as np
import pytest

from qnnbench import qnn, runner, tasks, training
from qnnbench.errors import ValidationError
from qnnbench.quantum import (
    HamiltonianSchedule,
    PureState,
    SliceParams,
    ZZ,
    pure_to_density,
    reference_propagate,
    schedule_propagator,
)
from sampling import random_rho


def zero_schedule(n_slices=1, total_time=1.0):
    return HamiltonianSchedule.from_array(np.zeros(5 * n_slices), total_time)


def single_tunneling_schedule(k_a, total_time):
    return HamiltonianSchedule((SliceParams(k_a, 0.0, 0.0, 0.0, 0.0),), total_time)


BASIS_00 = PureState(1.0, 0.0, 0.0, 0.0)


def sequential_armijo(pairs, start, config, per_epoch=False):
    """The backtracking line search as a loop that tries one rate at a time;
    returns the final parameters, the RMS history and the rejected trials,
    summed or, with per_epoch, as a list with one count per epoch."""
    total_time = start.total_time

    def loss(values):
        return qnn.batch_loss(pairs, HamiltonianSchedule.from_array(values, total_time))

    params = start.as_array()
    current = loss(params)
    rhos, targets = qnn._batch(pairs)
    history, rejected = [], []
    for _ in range(config.max_epochs):
        rejected.append(0)
        step = qnn.gradient(params, start.dt, rhos, targets)
        slope = float(step @ step)
        rate = config.learning_rate
        for _ in range(qnn.MAX_HALVINGS + 1):
            trial = params - rate * step
            trial_loss = loss(trial)
            if trial_loss <= current - qnn.ARMIJO_C1 * rate * slope:
                params, current = trial, trial_loss
                break
            rate /= 2.0
            rejected[-1] += 1
        history.append(float(np.sqrt(current)))
        if history[-1] <= config.rms_target:
            break
    return params, history, rejected if per_epoch else sum(rejected)


# The three entries that train on or score a training batch, each called on
# one batch and returning finite numbers when it accepts it (train its RMS
# history). gradient takes the arrays of a batch that _batch has checked,
# as train hands them to it.
BATCH_ENTRIES = {
    "train": lambda pairs, cfg: qnn.train(pairs, cfg, zero_schedule()).rms_history,
    "gradient": lambda pairs, cfg: qnn.gradient(np.zeros(5), 1.0, *qnn._batch(pairs)),
    "batch_loss": lambda pairs, cfg: qnn.batch_loss(pairs, zero_schedule()),
}


def witness_trial(seed):
    """The witness qnn trial the runner trains for a seed at the entanglement
    defaults: its pairs, config, initial schedule and readout."""
    params = runner.DEFAULTS["entanglement"]["qnn"]
    pairs = [tasks.witness_encode_qnn(p) for p in tasks.witness_dataset(4, seed)]
    entropy = (seed, runner.ROLE_NET_INIT, runner.NETS.index("qnn"), 0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    start = qnn.random_schedule(params["slices"], params["t_f"], rng)
    config = qnn.QnnConfig(
        learning_rate=params["learning_rate"],
        max_epochs=params["max_epochs"],
        rms_target=training.RMS_TARGET,
        seed=seed,
        backtracking=params["backtracking"],
    )
    return pairs, config, start, qnn.CORRELATION


def xor_trial():
    """A fixed-step four-slice XOR run under its projector readout."""
    pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("XOR"))
    start = qnn.random_schedule(4, 1.0, np.random.default_rng(2))
    return pairs, qnn.QnnConfig(learning_rate=20.0, max_epochs=30), start, readout


def schedule_gradient(schedule, rhos, targets, fd_step=qnn.DEFAULT_FD_STEP):
    """The gradient at a schedule on density matrices and their targets."""
    params, dt = schedule.as_array(), schedule.dt
    return qnn.gradient(params, dt, rhos, targets, fd_step=fd_step)


def schedule_loss(schedule, rhos, targets, readout=qnn.CORRELATION):
    """The batch loss of one schedule, a one-row stack of the loss train
    scores its steps with."""
    stack = schedule.as_array()[None]
    return float(qnn._losses(stack, schedule.dt, rhos, targets, readout)[0])


def random_rhos(rng, n):
    """n phased density matrices, (n, 4, 4)."""
    return np.stack([random_rho(rng) for _ in range(n)])


def witness_pairs_with_target(target):
    """Four witness pairs, the third with its target replaced."""
    pairs = tasks.witness_dataset(4, 0)
    pairs[2] = (pairs[2][0], target)
    return pairs


def correlation_output(state, schedule):
    """The default readout of one state, through the batch path."""
    return float(qnn.batch_outputs(qnn.states_to_rhos([state]), schedule)[0])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

class TestForward:
    def test_untrained_zero_schedule_on_basis_state_reads_one(self):
        assert correlation_output(BASIS_00, zero_schedule()) == pytest.approx(1.0)

    def test_single_qubit_tunneling_full_flip_period(self):
        # One slice driving qubit A alone turns the correlation into
        # cos^2(2 k t); at k=1, t=pi/2 the square comes back to exactly 1.
        out = correlation_output(BASIS_00, single_tunneling_schedule(1.0, np.pi / 2))
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_tunneling_quarter_period_reads_zero(self):
        out = correlation_output(BASIS_00, single_tunneling_schedule(1.0, np.pi / 4))
        assert out == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t_f", [0.3, np.pi / 4, np.pi / 2, 1.7])
    def test_tunneling_output_matches_time_stepped_integrator(self, t_f):
        schedule = single_tunneling_schedule(1.0, t_f)
        rho = reference_propagate(pure_to_density(BASIS_00), schedule)
        # The integrator's output is a density matrix.
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        out = correlation_output(BASIS_00, schedule)
        assert out == pytest.approx(qnn.CORRELATION.values(rho[None])[0], abs=1e-9)
        assert out == pytest.approx(np.cos(2.0 * t_f) ** 2, abs=1e-9)

    def test_rho_stack_is_the_validated_outer_product_bit_for_bit(self):
        rng = np.random.default_rng(19)
        basis = [PureState(*row) for row in np.eye(4)]
        quartet = [s for s, _ in tasks.witness_dataset(4, 0)]
        sampled = [tasks.sample_pure_state(rng) for _ in range(200)]
        for states in (basis, quartet, sampled):
            rhos = qnn.states_to_rhos(states)
            oracle = np.stack([np.outer(s.ket(), s.ket().conj()) for s in states])
            assert rhos.shape == oracle.shape
            assert rhos.tobytes() == oracle.tobytes()
            singles = np.stack([pure_to_density(s) for s in states])
            assert singles.tobytes() == oracle.tobytes()

    def test_batch_outputs_match_single_forward(self):
        rng = np.random.default_rng(3)
        schedule = qnn.random_schedule(4, 1.0, rng)
        rhos = random_rhos(rng, 6)
        batch = qnn.batch_outputs(rhos, schedule)
        u = schedule_propagator(schedule)
        singles = [np.trace(u @ rho @ u.conj().T @ ZZ).real ** 2 for rho in rhos]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_projector_readout_solves_and_gate_at_identity(self):
        pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("AND"))
        rhos = qnn.states_to_rhos([s for s, _ in pairs])
        outs = qnn.batch_outputs(rhos, zero_schedule(), readout)
        assert np.allclose(outs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_unsquared_readout_is_linear_in_the_state(self):
        rng = np.random.default_rng(11)
        readout = qnn.basis_projector(1, 2)
        r1 = random_rhos(rng, 1)
        r2 = random_rhos(rng, 1)
        mix = 0.3 * r1 + 0.7 * r2
        expected = 0.3 * readout.values(r1) + 0.7 * readout.values(r2)
        assert readout.values(mix) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

class TestGradient:
    def test_zero_at_an_exact_fit(self):
        rng = np.random.default_rng(5)
        schedule = qnn.random_schedule(2, 1.0, rng)
        rhos = random_rhos(rng, 4)
        outs = qnn.batch_outputs(rhos, schedule)
        grad = schedule_gradient(schedule, rhos, outs, fd_step=3e-5)
        assert np.max(np.abs(grad)) < 1e-7

    def test_duplicating_the_batch_leaves_the_mean_gradient_alone(self):
        rng = np.random.default_rng(8)
        schedule = qnn.random_schedule(2, 1.0, rng)
        rhos, targets = random_rhos(rng, 2), np.array([0.4, 0.7])
        grad_once = schedule_gradient(schedule, rhos, targets)
        grad_twice = schedule_gradient(
            schedule, np.concatenate([rhos, rhos]), np.concatenate([targets, targets])
        )
        assert np.allclose(grad_once, grad_twice, atol=1e-12)

    def test_points_downhill(self):
        rng = np.random.default_rng(9)
        schedule = qnn.random_schedule(3, 1.0, rng)
        rhos, targets = random_rhos(rng, 3), np.array([0.2, 0.9, 0.5])
        grad = schedule_gradient(schedule, rhos, targets)
        assert np.linalg.norm(grad) > 1e-6
        before = schedule_loss(schedule, rhos, targets)
        stepped = HamiltonianSchedule.from_array(
            schedule.as_array() - 1e-4 * grad, schedule.total_time
        )
        assert schedule_loss(stepped, rhos, targets) < before

    def test_central_differences_are_second_order(self):
        # Richardson: halving the step should shrink the finite-difference
        # error by about 4 on every parameter with a healthy derivative.
        rng = np.random.default_rng(13)
        schedule = qnn.random_schedule(1, 1.0, rng)
        batch = (random_rhos(rng, 2), np.array([0.3, 0.8]))
        h = 8e-3
        g_h = schedule_gradient(schedule, *batch, fd_step=h)
        g_h2 = schedule_gradient(schedule, *batch, fd_step=h / 2)
        g_h4 = schedule_gradient(schedule, *batch, fd_step=h / 4)
        checked = 0
        for i in range(g_h.size):
            coarse = g_h[i] - g_h2[i]
            fine = g_h2[i] - g_h4[i]
            if abs(fine) < 1e-10 or abs(g_h2[i]) < 1e-6:
                continue
            checked += 1
            assert coarse / fine == pytest.approx(4.0, rel=0.25)
        assert checked >= 2

    @pytest.mark.parametrize("n_slices", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch_size", [1, 4, 75])
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize(
        "readout", [qnn.CORRELATION, qnn.basis_projector(1, 2)], ids=["zz", "projector"]
    )
    def test_stacked_gradient_equals_one_schedule_differences(
        self, n_slices, batch_size, scale, readout, monkeypatch
    ):
        # gradient evaluates all shifted schedules as one stack; each entry
        # must be the central difference of two one-schedule batch losses.
        # The stack holds 10 S schedules of S slices each, so one
        # eigendecomposition covers all 10 S^2 of their slices.
        rng = np.random.default_rng(10 * n_slices + batch_size)
        params = scale * rng.uniform(-1.0, 1.0, 5 * n_slices)
        schedule = HamiltonianSchedule.from_array(params, 1.0)
        batch = [(random_rho(rng), float(rng.uniform())) for _ in range(batch_size)]
        rhos = np.stack([rho for rho, _ in batch])
        targets = np.array([t for _, t in batch])
        h = qnn.DEFAULT_FD_STEP

        def loss(values):
            shifted = HamiltonianSchedule.from_array(values, schedule.total_time)
            return schedule_loss(shifted, rhos, targets, readout)

        expected = np.empty_like(params)
        for p in range(params.size):
            up, down = params.copy(), params.copy()
            up[p] += h
            down[p] -= h
            expected[p] = (loss(up) - loss(down)) / (2.0 * h)
        eigh, sizes = np.linalg.eigh, []

        def counted(matrices, *args, **kwargs):
            sizes.append(int(np.prod(np.shape(matrices)[:-2])))
            return eigh(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        stacked = qnn.gradient(params, schedule.dt, rhos, targets, readout, h)
        assert sizes == [10 * n_slices**2]
        assert np.array_equal(stacked, expected)

    def test_rejects_a_bad_step(self):
        schedule = zero_schedule()
        batch = qnn._batch([(BASIS_00, 1.0)])
        for step in (0.0, -1e-3, 2e-2):
            with pytest.raises(ValidationError):
                schedule_gradient(schedule, *batch, fd_step=step)

    def test_rejects_parameters_that_are_not_whole_slices(self):
        rhos, targets = qnn._batch([(BASIS_00, 1.0), (BASIS_00, 0.0)])
        for params in (np.zeros(7), np.zeros(0)):
            with pytest.raises(ValidationError, match="multiple of 5"):
                qnn.gradient(params, 1.0, rhos, targets)

    def test_reads_a_slice_matrix_as_its_flat_vector(self):
        rng = np.random.default_rng(21)
        params = rng.uniform(-1.0, 1.0, (2, 5))
        rhos, targets = random_rhos(rng, 1), np.array([0.6])
        grad = qnn.gradient(params, 0.5, rhos, targets)
        assert grad.shape == (10,)
        assert np.array_equal(grad, qnn.gradient(params.ravel(), 0.5, rhos, targets))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TestTrain:
    def test_xnor_converges_under_the_squared_correlation(self):
        pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("XNOR"))
        schedule = qnn.random_schedule(4, 1.0, np.random.default_rng(1))
        config = qnn.QnnConfig(learning_rate=20.0, max_epochs=500, seed=1)
        result = qnn.train(pairs, config, schedule, readout=readout)
        assert result.converged
        assert result.rms_history[-1] <= 0.01

    def test_already_solved_task_stops_after_one_epoch(self):
        pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("AND"))
        config = qnn.QnnConfig(learning_rate=1.0, max_epochs=50)
        result = qnn.train(pairs, config, zero_schedule(), readout=readout)
        assert result.converged and result.epochs_used == 1

    def test_training_is_deterministic(self):
        pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("XOR"))
        config = qnn.QnnConfig(learning_rate=20.0, max_epochs=40, seed=2)
        runs = []
        for _ in range(2):
            schedule = qnn.random_schedule(4, 1.0, np.random.default_rng(2))
            runs.append(qnn.train(pairs, config, schedule, readout=readout))
        assert runs[0].rms_history == runs[1].rms_history
        assert np.array_equal(
            runs[0].schedule.as_array(), runs[1].schedule.as_array()
        )

    def test_witness_training_reaches_the_exact_family(self):
        # A single slice can express the witness exactly, so a seed known to
        # land in the right basin drives the test error far below the train
        # threshold.
        train_pairs = [
            tasks.witness_encode_qnn(p) for p in tasks.witness_dataset(4, seed=0)
        ]
        schedule = qnn.random_schedule(1, 1.5, np.random.default_rng(6))
        config = qnn.QnnConfig(learning_rate=8.0, max_epochs=2000, seed=6)
        result = qnn.train(train_pairs, config, schedule)
        assert result.converged
        test_pairs = tasks.witness_testset(25, seed=0)
        outs = qnn.batch_outputs(
            qnn.states_to_rhos([s for s, _ in test_pairs]), result.schedule
        )
        targets = [t for _, t in test_pairs]
        rms = float(np.sqrt(np.mean((outs - np.array(targets)) ** 2)))
        assert rms <= 0.05

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_quartet_is_blind_where_one_more_state_sees(self, sign):
        # At the exact family the four canonical states are, to first order,
        # blind to every direction of the five parameters, so reaching the
        # train target there fixes nothing; one sampled state more sees one.
        t_f, h = 1.5, 1e-6
        exact = np.array([np.pi / (4 * t_f), sign * np.pi / (4 * t_f), 0.0, 0.0, 0.0])

        def singular_values(n_states):
            rhos = qnn.states_to_rhos([s for s, _ in tasks.witness_dataset(n_states, 0)])

            def outputs(params):
                return qnn.batch_outputs(rhos, HamiltonianSchedule.from_array(params, t_f))

            steps = h * np.eye(5)
            jacobian = np.column_stack(
                [(outputs(exact + e) - outputs(exact - e)) / (2 * h) for e in steps]
            )
            return np.linalg.svd(jacobian, compute_uv=False)

        assert singular_values(4).max() <= 1e-7
        largest, *rest = singular_values(5)
        assert largest >= 0.05
        assert max(rest) <= 1e-7

    def test_fixed_step_is_plain_gradient_descent(self):
        # Without backtracking every epoch takes params -= lr * gradient,
        # bit for bit, overshoot included.
        pairs, config, start, readout = xor_trial()
        result = qnn.train(pairs, config, start, readout=readout)
        params = start.as_array()
        rhos, targets = qnn._batch(pairs)
        history = []
        for _ in range(result.epochs_used):
            params -= config.learning_rate * qnn.gradient(
                params, start.dt, rhos, targets, readout
            )
            schedule = HamiltonianSchedule.from_array(params, start.total_time)
            history.append(float(np.sqrt(qnn.batch_loss(pairs, schedule, readout))))
        assert result.rms_history == history
        assert np.array_equal(result.schedule.as_array(), params)

    @pytest.mark.parametrize(
        "trial, backtracking, slices, epochs",
        [(lambda: witness_trial(0), True, 1, 26), (xor_trial, False, 4, 30)],
        ids=["witness", "xor"],
    )
    def test_training_prepares_its_arrays_once(
        self, trial, backtracking, slices, epochs, monkeypatch
    ):
        # train converts its pairs to density matrices once, and builds a
        # schedule once, to return it: every epoch reuses the same arrays.
        pairs, config, start, readout = trial()
        assert config.backtracking == backtracking and len(start.slices) == slices
        conversions, builds = [0], [0]
        to_rhos = qnn.states_to_rhos
        from_array = HamiltonianSchedule.from_array.__func__

        def counted_conversion(states):
            conversions[0] += 1
            return to_rhos(states)

        def counted_build(cls, *args, **kwargs):
            builds[0] += 1
            return from_array(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(qnn, "states_to_rhos", counted_conversion)
            patch.setattr(HamiltonianSchedule, "from_array", classmethod(counted_build))
            result = qnn.train(pairs, config, start, readout)
        assert result.epochs_used == epochs
        assert (conversions[0], builds[0]) == (1, 1)

    def test_backtracking_never_raises_the_training_loss(self):
        # The same start at the same learning rate overshoots under the
        # fixed step; the Armijo step halves it until the loss falls.
        pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset("XOR"))
        start = qnn.random_schedule(4, 1.0, np.random.default_rng(2))
        fixed = qnn.train(
            pairs, qnn.QnnConfig(learning_rate=20.0, max_epochs=30), start, readout
        )
        armijo = qnn.train(
            pairs,
            qnn.QnnConfig(learning_rate=20.0, max_epochs=30, backtracking=True),
            start,
            readout,
        )
        assert np.any(np.diff(fixed.rms_history) > 0)
        assert np.all(np.diff(armijo.rms_history) <= 0)
        initial = np.sqrt(qnn.batch_loss(pairs, start, readout))
        assert armijo.rms_history[0] < initial

    @pytest.mark.parametrize("seed", [7, 0])
    def test_batched_line_search_takes_the_sequential_choice(self, seed, monkeypatch):
        # The candidate rates tried as one stack must pick the step the
        # one-at-a-time loop picks. Witness seed 7 at the entanglement
        # defaults runs all 2000 epochs and halves the rate about 18 times
        # per epoch. Seed 0 converges in a few dozen epochs, some of which
        # take the full rate and some of which halve it.
        calls, stacks, in_gradient = [], [], [False]
        train, gradient, losses = qnn.train, qnn.gradient, qnn._losses

        def recorded(trainset, config, initial_schedule, readout=qnn.CORRELATION):
            result = train(trainset, config, initial_schedule, readout)
            calls.append((trainset, config, initial_schedule, result))
            return result

        def epoch_gradient(*args):
            stacks.append([])
            in_gradient[0] = True
            try:
                return gradient(*args)
            finally:
                in_gradient[0] = False

        def candidate_losses(stack, *args):
            # Neither the initial loss nor the gradient's shifted stack.
            if stacks and not in_gradient[0]:
                stacks[-1].append(len(stack))
            return losses(stack, *args)

        with monkeypatch.context() as patch:
            patch.setattr(qnn, "train", recorded)
            patch.setattr(qnn, "gradient", epoch_gradient)
            patch.setattr(qnn, "_losses", candidate_losses)
            runner.run_experiment(
                runner.ExperimentConfig("entanglement", nets=("qnn",), seeds=(seed,))
            )
        [(pairs, config, start, result)] = calls
        assert config.backtracking
        params, history, rejected = sequential_armijo(pairs, start, config, True)
        if seed == 7:
            assert sum(rejected) >= 15 * len(history)
        else:
            assert 0 in rejected and max(rejected) > 0
        assert result.rms_history == history
        assert np.array_equal(result.schedule.as_array(), params)
        # Both runs converge or end at a fixed point, so the epochs that ran
        # are the first ones. Each scores a first stack of candidates, from
        # the full rate through one past the index the last epoch took, and
        # the rest only if that stack holds no passing rate. The rate it
        # takes, index rejected[e], lies in the last stack scored: the
        # stacks reach it and none is scored after it. An epoch that takes
        # no rate scores all of them.
        assert 0 < len(stacks) <= len(history)
        reach, candidates = 1, qnn.MAX_HALVINGS + 1
        for sizes, taken in zip(stacks, rejected):
            assert sizes[0] == reach and len(sizes) in (1, 2)
            if taken == candidates:
                assert sum(sizes) == candidates
            else:
                assert sum(sizes[:-1]) <= taken < sum(sizes)
                reach = min(taken + 2, candidates)

    @pytest.mark.parametrize("halvings", [qnn.MAX_HALVINGS, 0], ids=["default", "none"])
    def test_line_search_that_finds_no_step_leaves_the_schedule(self, halvings, monkeypatch):
        # With no halvings the first candidate stack already holds every
        # rate, so the second stack is empty.
        monkeypatch.setattr(qnn, "MAX_HALVINGS", halvings)
        pairs = [tasks.witness_encode_qnn(p) for p in tasks.witness_dataset(4, 0)]
        start = qnn.random_schedule(1, 1.5, 0)
        config = qnn.QnnConfig(learning_rate=1e308, max_epochs=3, backtracking=True)
        result = qnn.train(pairs, config, start)
        params, history, rejected = sequential_armijo(pairs, start, config)
        assert rejected == 3 * (qnn.MAX_HALVINGS + 1)
        assert result.rms_history == history == [0.5669263910234797] * 3
        assert np.array_equal(result.schedule.as_array(), start.as_array())

    def test_non_finite_parameters_are_rejected(self):
        # The stacked loss keeps the check each SliceParams made: any row
        # with a nan or inf entry fails the whole evaluation. So does the
        # gradient, which takes a bare parameter vector that no SliceParams
        # checks. The second argument is the slice length.
        rhos = qnn.states_to_rhos([BASIS_00])
        for bad in (np.nan, np.inf, -np.inf):
            stack = np.zeros((3, 10))
            stack[1, 7] = bad
            with pytest.raises(ValidationError, match="finite"):
                qnn._losses(stack, 1.0, rhos, np.ones(1), qnn.CORRELATION)
            with pytest.raises(ValidationError, match="finite"):
                qnn.gradient(stack[1], 1.0, rhos, np.ones(1))
        # A stack that is not whole slices fails the same check.
        for stack in (np.zeros((2, 3)), np.zeros(5)):
            with pytest.raises(ValidationError, match="multiple of 5"):
                qnn._losses(stack, 1.0, rhos, np.ones(1), qnn.CORRELATION)
        # A trial step that overflows stops training the same way: at this
        # length the gradient exceeds 1, so the step overflows to inf.
        pairs = [tasks.witness_encode_qnn(p) for p in tasks.witness_dataset(4, 0)]
        config = qnn.QnnConfig(learning_rate=1e308, max_epochs=1)
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
            qnn.train(pairs, config, qnn.random_schedule(1, 50.0, 0))


# ---------------------------------------------------------------------------
# Config and readout validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_config_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            qnn.QnnConfig(learning_rate=0.0, max_epochs=10)
        with pytest.raises(ValidationError):
            qnn.QnnConfig(learning_rate=1.0, max_epochs=0)
        with pytest.raises(ValidationError):
            qnn.QnnConfig(learning_rate=1.0, max_epochs=10, rms_target=1.5)
        for value in (1, "true", None, np.bool_(True)):
            with pytest.raises(ValidationError):
                qnn.QnnConfig(learning_rate=1.0, max_epochs=10, backtracking=value)

    def test_readout_requires_hermitian_observable(self):
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(ValidationError):
            qnn.Readout(skew)
        # A nan or inf entry is no observable, though it slips past the
        # Hermitian tolerance (nan > tol is False).
        for bad in (np.nan, np.inf, -np.inf):
            for at in ((0, 0), (1, 2)):
                obs = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
                obs[at] = obs[at[::-1]] = bad
                with pytest.raises(ValidationError, match="finite"):
                    qnn.Readout(obs)

    def test_basis_projector_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError):
            qnn.basis_projector(4)

    @pytest.mark.parametrize("index", [1.0, True, np.bool_(True)])
    def test_basis_projector_rejects_indices_that_are_not_integers(self, index):
        with pytest.raises(ValidationError, match="basis indices"):
            qnn.basis_projector(index)

    def test_basis_projector_accepts_numpy_integers(self):
        readout = qnn.basis_projector(np.int64(1), 2)
        assert np.array_equal(readout.observable, qnn.basis_projector(1, 2).observable)

    @pytest.mark.parametrize("rate", [True, np.bool_(True), "8", None, 1j])
    def test_config_rejects_a_learning_rate_that_is_not_a_real_number(self, rate):
        with pytest.raises(ValidationError, match="learning rate"):
            qnn.QnnConfig(learning_rate=rate, max_epochs=3)

    @pytest.mark.parametrize("entry", BATCH_ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_entries_reject_non_finite_targets(self, bad, entry):
        pairs = witness_pairs_with_target(bad)
        config = qnn.QnnConfig(learning_rate=1.0, max_epochs=10)
        with pytest.raises(ValidationError, match="targets must be finite"):
            BATCH_ENTRIES[entry](pairs, config)

    @pytest.mark.parametrize("entry", BATCH_ENTRIES)
    @pytest.mark.parametrize("bad", [3.0, -0.1])
    def test_batch_entries_reject_targets_outside_the_readout_range(self, bad, entry):
        pairs = witness_pairs_with_target(bad)
        config = qnn.QnnConfig(learning_rate=8.0, max_epochs=50, backtracking=True)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            BATCH_ENTRIES[entry](pairs, config)

    @pytest.mark.parametrize("entry", BATCH_ENTRIES)
    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_batch_entries_accept_targets_at_the_readout_bounds(self, edge, entry):
        pairs = witness_pairs_with_target(edge)
        config = qnn.QnnConfig(learning_rate=1.0, max_epochs=2)
        out = BATCH_ENTRIES[entry](pairs, config)
        assert np.size(out) >= 1 and np.all(np.isfinite(out))

    @pytest.mark.parametrize("entry", BATCH_ENTRIES)
    def test_batch_entries_reject_an_empty_batch(self, entry):
        config = qnn.QnnConfig(learning_rate=1.0, max_epochs=10)
        with pytest.raises(ValidationError, match="nonempty"):
            BATCH_ENTRIES[entry]([], config)
