import dataclasses
import math

import numpy as np
import pytest

from qnnbench import qnn, tasks
from qnnbench.errors import ValidationError
from qnnbench.quantum import (
    HamiltonianSchedule,
    PureState,
    SliceParams,
    ZZ,
    build_hamiltonian,
    eof_pure,
    pure_to_density,
    propagators,
    reference_propagate,
    schedule_propagator,
    slice_propagator,
)
from sampling import random_rho

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_schedule(rng, n_slices=4, total_time=1.0, scale=2.0):
    return HamiltonianSchedule.from_array(
        rng.uniform(-scale, scale, 5 * n_slices), total_time
    )


def propagate(rho, schedule):
    """Evolve a density matrix through the full schedule: U rho U^dagger."""
    u = schedule_propagator(schedule)
    return u @ rho @ u.conj().T


def purity(rho):
    return np.trace(rho @ rho).real


# ---------------------------------------------------------------------------
# PureState / density matrix construction
# ---------------------------------------------------------------------------

def test_pure_to_density_basis_projector():
    rho = pure_to_density(PureState(1.0, 0.0, 0.0, 0.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


def test_pure_to_density_bell_corners():
    rho = pure_to_density(PureState(INV_SQRT2, 0.0, 0.0, INV_SQRT2))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        assert rho[i, j] == pytest.approx(0.5, abs=1e-12)
    assert rho[1, 1] == 0.0


def test_pure_state_is_four_frozen_amplitudes():
    # Training sets are compared with == and !=, which a bare array state
    # would make raise, so a state stays a frozen value of four fields.
    s = PureState(0.6, 0.0, 0.0, 0.8)
    assert [f.name for f in dataclasses.fields(PureState)] == ["a", "b", "c", "d"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.a = 0.8
    assert s == PureState(0.6, 0.0, 0.0, 0.8)
    assert s != PureState(0.8, 0.0, 0.0, 0.6)


def test_ket_is_the_zero_phase_ket_bit_for_bit():
    # Every density matrix and encoding is built from ket(); it must equal
    # the phase-factor form at zero phase to the last bit, or targets and
    # training runs would move.
    rng = np.random.default_rng(41)
    for _ in range(50):
        s = tasks.sample_pure_state(rng)
        zero_phase = np.array(
            [s.a, s.b * np.exp(1j * 0.0), s.c * np.exp(1j * 0.0), s.d * np.exp(1j * 0.0)]
        )
        assert s.ket().dtype == np.complex128
        assert s.ket().tobytes() == zero_phase.tobytes()


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValidationError):
        PureState(1.0, 1.0, 0.0, 0.0)


def test_pure_state_norm_is_held_to_the_density_trace_tolerance():
    # A squared norm off by 5e-10 would make a density matrix whose trace is
    # off by as much; |psi><psi| is trusted unchecked because the state
    # itself is rejected.
    with pytest.raises(ValidationError):
        PureState(math.sqrt(1 + 5e-10), 0.0, 0.0, 0.0)


def test_pure_state_rejects_negative_amplitude():
    with pytest.raises(ValidationError):
        PureState(-1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "components", [(math.nan, 0.0, 0.0, 0.0)], ids=["amplitude"]
)
def test_pure_state_rejects_non_finite_components(components):
    with pytest.raises(ValidationError, match="non-finite"):
        PureState(*components)


def test_normalizing_the_zero_vector_is_rejected():
    with pytest.raises(ValidationError, match="zero vector"):
        PureState.from_amplitudes(np.zeros(4))


def test_purity_of_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_rho(rng)
        assert abs(purity(rho) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------

def test_hamiltonian_all_zero():
    h = build_hamiltonian([0, 0, 0, 0, 0])
    assert np.all(h == 0)


def test_hamiltonian_coupling_spectrum():
    h = build_hamiltonian([0, 0, 0, 0, 1.0])
    assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_hamiltonian_tunneling_structure():
    h = build_hamiltonian([1.0, 0, 0, 0, 0])
    expected = np.zeros((4, 4))
    for i, j in [(0, 2), (2, 0), (1, 3), (3, 1)]:
        expected[i, j] = 1.0
    assert np.allclose(h, expected)


def test_hamiltonian_rejects_non_finite():
    with pytest.raises(ValidationError):
        SliceParams(float("nan"), 0, 0, 0, 0)


def test_hamiltonian_hermitian_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = build_hamiltonian(rng.uniform(-10, 10, 5))
        assert np.max(np.abs(h - h.T.conj())) < 1e-12


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_propagate_identity_for_zero_hamiltonian():
    rng = np.random.default_rng(3)
    rho = random_rho(rng)
    schedule = HamiltonianSchedule((SliceParams(0, 0, 0, 0, 0),) * 3, 2.0)
    out = propagate(rho, schedule)
    assert np.allclose(out, rho, atol=1e-12)


def test_propagate_diagonal_commutes():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    schedule = HamiltonianSchedule(
        (SliceParams(0, 0, 0.7, -1.1, 0.5), SliceParams(0, 0, -0.2, 0.9, 1.3)), 1.5
    )
    out = propagate(rho, schedule)
    assert np.allclose(out, rho, atol=1e-12)


def test_propagate_single_tunneling_slice():
    # One qubit tunneling for time t leaves population cos^2(t) in |00>.
    rho0 = pure_to_density(PureState(1.0, 0.0, 0.0, 0.0))
    for t in (0.3, 0.7, 1.9):
        schedule = HamiltonianSchedule((SliceParams(1.0, 0, 0, 0, 0),), t)
        out = propagate(rho0, schedule)
        assert out[0, 0].real == pytest.approx(math.cos(t) ** 2, abs=1e-12)
        oracle = reference_propagate(rho0, schedule)
        assert np.max(np.abs(out - oracle)) < 1e-8


def test_empty_schedule_rejected():
    with pytest.raises(ValidationError):
        HamiltonianSchedule((), 1.0)


@pytest.mark.parametrize("size", [0, 7])
def test_schedule_from_array_needs_whole_slices(size):
    with pytest.raises(ValidationError, match="multiple of 5"):
        HamiltonianSchedule.from_array(np.zeros(size), 1.0)


def test_propagator_unitary_random_params():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = slice_propagator(SliceParams(*rng.uniform(-10, 10, 5)), 0.25)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_propagation_conserves_trace_hermiticity_purity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_rho(rng)
        m = propagate(rho, random_schedule(rng))
        assert abs(np.trace(m).real - 1.0) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(purity(m) - 1.0) < 1e-10


def test_propagation_composes():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_rho(rng)
        a = SliceParams(*rng.uniform(-2, 2, 5))
        b = SliceParams(*rng.uniform(-2, 2, 5))
        joint = propagate(rho, HamiltonianSchedule((a, b), 1.0))
        stepped = propagate(
            propagate(rho, HamiltonianSchedule((a,), 0.5)),
            HamiltonianSchedule((b,), 0.5),
        )
        assert np.max(np.abs(joint - stepped)) < 1e-10


def test_propagate_matches_reference_integrator():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rho = random_rho(rng)
        schedule = random_schedule(rng, n_slices=int(rng.integers(1, 5)))
        fast = propagate(rho, schedule)
        slow = reference_propagate(rho, schedule)
        assert np.max(np.abs(fast - slow)) < 1e-6


def four_stage_rk4(rho, schedule, substeps):
    """The textbook four-stage RK4 loop on d(rho)/dt = -i[H, rho]."""
    m = np.array(rho, dtype=complex)
    step = schedule.dt / substeps
    for params in schedule.slices:
        h = build_hamiltonian(params.as_tuple()).astype(complex)

        def rate(x):
            return -1j * (h @ x - x @ h)

        for _ in range(substeps):
            k1 = rate(m)
            k2 = rate(m + 0.5 * step * k1)
            k3 = rate(m + 0.5 * step * k2)
            k4 = rate(m + step * k3)
            m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def test_reference_integrator_is_the_four_stage_rk4_loop():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rho = random_rho(rng)
        schedule = random_schedule(
            rng, n_slices=int(rng.integers(1, 6)), total_time=float(rng.uniform(0.5, 2.0))
        )
        substeps = int(rng.integers(20, 101))
        loop = four_stage_rk4(rho, schedule, substeps)
        assert np.max(np.abs(reference_propagate(rho, schedule, substeps) - loop)) <= 1e-12


def test_reference_integrator_converges_at_fourth_order():
    # At 40 and 80 substeps the error against the exact propagator is
    # 1e-10 to 1e-7, far above rounding, so halving the step cuts it 2^4-fold.
    rng = np.random.default_rng(23)
    for _ in range(6):
        rho = random_rho(rng)
        schedule = random_schedule(rng, n_slices=int(rng.integers(1, 6)))
        exact = propagate(rho, schedule)
        coarse, fine = (
            np.max(np.abs(reference_propagate(rho, schedule, n) - exact)) for n in (40, 80)
        )
        assert 12.0 <= coarse / fine <= 20.0


# ---------------------------------------------------------------------------
# Measurement functionals
# ---------------------------------------------------------------------------

def correlation_squared(rho):
    """The squared-correlation readout of one density matrix."""
    return float(qnn.CORRELATION.values(rho[None])[0])


def test_correlation_squared_basis_state():
    assert correlation_squared(pure_to_density(PureState(1, 0, 0, 0))) == 1.0


def test_correlation_squared_balanced_superposition():
    rho = pure_to_density(PureState(INV_SQRT2, INV_SQRT2, 0, 0))
    assert correlation_squared(rho) == pytest.approx(0.0, abs=1e-15)


def test_correlation_squared_equal_amplitudes():
    # Direct trace: diagonal (1/4, 1/4, 1/4, 1/4) against (1, -1, -1, 1).
    rho = pure_to_density(PureState(0.5, 0.5, 0.5, 0.5))
    assert correlation_squared(rho) == pytest.approx(0.0, abs=1e-15)


def test_correlation_squared_range():
    rng = np.random.default_rng(23)
    for _ in range(100):
        val = correlation_squared(random_rho(rng))
        assert 0.0 <= val <= 1.0


def test_eof_pure_reference_values():
    assert eof_pure(PureState(INV_SQRT2, 0, 0, INV_SQRT2)) == pytest.approx(1.0, abs=1e-12)
    assert eof_pure(PureState(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert eof_pure(PureState(0.5, 0.5, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)
    partial = PureState(math.sqrt(0.8), 0, 0, math.sqrt(0.2))
    assert eof_pure(partial) == pytest.approx(0.64, abs=1e-12)


def test_eof_pure_is_the_squared_wootters_concurrence():
    # For a pure rho the spin-flipped product rho (Y x Y) rho* (Y x Y) has
    # one nonzero eigenvalue, the squared concurrence, so its trace is the
    # target; this reads the density matrix, not the amplitudes.
    yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    rng = np.random.default_rng(43)
    states = [s for s, _ in tasks.witness_dataset(4, seed=0)]
    states += [tasks.sample_pure_state(rng) for _ in range(100)]
    for s in states:
        rho = pure_to_density(s)
        concurrence_sq = np.trace(rho @ yy @ rho.conj() @ yy).real
        assert eof_pure(s) == pytest.approx(concurrence_sq, abs=1e-12)


# ---------------------------------------------------------------------------
# Quadratic structure of the correlation readout
# ---------------------------------------------------------------------------

def quadratic_features(entries):
    flat = entries.real.reshape(-1)
    feats = [1.0]
    feats.extend(flat)
    for i in range(16):
        for j in range(i, 16):
            feats.append(flat[i] * flat[j])
    return np.array(feats)


def test_correlation_after_propagation_is_quadratic_form():
    rng = np.random.default_rng(41)
    schedule = random_schedule(rng)

    def output(state):
        return correlation_squared(propagate(pure_to_density(state), schedule))

    train = [tasks.sample_pure_state(rng) for _ in range(50)]
    test = [tasks.sample_pure_state(rng) for _ in range(50)]
    x_train = np.array([quadratic_features(pure_to_density(s)) for s in train])
    y_train = np.array([output(s) for s in train])
    coeffs, *_ = np.linalg.lstsq(x_train, y_train, rcond=None)
    for s in test:
        pred = quadratic_features(pure_to_density(s)) @ coeffs
        assert pred == pytest.approx(output(s), abs=1e-8)


def test_schedule_propagator_matches_slicewise_product():
    rng = np.random.default_rng(47)
    schedule = random_schedule(rng, n_slices=3)
    u = schedule_propagator(schedule)
    manual = np.eye(4, dtype=complex)
    for p in schedule.slices:
        manual = slice_propagator(p, schedule.dt) @ manual
    assert np.allclose(u, manual)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_stacked_propagators_equal_the_one_schedule_propagator():
    # Each row of a stack must come out bit for bit as it does alone, and
    # multi-slice rows must agree with the RK4 integrator.
    rng = np.random.default_rng(53)
    for n_slices in (1, 2, 3, 4):
        stack = rng.uniform(-2.0, 2.0, (5, 5 * n_slices))
        us = propagators(stack, 1.0 / n_slices)
        assert us.shape == (5, 4, 4)
        for row, u in zip(stack, us):
            schedule = HamiltonianSchedule.from_array(row, 1.0)
            assert np.array_equal(u, schedule_propagator(schedule))
            if n_slices > 1:
                rho = random_rho(rng)
                evolved = u @ rho @ u.conj().T
                assert np.max(np.abs(evolved - reference_propagate(rho, schedule))) < 1e-9


def test_propagators_reject_a_bad_slice_length():
    for dt in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            propagators(np.zeros((1, 5)), dt)


@pytest.mark.parametrize(
    "stack",
    [np.zeros((0, 5)), np.zeros((2, 7)), np.zeros(5), np.zeros((2, 5, 1))],
    ids=["no-rows", "seven-columns", "one-dimensional", "three-dimensional"],
)
def test_propagators_reject_a_stack_that_is_not_whole_slices(stack):
    with pytest.raises(ValidationError, match="multiple of 5"):
        propagators(stack, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagators_reject_non_finite_parameters(bad):
    # Any nan or inf entry fails the whole stack, as it fails a SliceParams.
    stack = np.zeros((3, 10))
    stack[1, 7] = bad
    with pytest.raises(ValidationError, match="finite"):
        propagators(stack, 0.5)
