"""Two-qubit state algebra.

Pure states, density matrices, Hamiltonian construction, piecewise-constant
time propagation, the observables that network readouts measure, and the
closed-form entanglement of formation. All operations are pure functions;
hbar = 1 throughout.

A PureState is four nonnegative real amplitudes, as is every state the
tasks build. A density matrix is a complex (4, 4) array, a stack of them
(n, 4, 4); the propagators and readouts take any, phased or not. The
program builds every one as |psi><psi| of a validated PureState through
states_to_rhos (pure_to_density is its one-state case). PureState holds its
squared norm to TRACE_TOL of 1, so each is Hermitian and positive
semidefinite with unit trace by construction, and nothing re-checks it.

Propagation is one function: propagators turns a stack of schedules, one
parameter vector per row, into their total propagators, from one batched
eigendecomposition of every slice Hamiltonian in the stack;
schedule_propagator and slice_propagator are one-row calls of it.
reference_propagate is the independent RK4 check on all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .training import check_positive

# Pauli operators; qubit A is the left tensor factor, basis order
# |00>, |01>, |10>, |11>.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)

X_A = np.kron(PAULI_X, IDENTITY_2)
X_B = np.kron(IDENTITY_2, PAULI_X)
Z_A = np.kron(PAULI_Z, IDENTITY_2)
Z_B = np.kron(IDENTITY_2, PAULI_Z)
ZZ = np.kron(PAULI_Z, PAULI_Z)

TRACE_TOL = 1e-12

DEFAULT_TOTAL_TIME = 1.0


@dataclass(frozen=True)
class PureState:
    """Two-qubit pure state (a, b, c, d) in the |00>,|01>,|10>,|11> basis,
    four nonnegative real amplitudes of unit norm."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        amps = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in amps):
            raise ValidationError("pure state has non-finite components")
        if any(v < 0 for v in amps):
            raise ValidationError("amplitudes must be nonnegative")
        norm_sq = sum(v * v for v in amps)
        if abs(norm_sq - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"state not normalized: |amplitudes|^2 = {norm_sq!r}"
            )

    @classmethod
    def from_amplitudes(cls, raw):
        """Normalize a raw nonnegative 4-vector into a PureState."""
        raw = np.asarray(raw, dtype=float)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        a, b, c, d = (raw / norm).tolist()
        return cls(a, b, c, d)

    def ket(self):
        """The amplitudes as a complex state vector."""
        return np.array([self.a, self.b, self.c, self.d], dtype=complex)


@dataclass(frozen=True)
class SliceParams:
    """Hamiltonian parameters held constant over one time slice.

    k_a, k_b are the tunneling amplitudes, eps_a, eps_b the biases and
    zeta the qubit-qubit coupling.
    """

    k_a: float
    k_b: float
    eps_a: float
    eps_b: float
    zeta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValidationError("Hamiltonian parameters must be finite")

    def as_tuple(self):
        return (self.k_a, self.k_b, self.eps_a, self.eps_b, self.zeta)


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Piecewise-constant Hamiltonian parameters over equal-length slices."""

    slices: tuple
    total_time: float = DEFAULT_TOTAL_TIME

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        if len(self.slices) < 1:
            raise ValidationError("schedule needs at least one slice")
        check_positive(self.total_time, "total_time")

    @property
    def dt(self):
        return self.total_time / len(self.slices)

    def as_array(self):
        """Flat parameter vector, slice-major, 5 entries per slice."""
        return np.array([v for s in self.slices for v in s.as_tuple()])

    @classmethod
    def from_array(cls, values, total_time=DEFAULT_TOTAL_TIME):
        values = np.asarray(values, dtype=float)
        if values.size == 0 or values.size % 5 != 0:
            raise ValidationError("parameter vector length must be a positive multiple of 5")
        slices = tuple(
            SliceParams(*values[5 * i : 5 * i + 5]) for i in range(values.size // 5)
        )
        return cls(slices, total_time)


def states_to_rhos(states: Sequence[PureState]) -> np.ndarray:
    """Density matrices |psi><psi| of a sequence of PureStates, (n, 4, 4)."""
    k = np.array([s.ket() for s in states])
    return k[:, :, None] * k[:, None, :].conj()


def pure_to_density(state: PureState) -> np.ndarray:
    """Density matrix |psi><psi| of one PureState, (4, 4)."""
    return states_to_rhos([state])[0]


def build_hamiltonian(coeffs) -> np.ndarray:
    """Two-qubit Hamiltonian with X tunneling, Z bias and ZZ coupling terms.

    The trailing axis of coeffs holds (k_a, k_b, eps_a, eps_b, zeta), so a
    stack of shape (..., 5) gives Hamiltonians of shape (..., 4, 4). Real
    symmetric by construction (every term is a real Pauli word).
    """
    c = np.asarray(coeffs, dtype=float)
    k_a, k_b, eps_a, eps_b, zeta = (c[..., i, None, None] for i in range(5))
    return k_a * X_A + k_b * X_B + eps_a * Z_A + eps_b * Z_B + zeta * ZZ


def propagators(params, dt: float) -> np.ndarray:
    """Total propagators of a stack of schedules: (n, 5 S) -> (n, 4, 4).

    Each row holds S slices of length dt. One batched eigendecomposition of
    the n S real symmetric slice Hamiltonians gives their unitaries
    exp(-i H dt), each bit for bit as it would come out alone; each row's
    slices are then multiplied, later slices applied on the left.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or not params.size or params.shape[1] % 5:
        raise ValidationError(
            "parameter stack must be 2-D with a positive multiple of 5 columns"
        )
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive")
    if not np.all(np.isfinite(params)):
        raise ValidationError("Hamiltonian parameters must be finite")
    coeffs = params.reshape(len(params), -1, 5)
    evals, evecs = np.linalg.eigh(build_hamiltonian(coeffs))
    factors = np.exp(-1j * dt * evals)[..., None, :]
    unitaries = (evecs * factors) @ evecs.swapaxes(-1, -2).conj()
    u = unitaries[:, 0]
    for s in range(1, unitaries.shape[1]):
        u = unitaries[:, s] @ u
    return u


def slice_propagator(params: SliceParams, dt: float) -> np.ndarray:
    """Unitary exp(-i H dt) of one slice."""
    return propagators([params.as_tuple()], dt)[0]


def schedule_propagator(schedule: HamiltonianSchedule) -> np.ndarray:
    """Total propagator, later slices applied on the left."""
    return propagators(schedule.as_array()[None], schedule.dt)[0]


def reference_propagate(
    rho: np.ndarray, schedule: HamiltonianSchedule, substeps: int = 400
) -> np.ndarray:
    """Slow reference evolution of a (4, 4) density matrix: RK4 on
    d(rho)/dt = -i[H, rho].

    Deliberately avoids the eigendecomposition route so it can serve as an
    independent cross-check of U rho U^dagger with U = schedule_propagator. The equation is linear, so one
    four-stage RK4 step of size k is the matrix I + S + S^2/2 + S^3/6 + S^4/24
    with S = -i k (H (x) I - I (x) H^T) acting on the row-major vec(rho); each
    slice builds that map once and applies it `substeps` times.
    """
    m = np.array(rho, dtype=complex).ravel()
    eye = np.eye(4)
    step = schedule.dt / substeps
    for params in schedule.slices:
        h = build_hamiltonian(params.as_tuple()).astype(complex)
        s = -1j * step * (np.kron(h, eye) - np.kron(eye, h.T))
        s2 = s @ s
        step_map = np.eye(16) + s + s2 / 2.0 + s2 @ s / 6.0 + s2 @ s2 / 24.0
        for _ in range(substeps):
            m = step_map @ m
    return m.reshape(4, 4)


def eof_pure(state: PureState) -> float:
    """Closed-form two-qubit pure-state entanglement, in [0, 1]: the squared
    concurrence 4 (a d - b c)^2 (Wootters, PRL 80:2245, 1998). It is summed
    as three expanded terms; the factored form rounds differently."""
    a, b, c, d = state.a, state.b, state.c, state.d
    value = 4 * a * a * d * d + 4 * b * b * c * c - 8 * a * b * c * d
    return min(1.0, max(0.0, value))
