"""Random phased density matrices, shared by the test modules. A PureState
carries no phases, and nor does any state the program builds; the
propagator, readout and gradient checks want phased inputs too, so they
take them as the (4, 4) arrays those entry points read."""

import numpy as np

from qnnbench.tasks import sample_pure_state


def random_rho(rng):
    """|psi><psi| of psi = (a, b e^{i t1}, c e^{i t2}, d e^{i t3}): the
    amplitudes sample_pure_state draws, then three phases uniform in
    [0, 2 pi)."""
    s = sample_pure_state(rng)
    t1, t2, t3 = rng.uniform(0, 2 * np.pi, 3)
    ket = np.array(
        [s.a, s.b * np.exp(1j * t1), s.c * np.exp(1j * t2), s.d * np.exp(1j * t3)]
    )
    return ket[:, None] * ket[None, :].conj()
