"""Random pure states with phases, shared by the test modules. The program
samples zero-phase states only (tasks.sample_pure_state draws the same
amplitudes); the propagator, readout and gradient checks want phases too."""

import numpy as np

from qnnbench.quantum import PureState


def random_state(rng, zero_phases=False):
    amps = np.abs(rng.standard_normal(4))
    phases = (0.0, 0.0, 0.0) if zero_phases else tuple(rng.uniform(0, 2 * np.pi, 3))
    return PureState.from_amplitudes(amps, phases)
