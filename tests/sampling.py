"""Helpers shared by the test modules.

random_rho draws random phased density matrices. A PureState carries no
phases, and nor does any state the program builds; the propagator, readout
and gradient checks want phased inputs too, so they take them as the
(4, 4) arrays those entry points read. numeric_rvnn_gradients is the
central-difference oracle the rvnn backpropagation is checked against."""

import numpy as np

from qnnbench import rvnn
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


def pair_loss(net, x, t):
    """The loss 0.5*sum((out - t)^2) that rvnn.pair_gradients differentiates."""
    return 0.5 * float(np.sum((rvnn.forward(net, x) - t) ** 2))


def numeric_rvnn_gradients(net, x, t, h=1e-5):
    """Central differences of pair_loss in every weight and bias of net."""
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for grads, params in ((grad_w, net.weights), (grad_b, net.biases)):
        for grad, param in zip(grads, params):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = param[idx]
                param[idx] = saved + h
                up = pair_loss(net, x, t)
                param[idx] = saved - h
                down = pair_loss(net, x, t)
                param[idx] = saved
                grad[idx] = (up - down) / (2 * h)
    return grad_w, grad_b
