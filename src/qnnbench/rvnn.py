"""Real-valued feed-forward network with sigmoid units and per-pair gradient descent.

The network is a plain layer stack that holds only its weights and biases:
every layer computes sigmoid(W x + b). The learning rate, like the stop
rule, is an argument of the train calls. train_lockstep, the one way to
train, takes several nets of one shape and trains each on its own pairs in
lockstep, with the pairs stored pair-major so that one pair step serves
every net; train_to_threshold is its one-net case. The pairs are checked
once, up front; each epoch then applies one gradient step per pair, in
order, accumulating the epoch error from each forward pass before its
update, so a zero learning rate reports exactly the static error of the
starting weights. Epochs repeat under the stop rule
shared by all three nets (qnnbench.training). pair_gradients, the same step
for one net and one pair, stays as the reference the lockstep step is
tested against, and is itself checked against finite differences of one
pair's loss.

All RMS values handled here are fractions of full scale in [0, 1]; reporting
code multiplies by 100 where percentages are wanted.
"""

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .training import check_positive, run_epochs


def sigmoid(t):
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0, e) / d


@dataclass
class RealLayerStack:
    """Weights and biases, one bias vector per weight matrix. The learning
    rate is a setting of the train calls, not part of the net."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValidationError("need one bias vector per weight matrix")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValidationError(f"layer {k}: weight/bias shapes disagree")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {k}: non-finite parameters")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValidationError(f"layer {k}: input width breaks the chain")

    @property
    def sizes(self):
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


def random_stack(sizes: Sequence[int], rng) -> RealLayerStack:
    """Build a stack with all parameters drawn uniformly from [-0.5, 0.5)."""
    rng = np.random.default_rng(rng)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-0.5, 0.5, (n_out, n_in)))
        biases.append(rng.uniform(-0.5, 0.5, n_out))
    return RealLayerStack(weights, biases)


def _activations(net, x):
    acts = [np.asarray(x, dtype=float)]
    for w, b in zip(net.weights, net.biases):
        acts.append(sigmoid(w @ acts[-1] + b))
    return acts


def forward(net: RealLayerStack, x) -> np.ndarray:
    if np.shape(x) != (net.sizes[0],):
        raise ValidationError(f"expected input of length {net.sizes[0]}")
    return _activations(net, x)[-1]


def pair_gradients(net: RealLayerStack, x, t):
    """Gradients of 0.5*sum((out - t)^2) for one pair, by backpropagation."""
    acts = _activations(net, x)
    delta = (acts[-1] - t) * acts[-1] * (1.0 - acts[-1])
    grad_w, grad_b = [], []
    for k in range(len(net.weights) - 1, -1, -1):
        grad_w.append(np.outer(delta, acts[k]))
        grad_b.append(delta)
        if k > 0:
            delta = (net.weights[k].T @ delta) * acts[k] * (1.0 - acts[k])
    grad_w.reverse()
    grad_b.reverse()
    return grad_w, grad_b, acts[-1]


class TrainResult(NamedTuple):
    net: RealLayerStack
    epochs_used: int
    converged: bool
    rms_history: List[float]


def train_to_threshold(net, pairs, learning_rate, rms_target, max_epochs) -> TrainResult:
    """Train one net: the one-net case of train_lockstep."""
    return train_lockstep([net], [pairs], learning_rate, rms_target, max_epochs)[0]


def _views(buffer, sizes):
    """Per-layer weight (B, m, n) and bias (B, m, 1) views into a (B, S)
    buffer whose rows hold every weight matrix, then every bias vector."""
    rows, at = len(buffer), 0
    weights, biases = [], []
    for n, m in zip(sizes[:-1], sizes[1:]):
        weights.append(buffer[:, at : at + m * n].reshape(rows, m, n))
        at += m * n
    for m in sizes[1:]:
        biases.append(buffer[:, at : at + m, None])
        at += m
    return weights, biases


def train_lockstep(nets, pair_sets, learning_rate, rms_target, max_epochs) -> List[TrainResult]:
    """Train each net on its own pairs under the shared stop rule of
    qnnbench.training, all of them in lockstep; returns one TrainResult per
    net, in order.

    The nets must share their sizes, and the pair lists their length; every
    net steps at learning_rate, a finite real number >= 0 (zero keeps a
    no-op epoch expressible). The rate and every pair of every net are
    checked, and the pairs converted to float, once, before any update,
    into pair-major arrays: the k-th pair of every net still training sits
    in one (nets, width, 1) slab. The parameters of those nets are the rows
    of one float64 buffer, which is also their training state.
    Each epoch is one in-order pass over the pairs; each pair is one
    gradient step of every net, taken by stacked matrix products that apply
    to each net the same floating-point operations as training it alone,
    so every net's run is bit for bit the one it would have alone. A net
    that stops leaves the batch; one function writes its final parameters
    back into its arrays, and the same function writes back the rest at the
    end of the run."""
    if not nets or len(nets) != len(pair_sets):
        raise ValidationError("need one pair list per net")
    check_positive(learning_rate, "learning rate", allow_zero=True)
    sizes, n_pairs = nets[0].sizes, len(pair_sets[0])
    if not n_pairs:
        raise ValidationError("cannot train on an empty pair list")
    for net, pairs in zip(nets, pair_sets):
        if net.sizes != sizes or len(pairs) != n_pairs:
            raise ValidationError("lockstep nets need equal sizes and pair counts")
        if any(p.dtype != np.float64 for p in net.weights + net.biases):
            raise ValidationError("rvnn parameters must be float64 arrays")
    n_in, n_out = sizes[0], sizes[-1]
    inputs = np.empty((n_pairs, len(nets), n_in, 1))
    targets = np.empty((n_pairs, len(nets), n_out, 1))
    for i, pairs in enumerate(pair_sets):
        for k, (x, target) in enumerate(pairs):
            x, target = np.asarray(x, dtype=float), np.asarray(target, dtype=float)
            if x.shape != (n_in,) or target.shape != (n_out,):
                raise ValidationError(
                    f"net {i}, pair {k}: expected input width {n_in} "
                    f"and target width {n_out}"
                )
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(target))):
                raise ValidationError(f"net {i}, pair {k}: non-finite input or target")
            inputs[k, i, :, 0], targets[k, i, :, 0] = x, target
    params = np.array(
        [np.concatenate([p.ravel() for p in net.weights + net.biases]) for net in nets]
    )
    grads = np.empty_like(params)
    rows = np.arange(len(nets))  # the net in each buffer row
    weights, biases = _views(params, sizes)
    grad_w, grad_b = _views(grads, sizes)
    n_components = n_out * n_pairs

    def epoch():
        sq_sum = np.zeros((len(params), 1))
        for x, target in zip(inputs, targets):
            acts = [x]
            for w, b in zip(weights, biases):
                z = w @ acts[-1]
                z += b
                acts.append(sigmoid(z))
            out = acts[-1]
            err = out - target
            sq_sum += np.add.reduce(err * err, axis=1)
            delta = err * out * (1.0 - out)
            for k in range(len(weights) - 1, -1, -1):
                np.multiply(delta, acts[k].swapaxes(1, 2), out=grad_w[k])
                grad_b[k][...] = delta
                if k > 0:
                    back = weights[k].swapaxes(1, 2) @ delta
                    delta = back * acts[k] * (1.0 - acts[k])
            np.subtract(params, learning_rate * grads, out=params)
        return (np.sqrt(sq_sum[:, 0] / n_components).tolist(),)

    def write_back(done):
        """Copy the buffer rows that done picks into their nets' arrays."""
        for row, i in zip(params[done], rows[done]):
            at = 0
            for p in nets[i].weights + nets[i].biases:
                p[...] = row[at : at + p.size].reshape(p.shape)
                at += p.size

    def shrink(keep):
        nonlocal params, grads, rows, inputs, targets, weights, biases, grad_w, grad_b
        write_back(~keep)
        params, rows = params[keep], rows[keep]
        inputs, targets = inputs[:, keep], targets[:, keep]
        grads = np.empty_like(params)
        weights, biases = _views(params, sizes)
        grad_w, grad_b = _views(grads, sizes)

    runs = run_epochs(
        epoch, lambda: params.view(np.uint64).copy(), rms_target, max_epochs, shrink
    )
    write_back(slice(None))
    return [TrainResult(net, *run) for net, run in zip(nets, runs)]
