"""Experiment orchestration: configure nets, run seeded trials, score them.

Every experiment runs through one trial pipeline. The task drivers
(run_gates, run_iris, run_entanglement) only build a table's trials, each a
net, a seed and its TrialData. TrialData is plain data, class labels
included, so any trial can be pickled; which accuracy rule a net gets
follows from the width of its outputs, in reporting.accuracy_percent.
_run_group builds, trains, predicts and scores a group of trials by one
call of its net's step. A table's rvnn trials are one group, trained by
rvnn.train_lockstep in one spawned worker that sends back their
RunReports; meanwhile this process runs each cvnn and qnn trial as a group
of one. The cvnn and qnn entry points are looked up on their modules at
every call, so a replacement installed there is what runs. The benchmark
relies on this: bench/workload.py (observe_training, install_spans) wraps
cvnn.train_to_threshold and qnn.train on their modules. So do the tests
TestTrialPipeline::test_entry_points_are_looked_up_at_call_time and the
TestRvnnWorker tests that patch qnn.train, in test_runner.py, and the
witness_ten_seeds fixture of test_acceptance.py. The worker imports the
modules afresh, and the main module too, so a script that runs rvnn trials
keeps its entry code under an `if __name__ == "__main__":` guard.

Every stochastic choice in a trial (weight init, dataset split, sampling)
draws from a stream derived from the trial's root seed and a fixed role tag,
so one integer reproduces a whole table and trials stay independent of the
order they run in. Role tags 1 (iris split), 2 (witness training sampler),
and 3 (witness test set) live in the tasks module; this module adds 4 for
network initialization, further split by net and task variant.
"""

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cvnn, qnn, rvnn, tasks
from .errors import ValidationError
from .reporting import NET_NAMES as NETS, RunReport, accuracy_percent, rms_percent
from .training import check_positive, check_stop_rule, is_count, is_real

EXPERIMENTS = ("gates", "iris", "entanglement")

ROLE_NET_INIT = 4

# Per-net hyperparameter defaults for each experiment. Classical "hidden"
# None means a single-layer net (no hidden layer). The CVNN update rule has
# no learning rate, so none is configurable for it. The qnn "backtracking"
# switch picks the Armijo step over the fixed one (see the qnn module); only
# the witness uses it, because the parity-gate trials converge only through
# the overshoot of the fixed step.
DEFAULTS = {
    "gates": {
        "rvnn": {"hidden": None, "learning_rate": 2.0, "max_epochs": 1_000_000, "rms_target": 0.01},
        "cvnn": {"hidden": None, "max_epochs": 5_000, "rms_target": 0.01},
        "qnn": {"learning_rate": 20.0, "max_epochs": 500, "rms_target": 0.01, "slices": 4, "t_f": 1.0, "backtracking": False},
    },
    "iris": {
        "rvnn": {"hidden": 8, "learning_rate": 0.25, "max_epochs": 50_000, "rms_target": 0.01},
        "cvnn": {"hidden": 100, "max_epochs": 1_000, "rms_target": 0.01},
        "qnn": {"learning_rate": 2.0, "max_epochs": 100, "rms_target": 0.01, "slices": 4, "t_f": 1.0, "backtracking": False},
    },
    "entanglement": {
        "rvnn": {"hidden": 8, "learning_rate": 1.0, "max_epochs": 5_000, "rms_target": 0.01},
        "cvnn": {"hidden": 8, "max_epochs": 1_000, "rms_target": 0.01},
        "qnn": {"learning_rate": 8.0, "max_epochs": 2_000, "rms_target": 0.01, "slices": 1, "t_f": 1.5, "backtracking": True},
    },
}

DEFAULT_TRAIN_SIZE = {"iris": 75, "entanglement": 4}
WITNESS_TEST_SIZE = 25


def _valid_param(key: str, value) -> bool:
    """Whether a net_params value has its default's type; the ranges of the
    real-valued ones are the nets' own checks."""
    if key == "backtracking":
        return isinstance(value, bool)
    if key in ("hidden", "max_epochs", "slices"):
        return (key == "hidden" and value is None) or (is_count(value) and value >= 1)
    return is_real(value)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    nets: Tuple[str, ...] = NETS
    seeds: Tuple[int, ...] = (0,)
    train_size: Optional[int] = None
    output_format: str = "csv"
    net_params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    iris_path: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}")
        for name, kind, what in (
            ("nets", (list, tuple), "a list"),
            ("seeds", (list, tuple), "a list"),
            ("net_params", dict, "a dict"),
            ("iris_path", (str, type(None)), "a string or None"),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ValidationError(f"{name} must be {what}")
        if self.iris_path is not None and self.experiment != "iris":
            raise ValidationError("iris_path applies to iris only")
        object.__setattr__(self, "nets", tuple(self.nets))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.nets:
            raise ValidationError("nets must be nonempty")
        for net in self.nets:
            if net not in NETS:
                raise ValidationError(f"unknown net {net!r}")
        if len(set(self.nets)) != len(self.nets):
            raise ValidationError("nets must not repeat")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        for seed in self.seeds:
            if not is_count(seed):
                raise ValidationError("seeds must be integers")
            if seed < 0:
                raise ValidationError("seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds must not repeat")
        if self.train_size is not None:
            if self.experiment == "gates":
                raise ValidationError("gates has a fixed 4-row training set")
            if not is_count(self.train_size):
                raise ValidationError("train_size must be an integer")
            if self.train_size < 1:
                raise ValidationError("train_size must be >= 1")
        if self.output_format not in ("csv", "markdown"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        for net, overrides in self.net_params.items():
            if net not in NETS:
                raise ValidationError(f"net_params for unknown net {net!r}")
            if not isinstance(overrides, dict):
                raise ValidationError(f"net_params for {net} must be a dict")
            allowed = set(DEFAULTS[self.experiment][net])
            for key, value in overrides.items():
                if key not in allowed:
                    raise ValidationError(f"{net} does not accept parameter {key!r}")
                if not _valid_param(key, value):
                    raise ValidationError(f"{net} {key} cannot be {value!r}")
            params = self.resolved(net)
            check_stop_rule(params["rms_target"], params["max_epochs"])
            if "learning_rate" in params:
                zero_ok = net == "rvnn"  # a no-op rvnn epoch stays expressible
                check_positive(params["learning_rate"], f"{net} learning rate", zero_ok)
            if "t_f" in params:
                check_positive(params["t_f"], f"{net} t_f")

    def resolved(self, net: str) -> Dict[str, object]:
        params = dict(DEFAULTS[self.experiment][net])
        params.update(self.net_params.get(net, {}))
        return params


@dataclass(frozen=True)
class TrialData:
    """What a task hands to one trial: training pairs in the net's encoding,
    real target rows for the training and held-out inputs, the readout (None
    for the net's default) and, for an accuracy, the class indices of the
    test and training records. variant splits the init stream between the
    tasks of one experiment. Every field is plain data, so a trial pickles
    whatever its net."""

    label: str
    train: Sequence
    train_targets: Sequence
    test_inputs: Optional[Sequence] = None
    test_targets: Optional[Sequence] = None
    readout: object = None
    test_labels: Optional[Sequence] = None
    train_labels: Optional[Sequence] = None
    variant: int = 0


def _layer_sizes(params, pairs):
    """Input width, the hidden width when there is one, output width."""
    n_in, n_out = len(pairs[0][0]), len(pairs[0][1])
    return (n_in, n_out) if params["hidden"] is None else (n_in, params["hidden"], n_out)


def _init_stream(net, seed, data):
    entropy = (seed, ROLE_NET_INIT, NETS.index(net), data.variant)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# Per-net steps: each builds and trains the nets of a list of (data, rng, seed)
# trials and returns, per trial, its train result and a predict function to
# (n, outputs) real arrays. Only the rvnn step takes more than one trial.
def _rvnn_step(params, trials):
    nets = [
        rvnn.random_stack(_layer_sizes(params, data.train), rng)
        for data, rng, _ in trials
    ]
    pair_sets = [data.train for data, _, _ in trials]
    results = rvnn.train_lockstep(
        nets, pair_sets, params["learning_rate"], params["rms_target"], params["max_epochs"]
    )
    return [
        (result, lambda xs, net=result.net: np.array([rvnn.forward(net, x) for x in xs]))
        for result in results
    ]


def _cvnn_step(params, trials):
    [(data, rng, _)] = trials
    readout = data.readout or cvnn.unmap
    stack = cvnn.random_stack(_layer_sizes(params, data.train), rng)
    result = cvnn.train_to_threshold(
        stack, data.train, params["rms_target"], params["max_epochs"], readout=readout
    )
    return [(result, lambda xs: np.array(
        [[readout(z) for z in cvnn.forward(result.net, x)] for x in xs]
    ))]


def _qnn_step(params, trials):
    [(data, rng, seed)] = trials
    readout = data.readout or qnn.CORRELATION
    schedule = qnn.random_schedule(params["slices"], params["t_f"], rng)
    config = qnn.QnnConfig(
        learning_rate=params["learning_rate"],
        max_epochs=params["max_epochs"],
        rms_target=params["rms_target"],
        seed=seed,
        backtracking=params["backtracking"],
    )
    result = qnn.train(data.train, config, schedule, readout=readout)
    return [(result, lambda states: qnn.batch_outputs(
        qnn.states_to_rhos(states), result.schedule, readout
    )[:, None])]


_NET_STEPS = {"rvnn": _rvnn_step, "cvnn": _cvnn_step, "qnn": _qnn_step}


def _report(trial, result, predict):
    """Predict and score one trained trial."""
    net, seed, data = trial
    train_outs = predict([x for x, _ in data.train])
    train_rms = rms_percent(train_outs, data.train_targets)
    test_rms = accuracy = None
    if data.test_inputs is not None:
        test_outs = predict(data.test_inputs)
        test_rms = rms_percent(test_outs, data.test_targets)
        if data.test_labels is not None:
            accuracy = accuracy_percent(
                test_outs, data.test_labels, train_outs, data.train_labels
            )
    return RunReport(
        experiment=data.label,
        net=net,
        seed=seed,
        epochs_used=result.epochs_used,
        converged=result.converged,
        train_rms_pct=train_rms,
        test_rms_pct=test_rms,
        accuracy_pct=accuracy,
    )


def _run_group(config, group):
    """Build, train, predict and score a group of (net, seed, data) trials of
    one net by one step call; returns their RunReports."""
    net = group[0][0]
    members = [(data, _init_stream(net, seed, data), seed) for net, seed, data in group]
    trained = _NET_STEPS[net](config.resolved(net), members)
    return [
        _report(trial, result, predict)
        for trial, (result, predict) in zip(group, trained)
    ]


def _group_worker(sender, config, group):
    """The spawned worker: sends back _run_group's RunReports and None, or
    its exception and traceback text."""
    with sender:
        try:
            sender.send((_run_group(config, group), None))
        except Exception as exc:
            import traceback
            sender.send((exc, traceback.format_exc()))


@contextlib.contextmanager
def _run_group_in_worker(config, group):
    """Start one spawned worker that runs _run_group on a group of trials;
    yields a function that waits for their RunReports. Leaving stops the
    worker if it runs."""
    if not group:
        yield list
        return
    import multiprocessing
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_group_worker, args=(sender, config, group))

    def collect():
        try:
            payload, trace = receiver.recv()
        except EOFError:
            raise RuntimeError("the worker exited without sending results") from None
        worker.join()
        if trace is not None:
            raise payload from RuntimeError(f"raised in the worker:\n{trace}")
        return payload

    with receiver:
        with sender:
            worker.start()
        try:
            yield collect
        finally:
            if worker.exitcode is None:
                worker.terminate()
            worker.join()


def run_trials(config: ExperimentConfig, trials) -> List[RunReport]:
    """Build, train, predict and score (net, seed, data) trials; returns
    their RunReports in the order given. The rvnn group is handed first to
    the worker, which is stopped before this returns; this process then runs
    each cvnn and qnn trial in report order."""
    reports = [None] * len(trials)
    rvnn_group = [i for i, t in enumerate(trials) if t[0] == "rvnn"]
    with _run_group_in_worker(config, [trials[i] for i in rvnn_group]) as collect:
        for i, trial in enumerate(trials):
            if trial[0] != "rvnn":
                [reports[i]] = _run_group(config, [trial])
        for i, report in zip(rvnn_group, collect()):
            reports[i] = report
    return reports


def run_gates(config: ExperimentConfig) -> List[RunReport]:
    """Train every net on all six gates for every seed."""
    trials = []
    for gate_idx, name in enumerate(tasks.GATE_NAMES):
        task = tasks.gate_dataset(name)
        targets = [[float(t)] for _, t in task.pairs]
        for net in config.nets:
            pairs, readout = getattr(tasks, f"gate_encode_{net}")(task)
            data = TrialData(
                f"gates:{name}", pairs, targets, readout=readout, variant=gate_idx
            )
            for seed in config.seeds:
                trials.append((net, seed, data))
    return run_trials(config, trials)


def run_iris(config: ExperimentConfig) -> List[RunReport]:
    """Stratified-split Iris classification for every net and seed. The
    classical nets output one value per species and the qnn a single score;
    reporting.accuracy_percent decides each by the width of its outputs."""
    records = tasks.load_iris(config.iris_path)
    bounds = tasks.feature_bounds(records)
    n_train = config.train_size or DEFAULT_TRAIN_SIZE["iris"]
    label = f"iris:{n_train}"
    trials = []
    for seed in config.seeds:
        train, test = tasks.split_stratified(records, n_train, seed)
        split = train + test
        onehot = [tasks.iris_encode_onehot(r, bounds)[1] for r in split]
        species = np.array([s for _, s in split])
        for net in config.nets:
            if net == "qnn":
                pairs = [tasks.iris_encode_qnn(r) for r in split]
                targets = [[t] for _, t in pairs]
            else:
                encode = tasks.iris_encode_cvnn if net == "cvnn" else tasks.iris_encode_onehot
                pairs = [encode(r, bounds) for r in split]
                targets = onehot
            data = TrialData(
                label,
                pairs[:n_train],
                targets[:n_train],
                [x for x, _ in pairs[n_train:]],
                targets[n_train:],
                test_labels=species[n_train:],
                train_labels=species[:n_train],
            )
            trials.append((net, seed, data))
    return run_trials(config, trials)


def run_entanglement(config: ExperimentConfig) -> List[RunReport]:
    """Witness regression: train on n pure states, test on a fixed 25."""
    n_train = config.train_size or DEFAULT_TRAIN_SIZE["entanglement"]
    label = f"entanglement:{n_train}"
    trials = []
    for seed in config.seeds:
        train = tasks.witness_dataset(n_train, seed)
        test = tasks.witness_testset(WITNESS_TEST_SIZE, seed)
        train_targets = [[t] for _, t in train]
        test_targets = [[t] for _, t in test]
        for net in config.nets:
            encode = getattr(tasks, f"witness_encode_{net}")
            pairs = [encode(p) for p in train]
            test_inputs = [encode(p)[0] for p in test]
            data = TrialData(label, pairs, train_targets, test_inputs, test_targets)
            trials.append((net, seed, data))
    return run_trials(config, trials)


def run_experiment(config: ExperimentConfig) -> List[RunReport]:
    runner = {
        "gates": run_gates,
        "iris": run_iris,
        "entanglement": run_entanglement,
    }[config.experiment]
    return runner(config)
