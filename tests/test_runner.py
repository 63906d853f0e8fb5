"""Tests for experiment orchestration: config resolution, trial structure,
and end-to-end determinism. Trials here use small budgets; the full-size
runs live in the acceptance suite."""

import multiprocessing
import pickle
import signal
import time

import pytest

from qnnbench import cvnn, qnn, runner, rvnn
from qnnbench.errors import ValidationError
from qnnbench.reporting import reports_to_csv
from qnnbench.runner import (
    DEFAULTS,
    ExperimentConfig,
    TrialData,
    run_entanglement,
    run_experiment,
    run_gates,
    run_iris,
    run_trials,
)


class TestConfig:
    def test_defaults_cover_every_experiment_and_net(self):
        for experiment, nets in DEFAULTS.items():
            assert set(nets) == {"rvnn", "cvnn", "qnn"}
            for params in nets.values():
                assert "max_epochs" in params and "rms_target" not in params

    def test_rejects_unknown_experiment_and_net(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="parity")
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", nets=("rvnn", "dnn"))

    def test_rejects_empty_or_repeated_selections(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", nets=())
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", nets=("qnn", "qnn"))
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", seeds=())
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", seeds=(1, 1))

    def test_rejects_bad_seeds(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", seeds=(0, -1))
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", seeds=(0.5,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seeds", 3),
            ("nets", 5),
            ("nets", "qnn"),
            ("net_params", {"qnn": 3}),
            ("net_params", [1]),
            ("iris_path", 2.5),
            ("train_size", 0),
            ("net_params", {"dnn": {}}),
        ],
    )
    def test_rejects_a_field_of_the_wrong_shape(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig("iris", **{field: value})

    def test_list_selections_are_stored_as_tuples(self):
        config = ExperimentConfig("iris", nets=["qnn", "rvnn"], seeds=[2, 1])
        assert config.nets == ("qnn", "rvnn") and config.seeds == (2, 1)

    def test_gates_refuses_a_train_size(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", train_size=4)

    @pytest.mark.parametrize("experiment", ["gates", "entanglement"])
    def test_only_iris_takes_an_iris_path(self, experiment):
        # Only the iris driver reads the file, so elsewhere a path would be
        # silently ignored.
        with pytest.raises(ValidationError, match="iris_path applies to iris only"):
            ExperimentConfig(experiment=experiment, iris_path="iris.csv")
        assert ExperimentConfig(experiment=experiment).iris_path is None
        assert ExperimentConfig(experiment="iris", iris_path="iris.csv").iris_path == "iris.csv"

    def test_rejects_unknown_hyperparameter(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                experiment="iris", net_params={"cvnn": {"learning_rate": 1.0}}
            )
        with pytest.raises(ValidationError):
            ExperimentConfig(
                experiment="iris", net_params={"rvnn": {"momentum": 0.9}}
            )

    @pytest.mark.parametrize("net, value", [("rvnn", 0.01), ("cvnn", 1.5), ("qnn", 0.0)])
    def test_rejects_an_rms_target_as_unknown(self, net, value):
        # Every net trains to training.RMS_TARGET; no config sets another.
        with pytest.raises(ValidationError, match=f"{net} does not accept parameter 'rms_target'"):
            ExperimentConfig(experiment="iris", net_params={net: {"rms_target": value}})

    def test_backtracking_defaults_on_for_the_witness_only(self):
        assert {e: DEFAULTS[e]["qnn"]["backtracking"] for e in DEFAULTS} == {
            "gates": False,
            "iris": False,
            "entanglement": True,
        }

    def test_rejects_a_backtracking_value_that_is_not_a_bool(self):
        for value in (1, "false", None):
            with pytest.raises(ValidationError):
                ExperimentConfig(
                    experiment="entanglement",
                    net_params={"qnn": {"backtracking": value}},
                )
        config = ExperimentConfig(
            experiment="gates", net_params={"qnn": {"backtracking": True}}
        )
        assert config.resolved("qnn")["backtracking"] is True

    def test_train_size_must_be_an_integer(self):
        for value in (4.5, True, "4"):
            with pytest.raises(ValidationError):
                ExperimentConfig(experiment="entanglement", train_size=value)

    @pytest.mark.parametrize(
        "net, key, value",
        [
            ("qnn", "max_epochs", "3"),
            ("qnn", "max_epochs", True),
            ("rvnn", "max_epochs", 0),
            ("qnn", "slices", 1.5),
            ("qnn", "slices", 0),
            ("rvnn", "hidden", 0),
            ("cvnn", "hidden", 2.5),
            ("rvnn", "learning_rate", "0.5"),
            ("qnn", "t_f", False),
            ("qnn", "learning_rate", -1.0),
            ("qnn", "learning_rate", 0.0),
            ("qnn", "learning_rate", float("nan")),
            ("rvnn", "learning_rate", -0.5),
            ("qnn", "t_f", -1.0),
            ("qnn", "t_f", float("inf")),
        ],
    )
    def test_rejects_a_net_param_of_the_wrong_type(self, net, key, value):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="iris", net_params={net: {key: value}})

    def test_accepts_every_documented_net_param_type(self):
        config = ExperimentConfig(
            experiment="iris",
            net_params={
                "rvnn": {"hidden": None, "learning_rate": 1, "max_epochs": 3},
                "cvnn": {"hidden": 4},
                "qnn": {"slices": 2, "t_f": 2, "backtracking": True},
            },
        )
        assert config.resolved("rvnn")["hidden"] is None

    def test_accepts_a_zero_rvnn_learning_rate(self):
        # A zero rate keeps a no-op rvnn epoch expressible; the qnn needs > 0.
        config = ExperimentConfig(experiment="iris", net_params={"rvnn": {"learning_rate": 0}})
        assert config.resolved("rvnn")["learning_rate"] == 0
        with pytest.raises(ValidationError, match="qnn learning rate"):
            ExperimentConfig(experiment="iris", net_params={"qnn": {"learning_rate": 0}})

    def test_resolved_merges_overrides_onto_defaults(self):
        config = ExperimentConfig(
            experiment="iris", net_params={"rvnn": {"hidden": 12}}
        )
        params = config.resolved("rvnn")
        assert params["hidden"] == 12
        assert params["max_epochs"] == DEFAULTS["iris"]["rvnn"]["max_epochs"]

    def test_rejects_bad_output_format(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(experiment="gates", output_format="xml")


@pytest.fixture(scope="module")
def gate_reports():
    config = ExperimentConfig(experiment="gates", nets=("cvnn", "qnn"), seeds=(1,))
    return run_gates(config)


class TestGatesRun:
    @pytest.fixture
    def reports(self, gate_reports):
        return gate_reports

    def test_one_report_per_gate_and_net(self, reports):
        labels = {r.experiment for r in reports}
        assert labels == {
            f"gates:{g}" for g in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
        }
        assert len(reports) == 12

    def test_reports_carry_training_metrics_only(self, reports):
        for r in reports:
            assert r.test_rms_pct is None and r.accuracy_pct is None
            assert r.epochs_used >= 1
            assert r.converged
            assert r.train_rms_pct <= 1.0 + 1e-9


class TestIrisRun:
    def test_small_split_produces_full_metrics(self):
        config = ExperimentConfig(
            experiment="iris",
            nets=("rvnn", "qnn"),
            seeds=(2,),
            train_size=12,
            net_params={
                "rvnn": {"max_epochs": 200},
                "qnn": {"max_epochs": 10},
            },
        )
        reports = run_iris(config)
        assert [r.net for r in reports] == ["rvnn", "qnn"]
        for r in reports:
            assert r.experiment == "iris:12"
            assert r.test_rms_pct is not None
            assert 0 <= r.accuracy_pct <= 100

    def test_alternate_dataset_path_is_honored(self, tmp_path):
        bad = tmp_path / "iris.csv"
        bad.write_text("not,a,real,row,nope\n", encoding="utf-8")
        config = ExperimentConfig(
            experiment="iris", nets=("qnn",), seeds=(0,), iris_path=str(bad)
        )
        with pytest.raises(Exception):
            run_iris(config)


class TestEntanglementRun:
    def test_quartet_run_reports_test_rms_without_accuracy(self):
        config = ExperimentConfig(
            experiment="entanglement",
            nets=("qnn",),
            seeds=(1,),
            net_params={"qnn": {"max_epochs": 300}},
        )
        reports = run_entanglement(config)
        assert len(reports) == 1
        r = reports[0]
        assert r.experiment == "entanglement:4"
        assert r.test_rms_pct is not None
        assert r.accuracy_pct is None

    def test_train_size_label(self):
        config = ExperimentConfig(
            experiment="entanglement",
            nets=("qnn",),
            seeds=(1,),
            train_size=20,
            net_params={"qnn": {"max_epochs": 50}},
        )
        assert run_entanglement(config)[0].experiment == "entanglement:20"


class TestDeterminism:
    def test_identical_configs_serialize_identically(self):
        # The rvnn rows are built in the spawned worker, so their bytes are
        # compared across two workers.
        config = ExperimentConfig(
            experiment="entanglement",
            seeds=(0, 1),
            net_params={
                "rvnn": {"max_epochs": 30},
                "qnn": {"max_epochs": 60},
                "cvnn": {"max_epochs": 40},
            },
        )
        first = reports_to_csv(run_experiment(config))
        second = reports_to_csv(run_experiment(config))
        assert first == second
        nets = {line.split(",")[1] for line in first.splitlines()[1:]}
        assert nets == {"rvnn", "cvnn", "qnn"}

    def test_every_row_reads_zero_wall_time(self):
        # Two seeds of every net: the rvnn rows come from the worker's
        # lockstep group, each cvnn and qnn row from a group of its own.
        config = ExperimentConfig(
            experiment="entanglement",
            seeds=(0, 1),
            net_params={
                "rvnn": {"max_epochs": 20},
                "cvnn": {"max_epochs": 20},
                "qnn": {"max_epochs": 20},
            },
        )
        lines = reports_to_csv(run_experiment(config)).splitlines()
        assert lines[0].split(",")[-1] == "wall_time_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert sorted(row[1] for row in rows) == sorted(2 * ["rvnn", "cvnn", "qnn"])
        assert all(row[-1] == "0.0" for row in rows)

    def test_dispatch_routes_by_experiment(self):
        config = ExperimentConfig(
            experiment="gates", nets=("qnn",), seeds=(1,),
            net_params={"qnn": {"max_epochs": 60}},
        )
        labels = {r.experiment.split(":")[0] for r in run_experiment(config)}
        assert labels == {"gates"}


def _counting(monkeypatch, module, attr, calls, net):
    """Replace module.attr with a wrapper that records (net, args) per call."""
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append((net, args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


class TestTrialPipeline:
    TINY = {
        "rvnn": {"max_epochs": 3},
        "cvnn": {"max_epochs": 2},
        "qnn": {"max_epochs": 2},
    }

    @pytest.mark.parametrize(
        "experiment, seeds, train_size",
        [("gates", (1,), None), ("iris", (0, 2), 12), ("entanglement", (0, 1), None)],
    )
    def test_entry_points_are_looked_up_at_call_time(
        self, monkeypatch, experiment, seeds, train_size
    ):
        # The rvnn group is built and trained in a spawned worker, which no
        # replacement made here reaches: what this process does for the rvnn
        # trials is hand them over as one group.
        calls = []
        _counting(monkeypatch, runner, "_run_group_in_worker", calls, "rvnn")
        _counting(monkeypatch, rvnn, "random_stack", calls, "rvnn.build")
        _counting(monkeypatch, rvnn, "train_lockstep", calls, "rvnn.train")
        _counting(monkeypatch, cvnn, "train_to_threshold", calls, "cvnn")
        _counting(monkeypatch, qnn, "train", calls, "qnn")
        config = ExperimentConfig(
            experiment=experiment,
            seeds=seeds,
            train_size=train_size,
            net_params=self.TINY,
        )
        reports = run_experiment(config)
        # One call holds every rvnn trial and is handed over first; the cvnn
        # and qnn trials follow one call each, in report order. This process
        # never builds or trains an rvnn net.
        n_rvnn = sum(r.net == "rvnn" for r in reports)
        assert calls[0][0] == "rvnn"
        assert [net for net, _, _ in calls[0][1][1]] == n_rvnn * ["rvnn"]
        singles = [r for r in reports if r.net != "rvnn"]
        assert [net for net, _, _ in calls[1:]] == [r.net for r in singles]
        for (net, args, _), report in zip(calls[1:], singles):
            if net == "qnn":
                assert args[1].seed == report.seed

    @pytest.mark.parametrize(
        "experiment, driver",
        [("gates", run_gates), ("iris", run_iris), ("entanglement", run_entanglement)],
    )
    def test_every_trial_pickles_whatever_its_net(self, monkeypatch, experiment, driver):
        # A trial's data is plain data, so the worker could run any net.
        built = []
        monkeypatch.setattr(runner, "run_trials", lambda config, trials: built.extend(trials))
        driver(ExperimentConfig(experiment=experiment))
        assert {net for net, _, _ in built} == {"rvnn", "cvnn", "qnn"}
        for trial in built:
            pickle.dumps(trial)
            # Every row has its input, target and, where set, label, and the
            # training rows come first, as the training pairs' own inputs.
            _, _, data = trial
            rows = {"gates": 4, "iris": 150, "entanglement": 29}[experiment]
            assert len(data.inputs) == len(data.targets) == rows
            if data.labels is not None:
                assert len(data.labels) == rows
            assert len(data.train) <= rows
            for (x, _), row in zip(data.train, data.inputs[: len(data.train)]):
                assert x is row

    @pytest.mark.parametrize(
        "experiment, train_size", [("gates", None), ("iris", 12), ("entanglement", None)]
    )
    def test_each_qnn_trial_predicts_once(self, monkeypatch, experiment, train_size):
        # One batch_outputs call scores a trial's training and held-out rows
        # alike; training itself never calls it.
        calls = []
        _counting(monkeypatch, qnn, "batch_outputs", calls, "qnn")
        config = ExperimentConfig(
            experiment=experiment, nets=("qnn",), seeds=(0, 1),
            train_size=train_size, net_params={"qnn": {"max_epochs": 2}},
        )
        reports = run_experiment(config)
        assert len(calls) == len(reports) == (12 if experiment == "gates" else 2)

    @pytest.mark.parametrize(
        "experiment, sizes",
        [("iris", {"rvnn": (4, 3), "cvnn": (4, 3)}),
         ("entanglement", {"rvnn": (16, 1), "cvnn": (16, 1)})],
    )
    def test_hidden_none_trains_a_single_layer_net(self, monkeypatch, experiment, sizes):
        # The rvnn sizes come from the handed-over group, run here through
        # the same group function the worker runs.
        handed, calls = [], []
        _counting(monkeypatch, runner, "_run_group_in_worker", handed, "rvnn")
        _counting(monkeypatch, rvnn, "random_stack", calls, "rvnn")
        _counting(monkeypatch, cvnn, "train_to_threshold", calls, "cvnn")
        config = ExperimentConfig(
            experiment=experiment,
            nets=("rvnn", "cvnn"),
            train_size=12 if experiment == "iris" else None,
            net_params={
                "rvnn": {"hidden": None, "max_epochs": 3},
                "cvnn": {"hidden": None, "max_epochs": 2},
            },
        )
        reports = run_experiment(config)
        assert [r.net for r in reports] == ["rvnn", "cvnn"]
        assert all(r.test_rms_pct is not None for r in reports)
        [(_, (_, group), _)] = handed
        assert runner._run_group(config, group) == reports[:1]
        built = {net: args[0] for net, args, _ in calls}
        assert {"rvnn": tuple(built["rvnn"]), "cvnn": built["cvnn"].sizes} == sizes

    @pytest.mark.parametrize("experiment, slices", [("gates", 4), ("entanglement", 1)])
    def test_resolved_slices_reach_every_qnn_trial(self, monkeypatch, experiment, slices):
        calls = []
        _counting(monkeypatch, qnn, "train", calls, "qnn")
        config = ExperimentConfig(
            experiment=experiment, nets=("qnn",), seeds=(1,),
            net_params={"qnn": {"max_epochs": 2}},
        )
        reports = run_experiment(config)
        assert config.resolved("qnn")["slices"] == slices
        assert len(calls) == len(reports) == (6 if experiment == "gates" else 1)
        assert [len(args[2].slices) for _, args, _ in calls] == len(calls) * [slices]


@pytest.fixture
def worker_guard():
    """Fail a test that waits on the rvnn worker for over two minutes.
    conftest.py checks afterwards that no child process is left."""

    def expire(signum, frame):
        raise TimeoutError("waited on the rvnn worker for over 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRvnnWorker:
    def test_a_worker_error_reaches_the_caller_with_its_type(self, worker_guard):
        pairs = [([float("nan"), 0.0], [1.0])]
        data = TrialData("gates:AND", pairs, [x for x, _ in pairs], [[1.0]])
        config = ExperimentConfig(experiment="gates", nets=("rvnn",))
        with pytest.raises(ValidationError, match="net 0, pair 0: non-finite input or target") as err:
            run_trials(config, [("rvnn", 0, data)])
        # The worker's traceback comes along as the cause.
        assert "train_lockstep" in str(err.value.__cause__)

    def test_an_error_in_this_process_stops_the_worker(self, monkeypatch, worker_guard):
        # The iris rvnn at its defaults trains for tens of seconds, so the
        # worker is still running when the qnn trial fails.
        def broken(*args, **kwargs):
            raise RuntimeError("qnn failed")

        monkeypatch.setattr(qnn, "train", broken)
        config = ExperimentConfig(experiment="iris", nets=("rvnn", "qnn"), seeds=(2,))
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="qnn failed"):
            run_iris(config)
        assert time.perf_counter() - start < 20.0

    def test_a_worker_that_exits_without_sending_raises(self, monkeypatch, worker_guard):
        # The iris rvnn at its defaults trains for tens of seconds, so the
        # worker is still running when the qnn trial kills it.
        train = qnn.train

        def kill_then_train(*args, **kwargs):
            [worker] = multiprocessing.active_children()
            worker.kill()
            return train(*args, **kwargs)

        monkeypatch.setattr(qnn, "train", kill_then_train)
        config = ExperimentConfig(experiment="iris", nets=("rvnn", "qnn"), seeds=(2,))
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="the worker exited without sending results"):
            run_iris(config)
        assert time.perf_counter() - start < 20.0
        assert multiprocessing.active_children() == []

    def test_rvnn_rows_match_an_in_process_lockstep_run(self, monkeypatch, worker_guard):
        # Single-layer XOR and XNOR nets cannot converge and reach a cycle,
        # so their RMS histories come out of the cycle fast-forward.
        handed = []
        _counting(monkeypatch, runner, "_run_group_in_worker", handed, "rvnn")
        config = ExperimentConfig(
            experiment="gates",
            seeds=(0, 1),
            net_params={
                "rvnn": {"max_epochs": 3_000},
                "cvnn": {"max_epochs": 20},
                "qnn": {"max_epochs": 20},
            },
        )
        reports = run_gates(config)
        [(_, (_, group), _)] = handed
        direct = runner._run_group(config, group)
        assert len(direct) == 12
        assert not all(r.converged for r in direct)
        assert [r for r in reports if r.net == "rvnn"] == direct
