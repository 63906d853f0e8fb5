"""The benchmark (bench/workload.py) wraps names on the live qnnbench modules
and checks every table it times. These tests install its hooks on a snapshot
of those modules and run its table checks on short runs, so that deleting or
renaming a name the benchmark wraps, or a row the benchmark would count as
failed, fails here rather than in `bench/run.py`."""

import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

from qnnbench import cvnn, qnn, quantum, reporting, runner, rvnn, tasks

BENCH = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "bench"))
MODULES = (cvnn, qnn, quantum, reporting, runner, rvnn, tasks)


def _load(name, monkeypatch):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _functions(module):
    return {k: v for k, v in vars(module).items() if inspect.isfunction(v)}


def _library():
    return {"np": np, **{m.__name__.rsplit(".", 1)[1]: m for m in MODULES}}


def _undo_on_exit(patch):
    """Record every module function on patch, so that whatever wraps them
    inside the patch context is undone when it exits."""
    for module in MODULES:
        for name, fn in _functions(module).items():
            patch.setattr(module, name, fn)


def _short_config(experiment, train_size=None):
    return runner.ExperimentConfig(
        experiment,
        seeds=(3,),
        train_size=train_size,
        net_params={net: {"max_epochs": 2} for net in runner.NETS},
    )


def test_bench_hooks_wrap_live_names_and_are_undone(monkeypatch):
    spans = _load("spans", monkeypatch)
    workload = _load("workload", monkeypatch)
    lib = _library()
    before = {m: _functions(m) for m in MODULES}
    from_array = quantum.HamiltonianSchedule.__dict__["from_array"]
    with pytest.MonkeyPatch.context() as patch:
        _undo_on_exit(patch)
        patch.setattr(quantum.HamiltonianSchedule, "from_array", from_array)
        observed = []
        workload.observe_training(lib, observed)
        recorder = spans.SpanRecorder()
        workload.install_spans(lib, recorder)

        runner.run_experiment(_short_config("entanglement"))
        # The runner trains rvnn trials through rvnn.train_lockstep, which
        # the bench does not wrap: it observes no rvnn trial and records no
        # rvnn.train span, so its rvnn metrics read 0.
        assert [(net, res.epochs_used) for net, _, res in observed] == [
            ("cvnn", 2),
            ("qnn", 2),
        ]
        # The bench reads the skipped-pair count off the cvnn result.
        assert observed[0][2].skipped == 0
        net, args, result = observed[1]
        assert args["config"].seed == 3
        assert list(args["trainset"]) and args["readout"] is qnn.CORRELATION
        summary = recorder.summary()
        assert summary["rvnn.train"]["calls"] == 0
        assert summary["cvnn.train"]["calls"] == 1
        # train must reach the traced gradient once per epoch.
        assert summary["qnn.gradient"]["calls"] == result.epochs_used
        for name in (
            "runner.run",
            "qnn.train",
            "qnn.gradient",
            "quantum.schedule_build",
            "tasks.encode",
            "reporting.score",
        ):
            assert summary[name]["calls"] >= 1
    assert {m: _functions(m) for m in MODULES} == before
    assert quantum.HamiltonianSchedule.__dict__["from_array"] is from_array


@pytest.mark.parametrize(
    "experiment, train_size",
    [("gates", None), ("iris", 12), ("entanglement", None)],
    ids=["gates", "iris", "entanglement"],
)
def test_bench_table_checks_pass_on_short_runs(monkeypatch, experiment, train_size):
    _load("spans", monkeypatch)
    workload = _load("workload", monkeypatch)
    lib = _library()
    config = _short_config(experiment, train_size)
    expected, qnn_sets = workload.build_datasets(lib, config)
    observed = []
    with pytest.MonkeyPatch.context() as patch:
        _undo_on_exit(patch)
        workload.observe_training(lib, observed)
        text, _ = workload.run_table(lib, config)
    rows, failed, problems, _ = workload.check_table(
        lib, config, text, observed, expected, qnn_sets
    )
    assert rows and rows.keys() == expected.keys()
    assert failed == {}
    assert problems == []
