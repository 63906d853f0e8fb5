"""The benchmark's layer hooks (bench/workload.py) wrap names on the live
qnnbench modules. This test installs them on a snapshot of those modules,
so that deleting or renaming a name the benchmark wraps fails here rather
than in `bench/run.py --trace 1`."""

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


def test_bench_hooks_wrap_live_names_and_are_undone(monkeypatch):
    spans = _load("spans", monkeypatch)
    workload = _load("workload", monkeypatch)
    lib = {"np": np, **{m.__name__.rsplit(".", 1)[1]: m for m in MODULES}}
    before = {m: _functions(m) for m in MODULES}
    from_array = quantum.HamiltonianSchedule.__dict__["from_array"]
    with pytest.MonkeyPatch.context() as patch:
        for module, functions in before.items():
            for name, fn in functions.items():
                patch.setattr(module, name, fn)
        patch.setattr(quantum.HamiltonianSchedule, "from_array", from_array)
        observed = []
        workload.observe_training(lib, observed)
        recorder = spans.SpanRecorder()
        workload.install_spans(lib, recorder)

        config = runner.ExperimentConfig(
            "entanglement",
            seeds=(3,),
            net_params={net: {"max_epochs": 2} for net in runner.NETS},
        )
        runner.run_experiment(config)
        assert [(net, res.epochs_used) for net, _, res in observed] == [
            ("rvnn", 2),
            ("cvnn", 2),
            ("qnn", 2),
        ]
        # The bench reads the skipped-pair count off the cvnn result.
        assert observed[1][2].skipped == 0
        net, args, result = observed[2]
        assert args["config"].seed == 3
        assert list(args["trainset"]) and args["readout"] is qnn.CORRELATION
        summary = recorder.summary()
        assert summary["rvnn.train"]["calls"] == 1
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
