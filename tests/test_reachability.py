"""Every function under src/qnnbench is reached by a run of the program, or
is named below with the reason it stays.

One subprocess drives the command line through short versions of all three
experiments and one run on a malformed Iris CSV. A sitecustomize module on
its PYTHONPATH installs a profiler hook in every interpreter that starts,
before anything imports qnnbench, so calls made at import time count and
the rvnn worker each table spawns is traced too; each interpreter writes
the qnnbench functions it called when it exits. A function that no run
reaches and that is not named here is either dead or wants its reason
written down."""

import ast
import json
import os
import subprocess
import sys

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))
PACKAGE = os.path.join(SRC, "qnnbench")

UNREACHED = {
    # Oracle: the one-pair backpropagation the lockstep rvnn step is tested
    # against, itself checked against finite differences.
    "rvnn.pair_gradients",
    # Oracle: the one-schedule batch loss. In test_qnn.py, sequential_armijo,
    # test_fixed_step_is_plain_gradient_descent and
    # test_backtracking_never_raises_the_training_loss score training with
    # it, and BATCH_ENTRIES checks its batch validation.
    "qnn.batch_loss",
    # Oracle: the RK4 integrator every propagator is tested against, which
    # the benchmark also runs on the schedules it trains.
    "quantum.reference_propagate",
    # Benchmark hook: the one-net rvnn training entry, which it wraps.
    "rvnn.train_to_threshold",
    # Benchmark hook: the one-slice propagator, which it wraps.
    "quantum.slice_propagator",
}

SITECUSTOMIZE = """
import atexit, json, os, sys

called = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((os.path.realpath(code.co_filename), code.co_firstlineno))

def dump():
    sys.setprofile(None)
    mine = sorted(c for c in called if c[0].startswith({package!r} + os.sep))
    if mine:
        with open(os.path.join({out!r}, f"called-{{os.getpid()}}.json"), "w") as handle:
            json.dump(mine, handle)

sys.setprofile(hook)
atexit.register(dump)
"""

DRIVER = """
import json, sys
from qnnbench import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
with open(sys.argv[2], "w") as handle:
    json.dump(codes, handle)
"""


def _defs():
    """{(file, first line): dotted name} of every def in the package; the first
    line of a decorated def is its first decorator's, as in its code object."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                qualified = f"{prefix}.{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, line)] = qualified
                    visit(child, qualified)
                elif isinstance(child, ast.ClassDef):
                    visit(child, qualified)

        visit(tree, name[:-3])
    return found


def test_every_function_is_reached_by_a_run_or_named(tmp_path):
    # Every net stops within 2 epochs, except the gates rvnn: within 1,000
    # epochs its single-layer parity trials reach their cycles and stop
    # while the other trials run on, so a lockstep batch shrinks.
    net_params = {net: {"max_epochs": 2} for net in ("rvnn", "cvnn", "qnn")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"net_params": net_params}))
    net_params["rvnn"]["max_epochs"] = 1_000
    gates_config = tmp_path / "gates.json"
    gates_config.write_text(json.dumps({"net_params": net_params}))
    bad_csv = tmp_path / "iris.csv"
    bad_csv.write_text("5.1,3.5,1.4,0.2,unicorn\n")
    nets = ["--nets", "rvnn,cvnn,qnn"]
    common = ["--config", str(config), *nets]
    runs = [
        ["gates", "--config", str(gates_config), *nets, "--seeds", "0,1"],
        ["iris", *common, "--seeds", "0", "--format", "markdown"],
        ["entanglement", *common, "--seeds", "0"],
        ["iris", "--nets", "qnn", "--iris-csv", str(bad_csv)],
    ]
    hooks, out = tmp_path / "hooks", tmp_path / "called"
    hooks.mkdir()
    out.mkdir()
    (hooks / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=os.path.realpath(PACKAGE), out=str(out))
    )
    codes = tmp_path / "codes.json"
    subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(runs), str(codes)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(hooks), SRC])),
        check=True,
        capture_output=True,
        timeout=300,
    )
    assert json.loads(codes.read_text()) == [0, 0, 0, 1]
    # This process and one rvnn worker for each of the three tables.
    files = sorted(out.iterdir())
    assert len(files) == 4
    called = {tuple(pair) for path in files for pair in json.loads(path.read_text())}
    defs = _defs()
    unreached = sorted(name for key, name in defs.items() if key not in called)
    assert sorted(UNREACHED - set(defs.values())) == [], "named functions that are gone"
    assert [name for name in unreached if name not in UNREACHED] == []
    assert sorted(UNREACHED - set(unreached)) == [], "named functions that a run reaches"
