"""One benchmark workload in one fresh interpreter.

bench/run.py starts this script with BLAS threads pinned to 1 and reads the
JSON object it prints last. The script sets up (imports qnnbench and builds
the workload's datasets), times the workload's table through the public
entry points runner.run_experiment and reporting.emit_report, and checks the
table after the clock stops. With --trace 1 it then runs the table a second
time under the span recorder and derives the per-layer numbers.

--setup-only stops after set-up and prints the monotonic clock reading at
that point, so that the parent can time set-up from process start.
"""

import argparse
import dataclasses
import inspect
import json
import math
import os
import random
import resource
import statistics
import sys
import time

from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Each workload is the paper table of one experiment. The caps below are
# workload inputs passed through net_params; program defaults stay as they
# are. Seeds are base + 0 .. n_seeds - 1.
WORKLOADS = {
    # 6 gates x 3 nets x 3 seeds = 54 trials on 4-row tables; the 20,000
    # epoch rvnn cap is the one the gates_five acceptance fixture uses.
    "gates": {
        "experiment": "gates",
        "n_seeds": 3,
        "train_size": None,
        "net_params": {"rvnn": {"max_epochs": 20000}},
    },
    # One 75-record split, one trial per net: the large per-trial shapes.
    "iris": {
        "experiment": "iris",
        "n_seeds": 1,
        "train_size": 75,
        "net_params": {"rvnn": {"max_epochs": 2000}},
    },
    # Ten seeds of the 4-state witness at program defaults; seed 1 does not
    # converge at this commit and stays in.
    "witness": {
        "experiment": "entanglement",
        "n_seeds": 10,
        "train_size": 4,
        "net_params": {},
    },
}

# The RK4 oracle takes enough substeps per slice that each turns phases by
# at most ORACLE_PHASE_STEP radians (bounding |H| by the sum of its five
# parameter magnitudes). At this step the oracle's own error in train RMS
# reached 2.2e-3 percentage points on the witness schedules, so the oracle
# and the reported value may differ by ORACLE_TOL_PCT points.
ORACLE_MIN_SUBSTEPS = 20
ORACLE_PHASE_STEP = 0.05
ORACLE_TOL_PCT = 1e-2


def _import_library():
    sys.path.insert(0, SRC)
    import qnnbench

    if not os.path.abspath(qnnbench.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qnnbench imported from {qnnbench.__file__}, not {SRC}")
    import numpy
    from qnnbench import cvnn, qnn, quantum, reporting, runner, rvnn, tasks

    return {
        "np": numpy,
        "cvnn": cvnn,
        "qnn": qnn,
        "quantum": quantum,
        "reporting": reporting,
        "runner": runner,
        "rvnn": rvnn,
        "tasks": tasks,
    }


# ---------------------------------------------------------------------------
# Set-up: the workload config and the datasets the checks need
# ---------------------------------------------------------------------------


def build_config(lib, workload, base_seed):
    spec = WORKLOADS[workload]
    seeds = tuple(base_seed + i for i in range(spec["n_seeds"]))
    return lib["runner"].ExperimentConfig(
        experiment=spec["experiment"],
        seeds=seeds,
        train_size=spec["train_size"],
        net_params=spec["net_params"],
    )


def build_datasets(lib, config):
    """Expected rows with their epoch caps, and the qnn training set and
    readout of every qnn trial, keyed by (experiment label, seed)."""
    runner, tasks, qnn = lib["runner"], lib["tasks"], lib["qnn"]
    qnn_sets = {}
    if config.experiment == "gates":
        for name in tasks.GATE_NAMES:
            pairs, readout = tasks.gate_encode_qnn(tasks.gate_dataset(name))
            for seed in config.seeds:
                qnn_sets[(f"gates:{name}", seed)] = (pairs, readout)
    elif config.experiment == "iris":
        records = tasks.load_iris(config.iris_path)
        n_train = config.train_size or runner.DEFAULT_TRAIN_SIZE["iris"]
        for seed in config.seeds:
            train, _ = tasks.split_stratified(records, n_train, seed)
            pairs = [tasks.iris_encode_qnn(r) for r in train]
            qnn_sets[(f"iris:{n_train}", seed)] = (pairs, qnn.CORRELATION)
    else:
        n_train = config.train_size or runner.DEFAULT_TRAIN_SIZE["entanglement"]
        for seed in config.seeds:
            raw = tasks.witness_dataset(n_train, seed)
            pairs = [tasks.witness_encode_qnn(p) for p in raw]
            qnn_sets[(f"entanglement:{n_train}", seed)] = (pairs, qnn.CORRELATION)
    labels = sorted({label for label, _ in qnn_sets})
    caps = {net: config.resolved(net)["max_epochs"] for net in config.nets}
    expected = {
        (label, net, seed): caps[net]
        for label in labels
        for net in config.nets
        for seed in config.seeds
    }
    return expected, qnn_sets


# ---------------------------------------------------------------------------
# Observing train entry points and tracing layers
# ---------------------------------------------------------------------------


def observe_training(lib, sink):
    """Wrap the three train entry points so that every call appends
    (net, bound arguments, result) to sink: one wrapper call per trial."""
    entries = (
        ("rvnn", lib["rvnn"], "train_to_threshold"),
        ("cvnn", lib["cvnn"], "train_to_threshold"),
        ("qnn", lib["qnn"], "train"),
    )
    for net, module, attr in entries:
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        def observed(*args, _net=net, _fn=fn, _sig=signature, **kwargs):
            result = _fn(*args, **kwargs)
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            sink.append((_net, bound.arguments, result))
            return result

        setattr(module, attr, observed)


def install_spans(lib, recorder):
    """Wrap the public functions at each layer boundary with spans. Names
    imported into another module (qnn's schedule_propagator, runner's
    scoring helpers) are wrapped where they are looked up."""
    runner, qnn, quantum, tasks, reporting = (
        lib["runner"], lib["qnn"], lib["quantum"], lib["tasks"], lib["reporting"]
    )

    def wrap(module, attr, name):
        setattr(module, attr, recorder.wrap(name, getattr(module, attr)))

    wrap(runner, "run_experiment", "runner.run")
    wrap(lib["rvnn"], "train_to_threshold", "rvnn.train")
    wrap(lib["cvnn"], "train_to_threshold", "cvnn.train")
    wrap(qnn, "train", "qnn.train")
    wrap(qnn, "gradient", "qnn.gradient")
    wrap(qnn, "batch_outputs", "qnn.batch_outputs")
    wrap(qnn, "states_to_rhos", "qnn.states_to_rhos")
    propagator = recorder.wrap("quantum.schedule_propagator", quantum.schedule_propagator)
    quantum.schedule_propagator = propagator
    qnn.schedule_propagator = propagator
    wrap(quantum, "slice_propagator", "quantum.slice_propagator")
    build = recorder.wrap(
        "quantum.schedule_build", quantum.HamiltonianSchedule.from_array.__func__
    )
    quantum.HamiltonianSchedule.from_array = classmethod(build)
    for attr in (
        "gate_dataset",
        "load_iris",
        "feature_bounds",
        "split_stratified",
        "witness_dataset",
        "witness_testset",
    ):
        wrap(tasks, attr, "tasks.data")
    for attr in (
        "gate_encode_rvnn",
        "gate_encode_cvnn",
        "gate_encode_qnn",
        "iris_encode_onehot",
        "iris_encode_cvnn",
        "iris_encode_qnn",
        "witness_encode_rvnn",
        "witness_encode_cvnn",
        "witness_encode_qnn",
    ):
        wrap(tasks, attr, "tasks.encode")
    wrap(runner, "rms_percent", "reporting.score")
    wrap(runner, "accuracy_percent", "reporting.score")
    wrap(reporting, "emit_report", "reporting.emit")


# ---------------------------------------------------------------------------
# The timed table
# ---------------------------------------------------------------------------


def run_table(lib, config):
    """The timed region: first trial call to the emitted CSV."""
    start = time.monotonic()
    reports = lib["runner"].run_experiment(config)
    text = lib["reporting"].emit_report(reports, "csv")
    return text, time.monotonic() - start


def parse_csv(lib, text):
    """CSV text -> ({(experiment, net, seed): row dict}, [problems])."""
    lines = text.splitlines()
    problems = []
    if not lines or tuple(lines[0].split(",")) != lib["reporting"].CSV_COLUMNS:
        return {}, ["CSV header differs from reporting.CSV_COLUMNS"]
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(lib["reporting"].CSV_COLUMNS):
            problems.append(f"malformed CSV line {line!r}")
            continue
        row = dict(zip(lib["reporting"].CSV_COLUMNS, fields))
        row["line"] = line
        try:
            key = (row["experiment"], row["net"], int(row["seed"]))
        except ValueError:
            problems.append(f"bad seed in {line!r}")
            continue
        if key in rows:
            problems.append(f"duplicate row {key}")
        rows[key] = row
    return rows, problems


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def check_row(row, cap, experiment):
    """Problems with one CSV row, as strings; empty when the row is sound."""
    problems = []
    try:
        epochs = int(row["epochs_used"])
        train = _number(row["train_rms_pct"])
        if not 0.0 <= train <= 100.0:
            problems.append(f"train_rms_pct {train} outside [0, 100]")
        if not 1 <= epochs <= cap:
            problems.append(f"epochs_used {epochs} outside [1, {cap}]")
        if row["converged"] not in ("true", "false"):
            problems.append(f"converged is {row['converged']!r}")
        elif row["converged"] == "false" and epochs != cap:
            problems.append(f"not converged but stopped at {epochs} of {cap} epochs")
        has_test = experiment != "gates"
        if has_test != bool(row["test_rms_pct"]):
            problems.append("test_rms_pct presence is wrong for this experiment")
        elif has_test and not 0.0 <= _number(row["test_rms_pct"]) <= 100.0:
            problems.append("test_rms_pct outside [0, 100]")
        has_acc = experiment == "iris"
        if has_acc != bool(row["accuracy_pct"]):
            problems.append("accuracy_pct presence is wrong for this experiment")
        elif has_acc and not 0.0 <= _number(row["accuracy_pct"]) <= 100.0:
            problems.append("accuracy_pct outside [0, 100]")
        if row["wall_time_ms"] != "0.0":
            problems.append("wall_time_ms is set although timing is off")
    except ValueError as exc:
        problems.append(str(exc))
    return problems


def oracle_rms_pct(lib, schedule, pairs, readout):
    """Train RMS of a trained schedule re-scored with the RK4 integrator."""
    np, quantum = lib["np"], lib["quantum"]
    strength = max(sum(abs(v) for v in s.as_tuple()) for s in schedule.slices)
    substeps = max(
        ORACLE_MIN_SUBSTEPS, math.ceil(schedule.dt * strength / ORACLE_PHASE_STEP)
    )
    evolved = np.stack(
        [
            quantum.reference_propagate(quantum.pure_to_density(s), schedule, substeps)
            for s, _ in pairs
        ]
    )
    outs = readout.values(evolved)
    targets = np.array([t for _, t in pairs], dtype=float)
    return 100.0 * float(np.sqrt(np.mean((outs - targets) ** 2)))


def check_qnn_schedules(lib, observed, rows, qnn_sets):
    """Re-score each trained qnn schedule with the oracle; returns
    {row key: [problems]} and the largest final parameter norm."""
    np = lib["np"]
    by_targets = {}
    for (label, seed), (pairs, _) in qnn_sets.items():
        by_targets[(tuple(t for _, t in pairs), seed)] = label
    problems = {}
    norm_max = 0.0
    for net, args, result in observed:
        if net != "qnn":
            continue
        seed = args["config"].seed
        trainset = list(args["trainset"])
        label = by_targets.get((tuple(t for _, t in trainset), seed))
        if label is None:
            problems.setdefault(("?", "qnn", seed), []).append(
                "qnn.train called with a training set no trial should use"
            )
            continue
        key = (label, "qnn", seed)
        pairs, readout = qnn_sets[(label, seed)]
        if trainset != list(pairs):
            problems.setdefault(key, []).append("trained on the wrong data")
            continue
        norm_max = max(norm_max, float(np.linalg.norm(result.schedule.as_array())))
        if key not in rows:
            continue
        oracle = oracle_rms_pct(lib, result.schedule, pairs, args["readout"])
        reported = float(rows[key]["train_rms_pct"])
        if abs(oracle - reported) > ORACLE_TOL_PCT:
            problems.setdefault(key, []).append(
                f"oracle train RMS {oracle:.6f} vs reported {reported}"
            )
    return problems, norm_max


def check_table(lib, config, text, observed, expected, qnn_sets):
    """All output checks. Returns the parsed rows, {row key: [problems]}
    for failed trials, table-level problems and the largest qnn parameter
    norm."""
    rows, problems = parse_csv(lib, text)
    failed = {}
    for key in rows.keys() - expected.keys():
        failed.setdefault(key, []).append("unexpected row")
    for key, cap in expected.items():
        if key not in rows:
            failed.setdefault(key, []).append("row missing")
            continue
        row_problems = check_row(rows[key], cap, config.experiment)
        if row_problems:
            failed.setdefault(key, []).extend(row_problems)
    oracle_problems, norm_max = check_qnn_schedules(lib, observed, rows, qnn_sets)
    for key, items in oracle_problems.items():
        failed.setdefault(key, []).extend(items)
    qnn_calls = sum(1 for net, _, _ in observed if net == "qnn")
    qnn_rows = sum(1 for key in expected if key[1] == "qnn")
    if qnn_calls != qnn_rows:
        problems.append(f"{qnn_calls} qnn.train calls for {qnn_rows} qnn trials")
    return rows, failed, problems, norm_max


def compare_lines(rows, other_rows, keys, why):
    """{key: [why]} for rows whose CSV line differs between two passes."""
    return {
        key: [why]
        for key in keys
        if key not in other_rows or other_rows[key]["line"] != rows[key]["line"]
    }


def quality(rows, experiment):
    """The deterministic table metrics, from the CSV rows."""
    values = list(rows.values())
    n = len(values)
    train = [float(r["train_rms_pct"]) for r in values]
    out = {
        "train_rms_pct_mean": sum(train) / n,
        "converged_frac": sum(r["converged"] == "true" for r in values) / n,
    }
    if experiment == "gates":
        # A gate's four truth-table rows are its whole input space, so the
        # trained table is also the held-out set.
        out["test_rms_pct_mean"] = out["train_rms_pct_mean"]
    else:
        out["test_rms_pct_mean"] = sum(float(r["test_rms_pct"]) for r in values) / n
    if experiment == "iris":
        out["accuracy_pct_mean"] = sum(float(r["accuracy_pct"]) for r in values) / n
    return out


def rows_moved(rows, workload, base_seed):
    """Rows whose epochs_used, converged or RMS columns differ from the
    golden table recorded for base seed 0; None for other base seeds."""
    if base_seed != 0:
        return None
    path = os.path.join(HERE, "golden", f"{workload}.csv")
    with open(path, encoding="utf-8") as handle:
        golden = {}
        for line in handle.read().splitlines()[1:]:
            f = line.split(",")
            golden[(f[0], f[1], int(f[2]))] = tuple(f[3:7])
    moved = 0
    for key in golden.keys() | rows.keys():
        row = rows.get(key)
        now = None if row is None else tuple(
            row[c] for c in ("epochs_used", "converged", "train_rms_pct", "test_rms_pct")
        )
        moved += now != golden.get(key)
    return moved


# ---------------------------------------------------------------------------
# Per-layer numbers from the traced pass
# ---------------------------------------------------------------------------


def layer_metrics(lib, summary, observed, traced_wall, untraced_wall):
    np = lib["np"]

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out = {
        "runner.trials": len(observed),
        "runner.self_s": summary.get("runner.run", {}).get("self_s", 0.0),
    }
    for net in ("rvnn", "cvnn", "qnn"):
        results = [res for n, _, res in observed if n == net]
        epochs = sum(r.epochs_used for r in results)
        done = sum(r.epochs_used for r in results if r.converged)
        out[f"{net}.train_s"] = total(f"{net}.train")
        out[f"{net}.epochs"] = epochs
        out[f"{net}.converged_epoch_frac"] = done / epochs if epochs else 0.0
    out["rvnn.epoch_us"] = 1e6 * out["rvnn.train_s"] / max(out["rvnn.epochs"], 1)
    out["cvnn.epoch_us"] = 1e6 * out["cvnn.train_s"] / max(out["cvnn.epochs"], 1)
    out["cvnn.skipped_pairs"] = sum(
        res.skipped for n, _, res in observed if n == "cvnn"
    )
    out["qnn.epoch_ms"] = 1e3 * out["qnn.train_s"] / max(out["qnn.epochs"], 1)
    out["qnn.gradient_s"] = total("qnn.gradient")
    out["qnn.gradient_calls"] = calls("qnn.gradient")
    out["qnn.loss_evals"] = calls("qnn.batch_outputs")
    out["qnn.batch_outputs_s"] = total("qnn.batch_outputs")
    out["qnn.states_to_rhos_calls"] = calls("qnn.states_to_rhos")
    out["qnn.states_to_rhos_s"] = total("qnn.states_to_rhos")
    out["qnn.param_norm_max"] = max(
        (
            float(np.linalg.norm(res.schedule.as_array()))
            for n, _, res in observed
            if n == "qnn"
        ),
        default=0.0,
    )
    out["quantum.schedule_propagator_calls"] = calls("quantum.schedule_propagator")
    out["quantum.schedule_propagator_s"] = total("quantum.schedule_propagator")
    out["quantum.eigh_calls"] = calls("quantum.slice_propagator")
    out["quantum.slice_propagator_s"] = total("quantum.slice_propagator")
    out["quantum.schedule_builds"] = calls("quantum.schedule_build")
    out["quantum.schedule_build_s"] = total("quantum.schedule_build")
    out["tasks.data_s"] = total("tasks.data")
    out["tasks.encode_calls"] = calls("tasks.encode")
    out["tasks.encode_s"] = total("tasks.encode")
    out["reporting.score_s"] = total("reporting.score")
    out["reporting.emit_s"] = total("reporting.emit")
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


# ---------------------------------------------------------------------------


def versions(lib):
    np = lib["np"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = _import_library()
    config = build_config(lib, args.workload, args.base_seed)
    expected, qnn_sets = build_datasets(lib, config)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0

    # --seed fixes the order in which nets and seeds are handed to the
    # runner; trials are seeded per trial, so the table must not change.
    order = random.Random(args.seed)
    nets, seeds = list(config.nets), list(config.seeds)
    order.shuffle(nets)
    order.shuffle(seeds)
    timed_config = dataclasses.replace(config, nets=tuple(nets), seeds=tuple(seeds))

    observed = []
    observe_training(lib, observed)
    text, wall = run_table(lib, timed_config)
    walls = [wall]
    extra_texts = []
    while args.trace == 0 and sum(walls) < args.seconds:
        more, wall = run_table(lib, timed_config)
        walls.append(wall)
        extra_texts.append(more)
    n_observed = len(observed) // len(walls)
    table_observed = observed[:n_observed]

    rows, failed, problems, norm_max = check_table(
        lib, config, text, table_observed, expected, qnn_sets
    )
    if not rows:
        raise SystemExit(f"the table has no rows: {problems}")

    def merge(found):
        for key, items in found.items():
            failed.setdefault(key, []).extend(items)

    for more in extra_texts:
        more_rows, _ = parse_csv(lib, more)
        merge(compare_lines(rows, more_rows, rows, "differs between repeated passes"))

    result = {"workload": args.workload, "versions": versions(lib)}
    if args.trace:
        recorder = SpanRecorder()
        install_spans(lib, recorder)
        del observed[:]
        traced_text, traced_wall = run_table(lib, timed_config)
        traced_rows, _ = parse_csv(lib, traced_text)
        merge(compare_lines(rows, traced_rows, rows, "differs in the traced pass"))
        summary = recorder.summary()
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace_{args.workload}.npz")
        recorder.save(trace_path)
        result["layers"] = layer_metrics(lib, summary, observed, traced_wall, walls[0])
        result["spans"] = {"count": len(recorder), "file": os.path.relpath(trace_path, ROOT)}
        result["self_s"] = {k: v["self_s"] for k, v in sorted(summary.items())}
    else:
        # Repeat the qnn trials of one seed: the chaotic fixed-step qnn
        # descent is where nondeterminism would show first.
        repeat_seed = config.seeds[args.seed % len(config.seeds)]
        del observed[:]
        repeat_config = dataclasses.replace(config, nets=("qnn",), seeds=(repeat_seed,))
        repeat_text, _ = run_table(lib, repeat_config)
        repeat_rows, _ = parse_csv(lib, repeat_text)
        keys = [k for k in rows if k[1] == "qnn" and k[2] == repeat_seed]
        merge(compare_lines(rows, repeat_rows, keys, "differs when repeated"))

    result.update(
        {
            "wall_s": statistics.median(walls),
            "passes": len(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": len(expected),
            "failed": sorted([list(k), v] for k, v in failed.items()),
            "problems": problems,
            "quality": quality(rows, config.experiment),
            "rows_moved": rows_moved(rows, args.workload, args.base_seed),
            "skipped_pairs": sum(
                res.skipped for n, _, res in table_observed if n == "cvnn"
            ),
            "param_norm_max": norm_max,
            "csv": text,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
