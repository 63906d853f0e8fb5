"""End-to-end acceptance suite.

One test per shipped guarantee. Each prints a single [PASS]/[FAIL] line
carrying the measured numbers next to the tolerance they are held to; run
`pytest tests/test_acceptance.py -v -s` to see the lines for passing tests
too. The heavy benchmark runs are module-scoped fixtures shared across
tests. The million-epoch real-network parity-gate trials settle into a
cycle within about 1,000 epochs, which training.run_epochs skips ahead
through, so the file costs 85-125 s of wall time on a 2-vCPU host,
depending on its load, most of it in the iris (about 40-75 s), witness
(about 20-35 s) and ten-seed witness (about 10 s) runs.
"""

import math
import statistics
import time

import numpy as np
import pytest

from qnnbench import cvnn, qnn, rvnn
from qnnbench.cli import main as cli_main
from qnnbench.quantum import (
    HamiltonianSchedule,
    PureState,
    eof_pure,
    reference_propagate,
    schedule_propagator,
)
from qnnbench.reporting import reports_to_markdown
from qnnbench.runner import (
    DEFAULTS,
    ExperimentConfig,
    run_entanglement,
    run_gates,
    run_iris,
)
from sampling import numeric_rvnn_gradients, random_rho

LINEAR_GATES = ("AND", "NAND", "OR", "NOR")
PARITY_GATES = ("XOR", "XNOR")

# Root seeds for the benchmark fixtures. The structural claims hold across
# most seeds (training from random inits can always land in a bad basin);
# these are pinned so the gate is reproducible run to run.
SEED_GATES = 1
SEED_IRIS = 2
SEED_WITNESS = 1


def check(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Shared benchmark runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gates_full():
    config = ExperimentConfig(experiment="gates", seeds=(SEED_GATES,))
    start = time.perf_counter()
    reports = run_gates(config)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def gates_five():
    # The 20,000-epoch cap on the real net sits far above where it converges
    # on the linearly separable gates (medians land near 10,000), so the
    # medians are unaffected. It caps the epochs the parity trials report;
    # training.run_epochs runs only about 1,000 of them either way, since
    # those trials cycle and cannot converge.
    config = ExperimentConfig(
        experiment="gates",
        seeds=(0, 1, 2, 3, 4),
        net_params={"rvnn": {"max_epochs": 20000}},
    )
    return run_gates(config)


@pytest.fixture(scope="module")
def iris_runs():
    seventy_five = run_iris(ExperimentConfig(experiment="iris", seeds=(SEED_IRIS,)))
    thirty = run_iris(
        ExperimentConfig(
            experiment="iris", nets=("qnn",), seeds=(SEED_IRIS,), train_size=30
        )
    )
    return seventy_five, thirty


@pytest.fixture(scope="module")
def witness_runs():
    four = run_entanglement(
        ExperimentConfig(experiment="entanglement", seeds=(SEED_WITNESS,))
    )
    hundred = run_entanglement(
        ExperimentConfig(
            experiment="entanglement", seeds=(SEED_WITNESS,), train_size=100
        )
    )
    return four, hundred


INIT_SCALES = (1.0, 1.0 + 1e-12, 1.0 - 1e-12)


@pytest.fixture(scope="module")
def witness_ten_seeds():
    """The witness at its defaults over seeds 0-9, the bench's witness
    config. Returns the classical reports, the qnn reports at each scaling
    of every qnn trial's initial schedule in INIT_SCALES, and the (seed,
    scale) of each qnn run whose RMS history rose."""
    classical = run_entanglement(
        ExperimentConfig(
            experiment="entanglement", nets=("rvnn", "cvnn"), seeds=tuple(range(10))
        )
    )
    train = qnn.train
    quantum = {}
    rising = []
    with pytest.MonkeyPatch.context() as patch:
        for scale in INIT_SCALES:

            def perturbed(trainset, config, initial_schedule, readout=qnn.CORRELATION):
                values = initial_schedule.as_array() * scale
                schedule = HamiltonianSchedule.from_array(
                    values, initial_schedule.total_time
                )
                result = train(trainset, config, schedule, readout)
                if np.any(np.diff(result.rms_history) > 0):
                    rising.append((config.seed, scale))
                return result

            patch.setattr(qnn, "train", perturbed)
            quantum[scale] = run_entanglement(
                ExperimentConfig(
                    experiment="entanglement", nets=("qnn",), seeds=tuple(range(10))
                )
            )
    return classical, quantum, rising


# ---------------------------------------------------------------------------
# Quantum core
# ---------------------------------------------------------------------------

def test_propagator_matches_reference_integrator():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        rho = random_rho(rng)
        n_slices = int(rng.integers(1, 6))
        values = rng.uniform(-2.0, 2.0, 5 * n_slices)
        schedule = HamiltonianSchedule.from_array(
            values, float(rng.uniform(0.5, 2.0))
        )
        u = schedule_propagator(schedule)
        direct = u @ rho @ u.conj().T
        stepped = reference_propagate(rho, schedule)
        worst = max(worst, float(np.max(np.abs(direct - stepped))))
    elapsed = time.perf_counter() - start
    check(
        worst <= 1e-6 and elapsed < 10.0,
        "propagator matches the step-integrated reference",
        f"max entry deviation {worst:.3e} (tol 1e-06) over 100 random cases "
        f"in {elapsed:.1f} s (limit 10 s)",
    )


def test_evolution_conserves_state_properties():
    rng = np.random.default_rng(202)
    eye = np.eye(4)
    worst_trace = worst_herm = worst_purity = worst_unitary = 0.0
    for _ in range(1000):
        rho = random_rho(rng)
        n_slices = int(rng.integers(1, 5))
        values = rng.uniform(-10.0, 10.0, 5 * n_slices)
        schedule = HamiltonianSchedule.from_array(
            values, float(rng.uniform(0.2, 2.0))
        )
        u = schedule_propagator(schedule)
        rho = u @ rho @ u.conj().T
        worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_purity = max(worst_purity, abs(np.trace(rho @ rho).real - 1.0))
        worst_unitary = max(
            worst_unitary, float(np.max(np.abs(u @ u.conj().T - eye)))
        )
    worst = max(worst_trace, worst_herm, worst_purity, worst_unitary)
    check(
        worst < 1e-10,
        "evolution conserves trace, Hermiticity, purity, and unitarity",
        f"1000 cases: trace {worst_trace:.1e}, hermiticity {worst_herm:.1e}, "
        f"purity {worst_purity:.1e}, unitarity {worst_unitary:.1e} (tol 1e-10)",
    )


def test_entanglement_of_formation_reference_values():
    iso = 1.0 / math.sqrt(2.0)
    cases = [
        ("basis state", PureState(1.0, 0.0, 0.0, 0.0), 0.0),
        ("Bell state", PureState(iso, 0.0, 0.0, iso), 1.0),
        ("product superposition", PureState(0.5, 0.5, 0.5, 0.5), 0.0),
        (
            "partially entangled",
            PureState(math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)),
            0.64,
        ),
    ]
    worst = max(abs(eof_pure(state) - want) for _, state, want in cases)
    values = ", ".join(
        f"{name} {eof_pure(state):.3f} (want {want:g})" for name, state, want in cases
    )
    check(
        worst <= 1e-12,
        "closed-form entanglement matches the reference quartet",
        f"{values}; max deviation {worst:.1e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# Gate benchmarks
# ---------------------------------------------------------------------------

def test_gate_benchmark_structure(gates_full):
    reports, elapsed = gates_full
    rep = {(r.experiment, r.net): r for r in reports}
    violations = []
    for gate in LINEAR_GATES + PARITY_GATES:
        c = rep[(f"gates:{gate}", "cvnn")]
        if not (c.converged and c.epochs_used <= 5000):
            violations.append(f"cvnn {gate} @{c.epochs_used}")
        q = rep[(f"gates:{gate}", "qnn")]
        if not (q.converged and q.epochs_used <= 500):
            violations.append(f"qnn {gate} @{q.epochs_used}")
    for gate in LINEAR_GATES:
        r = rep[(f"gates:{gate}", "rvnn")]
        if not r.converged:
            violations.append(f"rvnn {gate} did not converge")
    for gate in PARITY_GATES:
        r = rep[(f"gates:{gate}", "rvnn")]
        if r.converged or r.train_rms_pct < 50.0:
            violations.append(f"rvnn {gate} rms {r.train_rms_pct:.2f}%")
    ok = not violations and elapsed < 600.0
    check(
        ok,
        "gate benchmark shape at default budgets",
        "cvnn all six <= 5000 epochs, qnn all six <= 500, rvnn converges on "
        "the linear four and stalls at >= 50% rms on parity; "
        f"wall {elapsed:.0f} s (limit 600); violations: {violations or 'none'}",
    )


def test_linear_gate_epoch_ordering(gates_five):
    reports = gates_five
    summaries = []
    violations = []
    for gate in LINEAR_GATES:
        label = f"gates:{gate}"
        medians = {}
        for net in ("rvnn", "cvnn", "qnn"):
            trials = [r for r in reports if r.experiment == label and r.net == net]
            if len(trials) < 5 or not all(t.converged for t in trials):
                violations.append(f"{net} {gate} non-convergence")
            medians[net] = statistics.median(t.epochs_used for t in trials)
        if not medians["qnn"] < medians["cvnn"] < medians["rvnn"]:
            violations.append(f"{gate} medians {medians}")
        summaries.append(
            f"{gate} {medians['qnn']:g}/{medians['cvnn']:g}/{medians['rvnn']:g}"
        )
    check(
        not violations,
        "median epochs over five seeds order qnn < cvnn < rvnn on linear gates",
        "qnn/cvnn/rvnn medians: " + ", ".join(summaries)
        + (f"; violations: {violations}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# Entanglement witness
# ---------------------------------------------------------------------------

def test_witness_generalization_gap(witness_runs):
    four, hundred = witness_runs
    rep4 = {r.net: r for r in four}
    rep100 = {r.net: r for r in hundred}
    q4, q100 = rep4["qnn"], rep100["qnn"]
    violations = []
    if not (q4.converged and q4.train_rms_pct <= 1.0 and q4.test_rms_pct <= 5.0):
        violations.append(
            f"qnn four-state train {q4.train_rms_pct:.2f}% test {q4.test_rms_pct:.2f}%"
        )
    for net in ("rvnn", "cvnn"):
        c4, c100 = rep4[net], rep100[net]
        if not (c4.test_rms_pct >= 25.0 and c4.test_rms_pct >= 5.0 * q4.test_rms_pct):
            violations.append(f"{net} four-state test {c4.test_rms_pct:.1f}%")
        if not (c100.test_rms_pct < c4.test_rms_pct):
            violations.append(f"{net} hundred-state test did not improve")
        if not (c100.test_rms_pct >= 3.0 * q100.test_rms_pct):
            violations.append(
                f"{net} hundred-state test {c100.test_rms_pct:.1f}% "
                f"vs qnn {q100.test_rms_pct:.2f}%"
            )
    check(
        not violations,
        "witness generalizes from four training states only for the qnn",
        f"four states: qnn train {q4.train_rms_pct:.2f}% test {q4.test_rms_pct:.2f}% "
        f"(need <=1/<=5), rvnn test {rep4['rvnn'].test_rms_pct:.1f}% "
        f"cvnn test {rep4['cvnn'].test_rms_pct:.1f}% (need >=25 and >=5x qnn); "
        f"hundred states: qnn {q100.test_rms_pct:.2f}%, "
        f"rvnn {rep100['rvnn'].test_rms_pct:.1f}% "
        f"cvnn {rep100['cvnn'].test_rms_pct:.1f}% (improved, still >=3x qnn)"
        + (f"; violations: {violations}" if violations else ""),
    )


def test_witness_convergence_survives_a_perturbed_initial_schedule(witness_ten_seeds):
    # A claim must not hinge on the last bits of the initial weights: over
    # ten seeds at the entanglement defaults, scaling each qnn trial's
    # initial schedule by 1 +- 1e-12 leaves `converged` as it was. Epoch
    # counts may move by one where a run stops right at the RMS target.
    assert DEFAULTS["entanglement"]["qnn"]["backtracking"]
    _, quantum, rising = witness_ten_seeds
    outcomes = {}
    for scale in INIT_SCALES:
        for r in quantum[scale]:
            outcomes.setdefault(r.seed, []).append(r.converged)
    flipped = [seed for seed, runs in outcomes.items() if len(set(runs)) != 1]
    check(
        len(outcomes) == 10 and not flipped and not rising,
        "witness convergence is stable under a 1e-12 initial perturbation",
        f"converged per seed (x1, x1+1e-12, x1-1e-12): {outcomes}; "
        f"flipped seeds {flipped}; rising RMS histories {rising}",
    )


# The witness qnn rows at the defaults, seeds 0-9, as (epochs_used,
# converged, train RMS %, test RMS %) to the CSV's four decimals. Each qnn
# row must be the same whichever stacks the line search scores its
# candidates in, and however the gradient shares its slice unitaries.
WITNESS_QNN_ROWS = {
    0: (26, True, "0.9974", "10.8142"),
    1: (45, True, "0.9993", "3.6881"),
    2: (2000, False, "7.4361", "17.4563"),
    3: (8, True, "0.9633", "0.5372"),
    4: (3, True, "0.6669", "4.5084"),
    5: (40, True, "0.9994", "8.1639"),
    6: (2000, False, "2.5495", "26.9463"),
    7: (2000, False, "14.2797", "28.2717"),
    8: (17, True, "0.9466", "14.8876"),
    9: (97, True, "0.9991", "11.3402"),
}


def test_witness_qnn_rows_are_pinned(witness_ten_seeds):
    _, quantum, _ = witness_ten_seeds
    rows = {
        r.seed: (
            r.epochs_used,
            r.converged,
            f"{r.train_rms_pct:.4f}",
            f"{r.test_rms_pct:.4f}",
        )
        for r in quantum[1.0]
    }
    moved = {
        seed: (rows.get(seed), row)
        for seed, row in WITNESS_QNN_ROWS.items()
        if rows.get(seed) != row
    }
    check(
        len(rows) == 10 and not moved,
        "witness qnn rows at the defaults, seeds 0-9, are the pinned rows",
        f"moved rows (found, pinned): {moved}",
    )


def test_witness_qnn_median_beats_the_classical_medians(witness_ten_seeds):
    # The paper's witness claim as a distribution over seeds 0-9 rather
    # than one pinned seed: the qnn's median test RMS is at most half of
    # each classical net's, at every initial scaling in INIT_SCALES.
    classical, quantum, _ = witness_ten_seeds
    medians = {
        net: statistics.median(r.test_rms_pct for r in classical if r.net == net)
        for net in ("rvnn", "cvnn")
    }
    qnn_medians = {
        scale: statistics.median(r.test_rms_pct for r in reports)
        for scale, reports in quantum.items()
    }
    worst = max(qnn_medians.values())
    check(
        len(classical) == 20
        and all(len(reports) == 10 for reports in quantum.values())
        and worst <= 0.5 * min(medians.values()),
        "witness qnn median test RMS is at most half of each classical median",
        f"qnn medians per scaling {qnn_medians}; rvnn {medians['rvnn']:.2f}% "
        f"cvnn {medians['cvnn']:.2f}% (need qnn <= half of each)",
    )


# ---------------------------------------------------------------------------
# Iris classification
# ---------------------------------------------------------------------------

def test_iris_accuracy_floors_and_report_structure(iris_runs):
    seventy_five, thirty = iris_runs
    rep75 = {r.net: r for r in seventy_five}
    rep30 = {r.net: r for r in thirty}
    floors = [
        ("rvnn", rep75["rvnn"].accuracy_pct, 95.0),
        ("cvnn", rep75["cvnn"].accuracy_pct, 95.0),
        ("qnn", rep75["qnn"].accuracy_pct, 90.0),
        ("qnn@30", rep30["qnn"].accuracy_pct, 90.0),
    ]
    violations = [
        f"{name} {acc:.1f}% < {floor:g}%" for name, acc, floor in floors if acc < floor
    ]
    table = reports_to_markdown(list(seventy_five) + list(thirty))
    header = (
        "| net | trials | converged | median epochs "
        "| train RMS % | test RMS % | accuracy % |"
    )
    structure_ok = (
        "## iris:75" in table
        and "## iris:30" in table
        and table.count(header) == 2
        and all(f"| {net} |" in table for net in ("rvnn", "cvnn", "qnn"))
    )
    if not structure_ok:
        violations.append("report table structure")
    check(
        not violations,
        "iris accuracy floors hold and the report emits one table per run",
        "accuracy " + ", ".join(f"{n} {a:.1f}% (floor {f:g}%)" for n, a, f in floors)
        + (f"; violations: {violations}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# Learning-rule properties
# ---------------------------------------------------------------------------

def test_complex_output_correction_is_exact():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        inputs = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.2, 2.0, n)
        target = complex(rng.standard_normal(), rng.standard_normal())
        errors = np.array([target - np.dot(weights, inputs)])
        updated = cvnn._correct(weights[None, :], inputs, errors)[0]
        worst = max(worst, abs(np.dot(updated, inputs) - target))
    check(
        worst <= 1e-10,
        "complex output correction lands exactly on the target",
        f"max post-update residual {worst:.2e} over 1000 cases (tol 1e-10)",
    )


def test_gradient_checks():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for sizes in ((2, 1), (3, 4, 2), (4, 8, 3)):
        net = rvnn.random_stack(sizes, rng)
        pairs = [
            (rng.standard_normal(sizes[0]), rng.uniform(0.1, 0.9, sizes[-1]))
            for _ in range(5)
        ]
        for x, t in pairs:
            analytic_w, analytic_b, _ = rvnn.pair_gradients(net, x, t)
            numeric_w, numeric_b = numeric_rvnn_gradients(net, x, t)
            for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
                rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-8)
                worst_rel = max(worst_rel, float(np.max(rel)))

    rng = np.random.default_rng(78)
    schedule = qnn.random_schedule(2, 1.0, rng)
    rhos = np.stack([random_rho(rng) for _ in range(3)])
    targets = np.array([0.25, 0.75, 0.5])
    h = 8e-3
    arrays = (schedule.as_array(), schedule.dt, rhos, targets)
    g1 = qnn.gradient(*arrays, fd_step=h)
    g2 = qnn.gradient(*arrays, fd_step=h / 2)
    g3 = qnn.gradient(*arrays, fd_step=h / 4)
    ratios = []
    for i in range(g1.size):
        coarse, fine = g1[i] - g2[i], g2[i] - g3[i]
        if abs(fine) < 1e-10 or abs(g2[i]) < 1e-6:
            continue
        ratios.append(coarse / fine)
    richardson_ok = len(ratios) >= 2 and all(abs(r - 4.0) <= 1.0 for r in ratios)

    def loss(schedule):
        stack = schedule.as_array()[None]
        return float(qnn._losses(stack, schedule.dt, rhos, targets, qnn.CORRELATION)[0])

    before = loss(schedule)
    stepped = HamiltonianSchedule.from_array(
        schedule.as_array() - 1e-4 * g2, schedule.total_time
    )
    after = loss(stepped)
    descent_ok = float(np.linalg.norm(g2)) > 1e-6 and after < before

    check(
        worst_rel < 1e-4 and richardson_ok and descent_ok,
        "gradients agree with finite differences and point downhill",
        f"real-net max rel err {worst_rel:.2e} (tol 1e-04); "
        f"schedule-gradient Richardson ratios "
        f"{', '.join(f'{r:.2f}' for r in ratios)} (want 4 +- 1); "
        f"loss {before:.4f} -> {after:.4f} after one step",
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_identical_runs_emit_identical_bytes(tmp_path):
    argv = ["entanglement", "--nets", "qnn", "--seeds", "1", "--epochs", "250"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code1 = cli_main(argv + ["--out", str(first)])
    code2 = cli_main(argv + ["--out", str(second)])
    a, b = first.read_bytes(), second.read_bytes()
    check(
        code1 == 0 and code2 == 0 and a == b,
        "identical configurations emit byte-identical reports",
        f"two runs wrote {len(a)} bytes each, equal: {a == b}",
    )
