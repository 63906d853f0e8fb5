"""Benchmark task definitions: gate tables, Iris ingestion, witness datasets.

A gate task is a `GateTask`, and every gate encoder returns `(pairs,
readout)`, with None for the rvnn's readout. An iris record is `(features,
species)`: four floats in `FEATURE_NAMES` order and the species' index in
`SPECIES_ORDER`. A witness pair is `(state, target)`: a `PureState` and its
entanglement of formation, which is already the qnn's training pair.

Each task knows how to present itself to the three network families. Gates
feed raw bits to the real net, circle-mapped bits to the complex net, and
computational basis states to the quantum net. The quantum gate encodings also
carry the measurement functional the task is read out with: the parity gates
keep the squared-correlation readout, while AND/OR/NAND/NOR use basis-state
projectors, because the squared correlation summed over the four basis inputs
is invariant under any schedule and those four tables are unreachable with it.
A pure state is four nonnegative amplitudes, so its density matrix is real
and the classical witness encodings read its real parts whole.
"""

import importlib.resources
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import cvnn, qnn
from .errors import ValidationError
from .quantum import PureState, eof_pure, pure_to_density

BIT_ROWS = ((0, 0), (0, 1), (1, 0), (1, 1))

GATE_TABLES: Dict[str, Tuple[int, int, int, int]] = {
    "AND": (0, 0, 0, 1),
    "NAND": (1, 1, 1, 0),
    "OR": (0, 1, 1, 1),
    "NOR": (1, 0, 0, 0),
    "XOR": (0, 1, 1, 0),
    "XNOR": (1, 0, 0, 1),
}

GATE_NAMES = tuple(GATE_TABLES)

# Gates whose truth table is a parity of the inputs; they stay on the
# correlation readout (QNN) and the doubled-angle target codec (CVNN).
PARITY_GATES = ("XOR", "XNOR")

SPECIES_ORDER = ("setosa", "versicolor", "virginica")
FEATURE_NAMES = ("sepal_length", "sepal_width", "petal_length", "petal_width")

_BASIS_STATES = (
    PureState(1.0, 0.0, 0.0, 0.0),
    PureState(0.0, 1.0, 0.0, 0.0),
    PureState(0.0, 0.0, 1.0, 0.0),
    PureState(0.0, 0.0, 0.0, 1.0),
)

# Projector readouts picking out exactly the basis states a gate maps to 1.
_GATE_READOUTS = {
    "AND": qnn.basis_projector(3),
    "NAND": qnn.basis_projector(0, 1, 2),
    "OR": qnn.basis_projector(1, 2, 3),
    "NOR": qnn.basis_projector(0),
}


@dataclass(frozen=True)
class GateTask:
    name: str
    pairs: Tuple[Tuple[Tuple[int, int], int], ...]


def gate_dataset(name: str) -> GateTask:
    if name not in GATE_TABLES:
        raise ValidationError(f"unknown gate {name!r}")
    table = GATE_TABLES[name]
    return GateTask(name, tuple(zip(BIT_ROWS, table)))


def gate_encode_rvnn(task: GateTask):
    pairs = [
        (np.array(bits, dtype=float), np.array([float(t)]))
        for bits, t in task.pairs
    ]
    return pairs, None


def gate_encode_cvnn(task: GateTask):
    """Returns (pairs, readout). Parity gates get the two-candidate doubled
    angle codec; a single layer cannot separate them on plain targets."""
    periodic = task.name in PARITY_GATES
    pairs = []
    for (b1, b2), t in task.pairs:
        x = np.array([cvnn.map_scalar(b1), cvnn.map_scalar(b2)])
        spec = [cvnn.periodic_candidates(t)] if periodic else [cvnn.map_scalar(t)]
        pairs.append((x, spec))
    readout = cvnn.doubled_angle_readout if periodic else cvnn.unmap
    return pairs, readout


def gate_encode_qnn(task: GateTask):
    """Returns (pairs, readout): bit pair (p,q) becomes the basis state |pq>."""
    pairs = [
        (_BASIS_STATES[2 * p + q], float(t)) for (p, q), t in task.pairs
    ]
    readout = _GATE_READOUTS.get(task.name, qnn.CORRELATION)
    return pairs, readout


# ---------------------------------------------------------------------------
# Iris
# ---------------------------------------------------------------------------

def bundled_iris_path():
    return importlib.resources.files("qnnbench").joinpath("data/iris.csv")


def _parse_species(raw: str, line_no: int) -> int:
    name = raw.strip().lower()
    if name.startswith("iris-"):
        name = name[len("iris-"):]
    if name not in SPECIES_ORDER:
        raise ValidationError(f"line {line_no}: unknown species {raw.strip()!r}")
    return SPECIES_ORDER.index(name)


def load_iris(path=None):
    """Parse the Iris CSV (header optional) and check the canonical totals."""
    source = bundled_iris_path() if path is None else path
    try:
        with open(source, encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc}")
    records = []
    seen_content = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_content and fields and not _is_number(fields[0]):
            seen_content = True
            continue  # optional header row
        seen_content = True
        if len(fields) != 5:
            raise ValidationError(f"line {line_no}: expected 5 fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields[:4]]
        except ValueError:
            raise ValidationError(f"line {line_no}: non-numeric feature in {line!r}")
        if any(not np.isfinite(v) or v <= 0 for v in values):
            raise ValidationError(f"line {line_no}: features must be positive")
        records.append((tuple(values), _parse_species(fields[4], line_no)))
    if len(records) != 150:
        raise ValidationError(f"expected 150 records, found {len(records)}")
    for index, species in enumerate(SPECIES_ORDER):
        count = sum(1 for _, s in records if s == index)
        if count != 50:
            raise ValidationError(f"expected 50 {species}, found {count}")
    return records


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def split_stratified(records, n_train: int, seed: int):
    """Seeded per-species split: n_train/3 to train, the complement (capped
    at 25 per species) to test, so shrinking the training set keeps a fixed
    75-record test set whenever enough records remain."""
    if n_train % 3 != 0:
        raise ValidationError("n_train must divide evenly across 3 species")
    if not 3 <= n_train <= 147:
        raise ValidationError("n_train must lie in [3, 147]")
    per_species = n_train // 3
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    train, test = [], []
    for index in range(len(SPECIES_ORDER)):
        group = [r for r in records if r[1] == index]
        order = rng.permutation(len(group))
        chosen = [group[i] for i in order]
        train.extend(chosen[:per_species])
        test.extend(chosen[per_species : per_species + 25])
    return train, test


def feature_bounds(records):
    """Per-feature (min, max) over the full dataset; frozen before splitting
    so the scaling cannot drift when the training size changes. A feature
    that takes one value throughout has no scale and is rejected."""
    table = np.array([features for features, _ in records])
    mins, maxs = table.min(axis=0), table.max(axis=0)
    for name, low, high in zip(FEATURE_NAMES, mins, maxs):
        if low == high:
            raise ValidationError(f"feature {name} is {low:g} on every record")
    return mins, maxs


def iris_encode_onehot(record, bounds):
    features, species = record
    mins, maxs = bounds
    scaled = (np.array(features) - mins) / (maxs - mins)
    target = np.zeros(3)
    target[species] = 1.0
    return scaled, target


def iris_encode_cvnn(record, bounds):
    scaled, target = iris_encode_onehot(record, bounds)
    x = np.array([cvnn.map_scalar(v) for v in scaled])
    spec = [cvnn.map_scalar(v) for v in target]
    return x, spec


QNN_TARGET_WEIGHTS = (0.01, 0.01, 1.0, 1.8)


def iris_encode_qnn(record):
    """Features become the amplitudes of a pure state; the target is a
    fixed quadratic score of the normalized amplitudes that happens to order
    the species setosa < versicolor < virginica."""
    state = PureState.from_amplitudes(record[0])
    amps2 = np.array([state.a, state.b, state.c, state.d]) ** 2
    target = float(np.dot(QNN_TARGET_WEIGHTS, amps2))
    return state, target


# ---------------------------------------------------------------------------
# Entanglement witness
# ---------------------------------------------------------------------------

INV_SQRT2 = 1.0 / math.sqrt(2.0)

_CANONICAL_WITNESS_STATES = (
    PureState(1.0, 0.0, 0.0, 0.0),
    PureState(INV_SQRT2, 0.0, 0.0, INV_SQRT2),
    PureState(0.5, 0.5, 0.5, 0.5),
    PureState(math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)),
)


def sample_pure_state(rng) -> PureState:
    """A state whose amplitudes are the absolute values of a 4-dimensional
    standard normal, normalized."""
    rng = np.random.default_rng(rng)
    return PureState.from_amplitudes(np.abs(rng.standard_normal(4)))


def witness_dataset(n: int, seed: int):
    """The canonical quartet (unentangled, Bell, product superposition,
    partially entangled), padded with seeded samples beyond 4."""
    if n < 1:
        raise ValidationError("need at least one witness pair")
    states = list(_CANONICAL_WITNESS_STATES[:n])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    while len(states) < n:
        states.append(sample_pure_state(rng))
    return [(s, eof_pure(s)) for s in states]


def witness_testset(n: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    states = [sample_pure_state(rng) for _ in range(n)]
    return [(s, eof_pure(s)) for s in states]


def witness_encode_rvnn(pair):
    """The 16 density-matrix entries, flattened; real parts only, which loses
    nothing because a state's amplitudes are real."""
    state, target = pair
    entries = pure_to_density(state).real.reshape(-1)
    return entries, np.array([target])


def witness_encode_cvnn(pair):
    """Pure-state density entries are products of two amplitudes in
    [0, 1], so each entry rides the unit circle through the scalar mapping;
    a raw complex encoding would put sparse states' zero entries at the
    origin, where the inverse-signal rule cannot update."""
    entries, target = witness_encode_rvnn(pair)
    x = np.array([cvnn.map_scalar(v) for v in entries])
    spec = [cvnn.map_scalar(float(target[0]))]
    return x, spec


def witness_encode_qnn(pair):
    """The pair is already the qnn's (state, target)."""
    return pair
