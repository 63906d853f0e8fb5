"""Tests for task definitions: gate tables and encodings, Iris loading and
splitting, and the entanglement-witness datasets."""

import numpy as np
import pytest

from qnnbench import cvnn, qnn, runner, tasks
from qnnbench.errors import ValidationError
from qnnbench.quantum import PureState, eof_pure, pure_to_density


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

GATE_OPS = {
    "AND": lambda p, q: p & q,
    "NAND": lambda p, q: 1 - (p & q),
    "OR": lambda p, q: p | q,
    "NOR": lambda p, q: 1 - (p | q),
    "XOR": lambda p, q: p ^ q,
    "XNOR": lambda p, q: 1 - (p ^ q),
}


class TestGates:
    def test_every_truth_table_matches_the_boolean_operator(self):
        for name, op in GATE_OPS.items():
            task = tasks.gate_dataset(name)
            assert task.name == name
            for (p, q), t in task.pairs:
                assert t == op(p, q)

    def test_unknown_gate_is_rejected(self):
        with pytest.raises(ValidationError):
            tasks.gate_dataset("IMPLIES")

    def test_rvnn_encoding_is_plain_bits(self):
        pairs, readout = tasks.gate_encode_rvnn(tasks.gate_dataset("OR"))
        assert readout is None
        assert len(pairs) == 4
        for (x, t), ((p, q), bit) in zip(pairs, tasks.gate_dataset("OR").pairs):
            assert np.array_equal(x, [p, q])
            assert np.array_equal(t, [bit])

    def test_cvnn_linear_gate_targets_sit_on_the_unit_circle(self):
        pairs, readout = tasks.gate_encode_cvnn(tasks.gate_dataset("AND"))
        assert readout is cvnn.unmap
        for (x, spec), (_, bit) in zip(pairs, tasks.gate_dataset("AND").pairs):
            assert np.allclose(np.abs(x), 1.0)
            assert spec[0] == cvnn.map_scalar(bit)

    def test_cvnn_parity_gates_get_two_candidates_with_equal_readout(self):
        for name in tasks.PARITY_GATES:
            pairs, readout = tasks.gate_encode_cvnn(tasks.gate_dataset(name))
            assert readout is cvnn.doubled_angle_readout
            for (_, spec), (_, bit) in zip(pairs, tasks.gate_dataset(name).pairs):
                candidates = spec[0]
                assert len(candidates) == 2
                for cand in candidates:
                    assert readout(cand) == pytest.approx(float(bit), abs=1e-12)

    def test_qnn_encoding_maps_bits_to_basis_states(self):
        pairs, _ = tasks.gate_encode_qnn(tasks.gate_dataset("XOR"))
        kets = [s.ket() for s, _ in pairs]
        assert np.allclose(kets, np.eye(4))

    def test_qnn_readouts_are_projectors_for_level_gates(self):
        expected_diag = {
            "AND": [0, 0, 0, 1],
            "NAND": [1, 1, 1, 0],
            "OR": [0, 1, 1, 1],
            "NOR": [1, 0, 0, 0],
        }
        for name, diag in expected_diag.items():
            _, readout = tasks.gate_encode_qnn(tasks.gate_dataset(name))
            assert not readout.square
            assert np.allclose(np.diag(readout.observable).real, diag)
        for name in tasks.PARITY_GATES:
            _, readout = tasks.gate_encode_qnn(tasks.gate_dataset(name))
            assert readout is qnn.CORRELATION


# ---------------------------------------------------------------------------
# Iris
# ---------------------------------------------------------------------------

CANONICAL_HEADER = "sepal_length,sepal_width,petal_length,petal_width,species"


def write_iris(tmp_path, lines, name="iris.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIrisLoading:
    def test_bundled_dataset_has_canonical_totals(self):
        records = tasks.load_iris()
        assert len(records) == 150
        for record in records:
            assert type(record) is tuple and len(record) == 2
            features, species = record
            assert type(features) is tuple and len(features) == 4
            assert all(type(v) is float for v in features)
            assert type(species) is int and species in range(3)
        for index in range(len(tasks.SPECIES_ORDER)):
            assert sum(1 for _, s in records if s == index) == 50

    def test_header_is_optional(self, tmp_path):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == CANONICAL_HEADER
        path = write_iris(tmp_path, lines[1:])
        assert tasks.load_iris(path) == tasks.load_iris()

    def test_a_byte_order_mark_does_not_hide_the_first_record(self, tmp_path):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert tasks.load_iris(path) == tasks.load_iris()

    def test_species_prefix_and_case_are_tolerated(self, tmp_path):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        dressed = [lines[0]]
        for row in lines[1:]:
            head, species = row.rsplit(",", 1)
            dressed.append(f"{head},Iris-{species.capitalize()}")
        path = write_iris(tmp_path, dressed)
        assert tasks.load_iris(path) == tasks.load_iris()

    @pytest.mark.parametrize(
        "bad_row,message_part",
        [
            ("5.1,3.5,1.4,setosa", "5 fields"),
            ("5.1,3.5,1.4,oops,setosa", "non-numeric"),
            ("5.1,3.5,0.0,0.2,setosa", "positive"),
            ("5.1,3.5,1.4,0.2,iris-fake", "species"),
        ],
    )
    def test_malformed_rows_carry_their_line_number(self, tmp_path, bad_row, message_part):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[3] = bad_row
        path = write_iris(tmp_path, lines)
        with pytest.raises(ValidationError, match="^line 4: ") as err:
            tasks.load_iris(path)
        assert message_part in str(err.value)

    def test_truncated_file_fails_the_totals_check(self, tmp_path):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        path = write_iris(tmp_path, lines[:-1])
        with pytest.raises(ValidationError):
            tasks.load_iris(path)

    def test_empty_file_fails_the_totals_check(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError):
            tasks.load_iris(path)

    def test_a_species_off_fifty_fails_the_totals_check(self, tmp_path):
        # 150 records, but one setosa relabeled: 49 setosa and 51 versicolor.
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[1].endswith(",setosa")
        lines[1] = lines[1].replace(",setosa", ",versicolor")
        path = write_iris(tmp_path, lines)
        with pytest.raises(ValidationError, match="expected 50 setosa, found 49"):
            tasks.load_iris(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        with open(tasks.bundled_iris_path(), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        spaced = ["", lines[0], "   "] + lines[1:60] + ["", "\t"] + lines[60:] + [""]
        path = write_iris(tmp_path, spaced)
        assert tasks.load_iris(path) == tasks.load_iris()


@pytest.fixture(scope="module")
def records():
    return tasks.load_iris()


class TestIrisSplit:
    @pytest.mark.parametrize("n_train,per_species", [(75, 25), (30, 10), (12, 4)])
    def test_split_counts(self, records, n_train, per_species):
        train, test = tasks.split_stratified(records, n_train, seed=0)
        assert len(train) == n_train
        assert len(test) == 75
        for index in range(len(tasks.SPECIES_ORDER)):
            assert sum(1 for _, s in train if s == index) == per_species
            assert sum(1 for _, s in test if s == index) == 25

    def test_split_is_disjoint_and_deterministic(self, records):
        train1, test1 = tasks.split_stratified(records, 75, seed=3)
        train2, test2 = tasks.split_stratified(records, 75, seed=3)
        assert train1 == train2 and test1 == test2
        ids = lambda rows: {id(r) for r in rows}
        assert not ids(train1) & ids(test1)
        train_other, _ = tasks.split_stratified(records, 75, seed=4)
        assert train_other != train1

    def test_split_rejects_bad_sizes(self, records):
        with pytest.raises(ValidationError):
            tasks.split_stratified(records, 40, seed=0)
        with pytest.raises(ValidationError):
            tasks.split_stratified(records, 0, seed=0)
        with pytest.raises(ValidationError):
            tasks.split_stratified(records, 150, seed=0)


class TestIrisEncoding:
    def test_a_feature_with_one_value_has_no_bounds(self, records):
        # Scaling would divide by max - min = 0.
        flat = [((5.0,) + features[1:], s) for features, s in records]
        with pytest.raises(ValidationError, match="sepal_length is 5 on every record"):
            tasks.feature_bounds(flat)

    def test_onehot_encoding_scales_into_the_unit_interval(self, records):
        bounds = tasks.feature_bounds(records)
        for record in records:
            x, t = tasks.iris_encode_onehot(record, bounds)
            assert np.all(x >= 0) and np.all(x <= 1)
            assert sorted(t) == [0.0, 0.0, 1.0]
            assert t[record[1]] == 1.0

    def test_cvnn_encoding_rides_the_unit_circle(self, records):
        bounds = tasks.feature_bounds(records)
        x, spec = tasks.iris_encode_cvnn(records[0], bounds)
        assert np.allclose(np.abs(x), 1.0)
        onehot = tasks.iris_encode_onehot(records[0], bounds)[1]
        assert spec == [cvnn.map_scalar(v) for v in onehot]

    def test_qnn_target_is_the_fixed_quadratic_score(self):
        record = ((3.0, 3.0, 4.0, 1e-9), 0)
        state, target = tasks.iris_encode_qnn(record)
        # amplitudes^2 = (9, 9, 16, ~0)/34, so the weighted score is
        # (0.01*9 + 0.01*9 + 1.0*16)/34 = 16.18/34.
        assert target == pytest.approx(16.18 / 34.0, abs=1e-9)

    def test_qnn_targets_order_the_species(self, records):
        by_species = {
            name: np.mean(
                [tasks.iris_encode_qnn(r)[1] for r in records if r[1] == index]
            )
            for index, name in enumerate(tasks.SPECIES_ORDER)
        }
        assert by_species["setosa"] < by_species["versicolor"] < by_species["virginica"]


# ---------------------------------------------------------------------------
# Witness datasets
# ---------------------------------------------------------------------------

class TestWitness:
    def test_canonical_quartet_values(self):
        quartet = tasks.witness_dataset(4, seed=0)
        targets = [t for _, t in quartet]
        assert targets[0] == pytest.approx(0.0, abs=1e-12)
        assert targets[1] == pytest.approx(1.0, abs=1e-12)
        assert targets[2] == pytest.approx(0.0, abs=1e-12)
        assert targets[3] == pytest.approx(0.64, abs=1e-12)

    def test_prefix_of_the_quartet_comes_back_for_small_n(self):
        duo = tasks.witness_dataset(2, seed=9)
        quartet = tasks.witness_dataset(4, seed=0)
        assert [s for s, _ in duo] == [s for s, _ in quartet[:2]]

    def test_larger_sets_pad_with_zero_phase_samples(self):
        pairs = tasks.witness_dataset(10, seed=0)
        assert len(pairs) == 10
        for state, target in pairs[4:]:
            assert target == pytest.approx(eof_pure(state), abs=1e-12)
        again = tasks.witness_dataset(10, seed=0)
        assert [s for s, _ in again] == [s for s, _ in pairs]
        other = tasks.witness_dataset(10, seed=1)
        assert [s for s, _ in other] != [s for s, _ in pairs]

    def test_testset_is_seeded_and_zero_phase(self):
        pairs = tasks.witness_testset(25, seed=0)
        assert len(pairs) == 25
        assert tasks.witness_testset(25, seed=0) == pairs
        assert tasks.witness_testset(25, seed=1) != pairs

    def test_every_pair_is_a_state_and_its_exact_target(self):
        # The target is eof_pure of the state, bit for bit, and the pair is
        # already what the qnn trains on. Amplitudes and targets are Python
        # floats, the canonical quartet's too.
        for seed in range(10):
            pairs = (
                tasks.witness_dataset(4, seed)
                + tasks.witness_dataset(100, seed)
                + tasks.witness_testset(runner.WITNESS_TEST_SIZE, seed)
            )
            for pair in pairs:
                assert type(pair) is tuple and len(pair) == 2
                state, target = pair
                assert isinstance(state, PureState) and type(target) is float
                assert all(type(v) is float for v in (state.a, state.b, state.c, state.d))
                assert target == eof_pure(state)
                assert tasks.witness_encode_qnn(pair) is pair

    def test_sampled_states_are_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = tasks.sample_pure_state(rng)
            assert s.a**2 + s.b**2 + s.c**2 + s.d**2 == pytest.approx(1.0, abs=1e-12)

    def test_rvnn_encoding_flattens_the_density_matrix(self):
        # A state's density matrix is real, so the real parts the encoding
        # keeps are the whole matrix: bit for bit the outer product of the
        # amplitudes, on every training and test set the runner draws.
        for seed in range(10):
            pairs = (
                tasks.witness_dataset(4, seed)
                + tasks.witness_dataset(100, seed)
                + tasks.witness_testset(runner.WITNESS_TEST_SIZE, seed)
            )
            for pair in pairs:
                s, target = pair
                assert np.all(pure_to_density(s).imag == 0.0)
                x, t = tasks.witness_encode_rvnn(pair)
                assert x.shape == (16,)
                amps = np.array([s.a, s.b, s.c, s.d])
                assert x.tobytes() == np.outer(amps, amps).ravel().tobytes()
                assert np.array_equal(t, [target])

    def test_cvnn_encoding_rides_the_unit_circle(self):
        pair = tasks.witness_dataset(4, seed=0)[3]
        x, spec = tasks.witness_encode_cvnn(pair)
        assert x.shape == (16,)
        assert np.allclose(np.abs(x), 1.0)
        assert spec == [cvnn.map_scalar(pair[1])]

    def test_qnn_encoding_is_the_bare_state_and_value(self):
        pair = tasks.witness_dataset(4, seed=0)[3]
        state, target = tasks.witness_encode_qnn(pair)
        assert state is pair[0]
        assert target == pair[1]

    def test_dataset_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            tasks.witness_dataset(0, seed=0)
