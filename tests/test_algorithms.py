import re
from functools import lru_cache

import numpy as np
import pytest

from postulate_sim import algorithms as alg
from postulate_sim import kernels
from postulate_sim.errors import DimensionMismatch, FullRank, InvalidMarkedSet, InvalidOracle
from postulate_sim.hilbert import Observable, StateVector
from postulate_sim.measurement import RegisterReadout, SemanticsMode, partial_probabilities
from test_hilbert import tensor_op, traced_peak

LUEDERS = SemanticsMode.LUEDERS
STRICT = SemanticsMode.STRICT_VON_NEUMANN
INV_SQRT2 = 1 / np.sqrt(2)


def popcount_parity(x):
    return bin(x).count("1") % 2


def dj_amplitudes_brute(table):
    """Independent oracle: evaluate the double sum term by term."""
    size = len(table)
    out = []
    for z in range(size):
        acc = 0
        for x in range(size):
            acc += (-1) ** (popcount_parity(x & z) + table[x])
        out.append(acc / size)
    return np.array(out, dtype=float)


@lru_cache(maxsize=None)
def argument_observable(n):
    """Dense reference for `RegisterReadout`: the diagonal register readout
    with eigenvalue z on basis state |z>."""
    if n < 1:
        raise ValueError("register width must be >= 1")
    return Observable(np.diag(np.arange(2 ** n, dtype=np.float64)), (2 ** n,))


def simon_table_by_unique(n, s, rng=None):
    """Reference Simon table: coset {r, r ^ s} takes the rank of its minimum
    r among all minima, found by sorting them."""
    values = np.arange(2 ** n, dtype=np.int64)
    if rng is not None:
        values = rng.permutation(values)
    x = np.arange(2 ** n, dtype=np.int64)
    return values[np.unique(np.minimum(x, x ^ s), return_inverse=True)[1]]


def dj_verdict(readout, rng):
    """The CLI's DJ verdict of one draw: z = 0 means constant."""
    return "constant" if readout.draw(rng) == 0 else "balanced"


def simon_trial(oracle, rng, max_samples=50):
    """One Simon trial on the prepared readout, as the CLI runs it."""
    return alg.simon_period(alg.simon_readout(oracle), oracle.n, rng, max_samples)


def assert_mode_independent(readout, seeds):
    """At each seed, the drawn outcome has the same eigenvalue under both
    semantics, and it is the index that `draw` gives."""
    for seed in seeds:
        idx = readout.draw(np.random.default_rng(seed))
        assert readout.outcome(idx, LUEDERS).eigenvalue == \
            readout.outcome(idx, STRICT).eigenvalue == idx


def simon_amplitudes_brute(table):
    size = len(table)
    amps = np.zeros((size, size))
    for k in range(size):
        for j in range(size):
            amps[j, int(table[k])] += (-1) ** popcount_parity(j & k) / size
    return amps.reshape(-1)


class TestOracles:
    def test_constant_and_balanced_accepted(self):
        alg.constant_oracle(3, 1)
        alg.balanced_oracle(4, np.random.default_rng(0))

    def test_unbalanced_rejected(self):
        with pytest.raises(InvalidOracle):
            alg.BooleanOracle.deutsch_jozsa(2, [0, 0, 0, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidOracle):
            alg.BooleanOracle.deutsch_jozsa(2, [0, 2, 0, 2])

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_is_constant_set_at_construction(self, n, tmp_path):
        """A DJ oracle records its verdict from the count of ones it checks;
        a Simon oracle has none."""
        assert alg.constant_oracle(n, 0).is_constant is True
        assert alg.constant_oracle(n, 1).is_constant is True
        balanced = alg.balanced_oracle(n, np.random.default_rng(n))
        assert balanced.is_constant is False
        path = tmp_path / "oracle.txt"
        for oracle in (balanced, alg.constant_oracle(n, 1)):
            alg.save_oracle(oracle, path)
            assert alg.load_oracle(path, "dj").is_constant is oracle.is_constant
        assert alg.simon_oracle(n, 1).is_constant is None

    def test_simon_oracle_properties(self):
        o = alg.simon_oracle(3, 0b101, np.random.default_rng(1))
        assert o.hidden_period == 0b101
        t = o.table
        for x in range(8):
            assert t[x] == t[x ^ 0b101]
        assert len(set(t.tolist())) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_simon_coset_labels_match_sorted_minima(self, n):
        for s in range(1, 2 ** n):
            for rng in (lambda: None, lambda: np.random.default_rng(s)):
                oracle = alg.simon_oracle(n, s, rng())
                assert oracle.table.tobytes() == simon_table_by_unique(n, s, rng()).tobytes()
                assert oracle.hidden_period == s

    def test_simon_rejects_not_two_to_one(self):
        with pytest.raises(InvalidOracle):
            alg.BooleanOracle.simon(2, [0, 0, 0, 0])

    def test_simon_rejects_injective(self):
        with pytest.raises(InvalidOracle):
            alg.BooleanOracle.simon(2, [0, 1, 2, 3])

    @pytest.mark.parametrize("n,table,message", [
        # f(0) = f(1) derives s = 01, which f(2) = 1 != f(3) = 2 breaks
        (2, [0, 0, 1, 2], "f(2) != f(2^s) for derived s=01"),
        # s = 011 from f(3) = f(0); x = 4 is the first input it fails on
        (3, [5, 1, 1, 5, 2, 3, 2, 3], "f(4) != f(4^s) for derived s=011"),
    ])
    def test_simon_names_first_input_off_period(self, n, table, message):
        with pytest.raises(InvalidOracle, match=re.escape(message) + "$"):
            alg.BooleanOracle.simon(n, table)

    def test_file_round_trip(self, tmp_path):
        o = alg.simon_oracle(3, 0b011, np.random.default_rng(2))
        path = tmp_path / "oracle.txt"
        alg.save_oracle(o, path)
        loaded = alg.load_oracle(path, "simon")
        np.testing.assert_array_equal(loaded.table, o.table)
        assert loaded.hidden_period == o.hidden_period

    @pytest.mark.parametrize("kind,oracle", [
        ("dj", lambda: alg.balanced_oracle(15, np.random.default_rng(3))),
        ("simon", lambda: alg.simon_oracle(8, 0b10110011, np.random.default_rng(4))),
    ], ids=["dj", "simon"])
    def test_file_at_widest_loads(self, tmp_path, kind, oracle):
        """The widest valid files, with a comment as long as the line bound."""
        oracle = oracle()
        path = tmp_path / "oracle.txt"
        alg.save_oracle(oracle, path)
        path.write_text("#" * alg._MAX_LINE + "\n" + path.read_text())
        np.testing.assert_array_equal(alg.load_oracle(path, kind).table, oracle.table)

    def test_file_line_bound(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("0 0\n" + "1" * 3_000_000 + " 1\n")
        with pytest.raises(InvalidOracle) as exc:
            alg.load_oracle(path, "dj")
        assert str(exc.value) == (f"{path}:2: line longer than {alg._MAX_LINE} characters, "
                                  f"starting {'1' * 16!r}")

    def test_file_line_count_bound(self, tmp_path):
        """Comments fill the file up to the line bound: it loads; one more line is rejected."""
        oracle = alg.constant_oracle(3, 1)
        path = tmp_path / "oracle.txt"
        alg.save_oracle(oracle, path)
        table = path.read_text()
        path.write_text("# c\n" * (alg._MAX_LINES - 8) + table)
        np.testing.assert_array_equal(alg.load_oracle(path, "dj").table, oracle.table)
        path.write_text("# c\n" * (alg._MAX_LINES - 7) + table)
        with pytest.raises(InvalidOracle) as exc:
            alg.load_oracle(path, "dj")
        assert str(exc.value) == f"{path}:{alg._MAX_LINES + 1}: more than {alg._MAX_LINES} lines"

    def test_file_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("00 0\n01 1\n")
        with pytest.raises(InvalidOracle):
            alg.load_oracle(path, "dj")

    def test_file_width_checked_on_first_line(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("0" * 20 + " 0\n" + "garbage\n" * 3)
        with pytest.raises(DimensionMismatch, match="n=20 needs 21 qubits"):
            alg.load_oracle(path, "dj")

    def test_parse_bits(self):
        assert [alg.parse_bits(t) for t in ("0", "1", "101", "00101")] == [0, 1, 5, 5]
        # int(text, 2) reads each of these; none is a bit string
        for text in ("0b101", "1_01", " 101", "101\n", "+101", "-1", "\u0661\u0660"):
            int(text, 2)
            with pytest.raises(InvalidOracle, match="expected a bit string"):
                alg.parse_bits(text)
        with pytest.raises(InvalidOracle, match="expected a bit string"):
            alg.parse_bits("")


class TestArgumentObservable:
    def test_n1(self):
        np.testing.assert_allclose(argument_observable(1).matrix, np.diag([0.0, 1.0]))

    def test_n2(self):
        np.testing.assert_allclose(argument_observable(2).matrix, np.diag([0.0, 1, 2, 3]))

    def test_nondegenerate(self):
        dec = argument_observable(3).decomposition
        assert max(dec.multiplicities) == 1
        np.testing.assert_allclose(dec.eigenvalues, np.arange(8))

    def test_lifted_degenerate(self):
        lifted = tensor_op(argument_observable(2), Observable(np.eye(2)))
        assert lifted.decomposition.multiplicities == (2, 2, 2, 2)


class TestDeutschJozsa:
    def test_constant_zero_state(self):
        state = alg.dj_final_state(alg.constant_oracle(2, 0))
        arg = state.reshaped((4, 2)).amplitudes.reshape(4, 2)
        probs = np.sum(np.abs(arg) ** 2, axis=1)
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_balanced_kills_zero(self):
        # f(x) = first bit of x
        table = np.array([0, 0, 1, 1])
        state = alg.dj_final_state(alg.BooleanOracle.deutsch_jozsa(2, table))
        amp00 = state.amplitudes.reshape(4, 2)[0]
        np.testing.assert_allclose(amp00, 0, atol=1e-12)

    def test_n1_constant_one(self):
        state = alg.dj_final_state(alg.constant_oracle(1, 1))
        arg = state.amplitudes.reshape(2, 2)
        # argument register is -|0>
        np.testing.assert_allclose(arg[0], [-INV_SQRT2, INV_SQRT2], atol=1e-12)
        np.testing.assert_allclose(arg[1], 0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_amplitudes_match_brute_force(self, n):
        rng = np.random.default_rng(n)
        oracles = [alg.constant_oracle(n, 0), alg.constant_oracle(n, 1)]
        if n >= 1:
            oracles += [alg.balanced_oracle(n, rng) for _ in range(3)]
        for oracle in oracles:
            state = alg.dj_final_state(oracle)
            arg = state.amplitudes.reshape(2 ** n, 2)[:, 0] / INV_SQRT2
            np.testing.assert_allclose(arg.real, dj_amplitudes_brute(oracle.table), atol=1e-10)
            np.testing.assert_allclose(arg.imag, 0, atol=1e-12)

    def test_final_state_at_cap_is_one_buffer(self):
        """At n = 15 the state is 2^16 real amplitudes, 0.5 MiB, written
        straight into its buffer: beside it live only the 0.25 MiB argument
        amplitudes (1.25 MiB with a complex buffer, 1.75 MiB with a float
        Kronecker product and its complex copy). The amplitudes are the
        Kronecker product's to the last bit."""
        oracle = alg.constant_oracle(15, 0)
        state = alg.dj_final_state(oracle)
        assert traced_peak(lambda: alg.dj_final_state(oracle)) < 0.8 * 2 ** 20
        # the readout adds the 0.25 MiB Born vector and one block of weights
        # (1.32 MiB with a complex state, 1.75 MiB with the weights of the
        # whole state squared at once)
        assert traced_peak(lambda: alg.dj_readout(oracle)) <= 0.87 * 2 ** 20
        for oracle in (oracle, alg.balanced_oracle(12, kernels.seed_stream(3))):
            kron = np.kron(kernels.dj_argument_amplitudes(oracle.table), [INV_SQRT2, -INV_SQRT2])
            state = alg.dj_final_state(oracle)
            assert state.amplitudes.tobytes() == kron.tobytes()

    def test_factorizes_across_ancilla_cut(self):
        rng = np.random.default_rng(12)
        for oracle in [alg.constant_oracle(3), alg.balanced_oracle(3, rng)]:
            mat = alg.dj_final_state(oracle).amplitudes.reshape(8, 2)
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[1] < 1e-10  # Schmidt rank 1

    def test_verdicts(self):
        rng = np.random.default_rng(6)
        for n in [1, 2, 6]:
            for value in (0, 1):
                readout = alg.dj_readout(alg.constant_oracle(n, value))
                assert dj_verdict(readout, rng) == "constant"
                assert readout.probabilities[0] == pytest.approx(1.0, abs=1e-10)
            readout = alg.dj_readout(alg.balanced_oracle(n, rng))
            assert dj_verdict(readout, rng) == "balanced"
            assert readout.probabilities[0] == pytest.approx(0.0, abs=1e-10)

    def test_mode_independent(self):
        assert_mode_independent(alg.dj_readout(alg.balanced_oracle(4, np.random.default_rng(8))),
                                range(10))


class TestSimonState:
    def test_n1_constant_like(self):
        # n=1, s=1: f(0)=f(1); only j=0 has support
        oracle = alg.BooleanOracle.simon(1, [0, 0])
        state = alg.simon_final_state(oracle)
        amps = state.amplitudes.reshape(2, 2)
        np.testing.assert_allclose(np.abs(amps[0]), [1, 0], atol=1e-12)
        np.testing.assert_allclose(amps[1], 0, atol=1e-12)

    def test_n2_support(self):
        oracle = alg.BooleanOracle.simon(2, [0, 1, 1, 0])  # s=11
        state = alg.simon_final_state(oracle)
        probs = np.sum(np.abs(state.amplitudes.reshape(4, 4)) ** 2, axis=1)
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n,s", [(2, 1), (3, 5), (4, 9)])
    def test_matches_brute_force(self, n, s):
        oracle = alg.simon_oracle(n, s, np.random.default_rng(s))
        state = alg.simon_final_state(oracle)
        np.testing.assert_allclose(
            state.amplitudes.real, simon_amplitudes_brute(oracle.table), atol=1e-10
        )
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    @pytest.mark.parametrize("s", [1, 0b10110011, 0b11111111])
    def test_readout_at_cap_holds_one_state(self, s):
        """At n = 8 the state is 2^16 real amplitudes, 0.5 MiB. The kernel
        transforms a 128 KiB int16 table and divides it into the state's
        buffer, and the Born weights are squared in blocks, so beside the
        state live only that table and numpy's buffers (1.19 MiB with a
        complex state, 1.50 MiB with an int64 table, its float quotient and
        the copy)."""
        oracle = alg.simon_oracle(8, s)
        assert traced_peak(lambda: alg.simon_final_state(oracle)) <= 0.75 * 2 ** 20
        assert traced_peak(lambda: alg.simon_readout(alg.simon_oracle(8, s))) <= 0.75 * 2 ** 20

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_outcome_support_is_dual_subspace(self, n):
        rng = np.random.default_rng(n * 7)
        for _ in range(5):
            s = int(rng.integers(1, 2 ** n))
            oracle = alg.simon_oracle(n, s, rng)
            state = alg.simon_final_state(oracle).reshaped((2 ** n, 2 ** n))
            probs = partial_probabilities(argument_observable(n), 0, state)
            for j in range(2 ** n):
                if popcount_parity(j & s) == 0:
                    assert probs[j] == pytest.approx(1 / 2 ** (n - 1), abs=1e-10)
                else:
                    assert probs[j] == pytest.approx(0.0, abs=1e-10)


class TestGf2:
    @staticmethod
    def basis(*rows):
        basis = {}
        for row in rows:
            kernels.gf2_add(basis, row)
        return basis

    def test_rank_zero_ambiguous(self):
        rows = self.basis(0b00)
        assert len(rows) < 2 - 1
        assert kernels.gf2_null_vector(rows, 2) != 0

    def test_unique_solution_n3(self):
        rows = self.basis(0b110, 0b011)
        assert len(rows) == 3 - 1
        # oracle: enumerate all 8 candidates
        valid = [v for v in range(1, 8)
                 if all(popcount_parity(v & r) == 0 for r in (0b110, 0b011))]
        assert valid == [0b111]
        assert kernels.gf2_null_vector(rows, 3) == 0b111

    def test_unique_solution_n2(self):
        rows = self.basis(0b10)
        assert kernels.gf2_null_vector(rows, 2) == 0b01
        assert len(rows) == 2 - 1

    def test_full_rank_raises(self):
        rows = self.basis(0b10, 0b01)
        with pytest.raises(FullRank):
            kernels.gf2_null_vector(rows, 2)

    def test_solution_annihilates_rows(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            bits = rng.integers(0, 2, size=(int(rng.integers(1, n)), n))
            rows = [int("".join(map(str, r)), 2) for r in bits.tolist()]
            try:
                v = kernels.gf2_null_vector(self.basis(*rows), n)
            except FullRank:
                continue
            assert 0 < v < 2 ** n
            for r in rows:
                assert popcount_parity(r & v) == 0


class TestSimonRecovery:
    def test_n2(self):
        oracle = alg.BooleanOracle.simon(2, [0, 1, 1, 0])
        res = simon_trial(oracle, np.random.default_rng(0))
        assert res.period == 0b11
        assert all(j in (0b00, 0b11) for j in res.samples)

    def test_n3_seeded(self):
        oracle = alg.simon_oracle(3, 0b101, np.random.default_rng(1))
        res = simon_trial(oracle, np.random.default_rng(1), max_samples=50)
        assert res.period == 0b101

    def test_n1_immediate(self):
        oracle = alg.BooleanOracle.simon(1, [0, 0])
        res = simon_trial(oracle, np.random.default_rng(0))
        assert res.period == 1
        assert res.samples == []

    def test_samples_orthogonal_to_period(self):
        rng = np.random.default_rng(23)
        for n in [2, 3, 4, 5]:
            s = int(rng.integers(1, 2 ** n))
            oracle = alg.simon_oracle(n, s, rng)
            res = simon_trial(oracle, rng)
            assert res.period == s
            for j in res.samples:
                assert popcount_parity(j & s) == 0

    def test_rank_deficient_when_sampling_repeats(self):
        from postulate_sim.errors import RankDeficient

        class StuckRng:
            def random(self):
                return 0.0  # always selects the first nonzero-probability outcome

        oracle = alg.simon_oracle(3, 0b110, np.random.default_rng(4))
        with pytest.raises(RankDeficient):
            simon_trial(oracle, StuckRng(), max_samples=10)

    def test_mode_independent(self):
        oracle = alg.simon_oracle(4, 0b1010, np.random.default_rng(2))
        assert_mode_independent(alg.simon_readout(oracle), range(5))
        for seed in range(5):
            assert simon_trial(oracle, np.random.default_rng(seed)).period == 0b1010


class TestGrover:
    def test_n2_exact(self):
        readout, marked = alg.grover_readout(2, [3])
        assert alg.grover_iterations(2, len(marked)) == 1
        assert readout.probabilities[marked].sum() == pytest.approx(1.0, abs=1e-10)
        found = readout.draw(np.random.default_rng(0))
        assert found == 3 and found in marked

    def test_n4_three_iterations(self):
        readout, marked = alg.grover_readout(4, [11])
        assert alg.grover_iterations(4, len(marked)) == 3
        assert readout.probabilities[marked].sum() == pytest.approx(0.9613189697265625, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form(self, n, m):
        if m >= 2 ** n:
            pytest.skip("marked set must be a strict subset")
        readout, marked = alg.grover_readout(n, list(range(m)))
        theta = np.arcsin(np.sqrt(m / 2 ** n))
        expected = np.sin((2 * alg.grover_iterations(n, m) + 1) * theta) ** 2
        assert readout.probabilities[marked].sum() == pytest.approx(expected, abs=1e-10)

    def test_invalid_marked(self):
        for marked in ([], [0, 1, 2, 3], [4]):
            with pytest.raises(InvalidMarkedSet):
                alg.grover_readout(2, marked)

    def test_readout_at_cap_holds_one_state(self):
        """At n = 16 the state is 2^16 real amplitudes, 0.5 MiB: the kernel's
        array becomes the state's buffer uncopied, and the Born weights of the
        whole register are its Born vector, so the peak is the state plus its
        weights (1.50 MiB with a complex copy of the state, 2.00 MiB while
        the weights were summed into a second array)."""
        alg.grover_readout(4, [3])  # first-call allocations are not the run's
        assert traced_peak(lambda: alg.grover_readout(16, [3])) <= 1.05 * 2 ** 20

    def test_mode_independent(self):
        readout, marked = alg.grover_readout(3, [5, 2, 5])
        assert marked == [2, 5]
        assert_mode_independent(readout, range(10))


class TestPreparedReadouts:
    """The prepared readouts that every CLI trial draws from."""

    def test_simon_period_checks_max_samples(self):
        readout = alg.simon_readout(alg.simon_oracle(4, 0b11))
        with pytest.raises(ValueError, match="max_samples"):
            alg.simon_period(readout, 4, np.random.default_rng(0), 2)


def _real_readout(kind, n):
    if kind == "dj":
        return alg.dj_readout(alg.balanced_oracle(n, kernels.seed_stream(n)))
    if kind == "simon":
        s = {2: 0b11, 5: 0b10110, 8: 0b10110011}[n]
        return alg.simon_readout(alg.simon_oracle(n, s, np.random.default_rng(n)))
    return alg.grover_readout(n, [5, 2 ** n - 3])[0]


@pytest.mark.parametrize("kind,n", [("dj", 1), ("dj", 4), ("dj", 10), ("dj", 15), ("simon", 2),
                                    ("simon", 5), ("simon", 8), ("grover", 3), ("grover", 10),
                                    ("grover", 16)])
def test_real_state_reads_as_its_complex_copy(kind, n):
    """The algorithm states are real, 8 B per amplitude, and read out bit for
    bit as their complex128 copies do: the Born vector, the draws, each
    outcome and its projection under both semantics. The post-states, with
    zero imaginary parts, agree within two ulps: numpy divides a complex
    projection by its norm through the norm's reciprocal, a real one
    directly."""
    readout = _real_readout(kind, n)
    psi = readout.psi
    assert psi.amplitudes.dtype == np.float64
    copy = RegisterReadout(StateVector(psi.amplitudes.astype(np.complex128), psi.dims), 0)
    assert copy.psi.amplitudes.dtype == np.complex128
    assert readout.probabilities.tobytes() == copy.probabilities.tobytes()
    draws = [readout.draw(rng) for rng in kernels.trial_streams(7, 50)]
    assert draws == [copy.draw(rng) for rng in kernels.trial_streams(7, 50)]
    for idx in list(dict.fromkeys(draws))[:5]:
        for mode in (LUEDERS, STRICT):
            real, cplx = readout.outcome(idx, mode), copy.outcome(idx, mode)
            if mode is LUEDERS:  # the projection stays real
                assert real.post_state.amplitudes.dtype == np.float64
            assert (real.eigenvalue, real.probability, real.projector_rank, real.determined) == \
                (cplx.eigenvalue, cplx.probability, cplx.projector_rank, cplx.determined)
            for attr in ("post_state", "lueders_post_state", "subsystem_post_state"):
                a, b = getattr(real, attr), getattr(cplx, attr)
                assert (a is None) == (b is None), attr
                if a is not None:
                    assert a.dims == b.dims
                    np.testing.assert_array_max_ulp(a.amplitudes.real, b.amplitudes.real, 2)
                    assert not np.any(a.amplitudes.imag) and not np.any(b.amplitudes.imag)
            assert real._project().tobytes() == cplx._project().real.tobytes()


def test_teleport_and_measure_states_stay_complex():
    """A complex input keeps its field even when its imaginary parts are zero."""
    from postulate_sim import commands, protocols
    psi = commands._input_qubit(complex(0.6, 0), complex(0.8, 0))
    assert psi.amplitudes.dtype == np.complex128
    assert protocols.Teleportation(psi, LUEDERS).psi.amplitudes.dtype == np.complex128
    outcome = RegisterReadout(psi, None, Observable(commands._PAULIS["x"], (2,))).outcome(0, LUEDERS)
    assert outcome.post_state.amplitudes.dtype == np.complex128
