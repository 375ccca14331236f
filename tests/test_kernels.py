"""The kernels against brute-force references: the dense sign-matrix formulas
they replace and the plain loops they vectorize. The Walsh-Hadamard sums are
exact integers before the division by 2^n, so equality is exact. The trial
streams and the seeded stream's permutation are checked bit for bit against
`numpy.random`, their reference."""
import numpy as np
import pytest

from postulate_sim import algorithms, kernels
from postulate_sim.cli import MAX_TRIALS
from postulate_sim.errors import FullRank
from test_hilbert import traced_peak


def _bit_matrix(n):
    """(2^n, n) matrix of bits, row x = binary digits of x (MSB first)."""
    x = np.arange(2 ** n, dtype=np.uint32)
    return ((x[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int64)


def _dj_dense(f_table):
    n = int(np.log2(len(f_table)))
    bits = _bit_matrix(n)
    signs = 1 - 2 * ((bits @ bits.T) % 2)  # (-1)^(x.z), shape (2^n, 2^n)
    f_signs = 1 - 2 * f_table.astype(np.int64)
    return (signs * f_signs[None, :]).sum(axis=1) / float(2 ** n)


def _simon_dense(f_table):
    """The integer product H @ onehot over 2^n, H[j, k] = (-1)^(j.k) and
    onehot[k, v] = [f(k) = v], as complex128 with a zero imaginary part."""
    size = len(f_table)
    bits = _bit_matrix(int(np.log2(size)))
    signs = 1 - 2 * ((bits @ bits.T) % 2)  # H, int64
    onehot = (np.asarray(f_table)[:, None] == np.arange(size)).astype(np.int64)
    return ((signs @ onehot) / size).astype(np.complex128).reshape(-1)


def _grover_loop(n, marked, iterations):
    size = 2 ** n
    amps = np.full(size, 1.0 / np.sqrt(size))
    for _ in range(iterations):
        for m in marked:
            amps[m] *= -1.0
        mean2 = 2.0 * amps.mean()
        for i in range(size):
            amps[i] = mean2 - amps[i]
    return amps


def _gf2_rref_loop(rows):
    m, n = rows.shape
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r, col]), -1)
        if pivot < 0:
            continue
        for c in range(n):
            rows[rank, c], rows[pivot, c] = rows[pivot, c], rows[rank, c]
        for r in range(m):
            if r != rank and rows[r, col]:
                for c in range(n):
                    rows[r, c] ^= rows[rank, c]
        rank += 1
        if rank == m:
            break
    return rank


def _simon_table(n, rng):
    """Random 2-to-1 table with a random nonzero period."""
    s = int(rng.integers(1, 2 ** n))
    labels = rng.permutation(2 ** n)
    return np.array([labels[min(x, x ^ s)] for x in range(2 ** n)], dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 9))
def test_dj_amplitudes_paths_agree(n):
    rng = np.random.default_rng(n)
    tables = [np.zeros(2 ** n, dtype=np.int64), np.ones(2 ** n, dtype=np.int64),
              rng.permutation(2 ** n) % 2, rng.integers(0, 2, size=2 ** n)]
    for table in tables:
        np.testing.assert_array_equal(kernels.dj_argument_amplitudes(table), _dj_dense(table))


@pytest.mark.parametrize("n", range(1, 7))
def test_simon_amplitudes_paths_agree(n):
    """Bit for bit, signed zeros included, on Simon tables, a random table
    and the all-zero table, whose column 0 sums to the largest value, 2^n."""
    rng = np.random.default_rng(n + 10)
    tables = [_simon_table(n, rng) for _ in range(3)]
    tables += [rng.integers(0, 2 ** n, 2 ** n), np.zeros(2 ** n, dtype=np.int64)]
    for table in tables:
        amps = kernels.simon_state_amplitudes(table)
        assert amps.dtype == np.float64
        assert amps.tobytes() == _simon_dense(table).real.tobytes()


@pytest.mark.parametrize("n,marked,iters", [(2, [3], 1), (4, [0, 7], 2), (6, [13], 6)])
def test_grover_paths_agree(n, marked, iters):
    marked = np.asarray(marked, dtype=np.int64)
    np.testing.assert_array_equal(kernels.grover_amplitudes(n, marked, iters),
                                  _grover_loop(n, marked, iters))


def test_grover_amplitudes_update_in_place():
    """At n = 16 the amplitudes are 0.5 MiB, and each inversion about the
    mean overwrites them (1.00 MiB with a new array per round)."""
    marked = np.array([3], dtype=np.int64)
    kernels.grover_amplitudes(4, marked, 1)  # first-call allocations are not the run's
    assert traced_peak(lambda: kernels.grover_amplitudes(16, marked, 201)) <= 0.55 * 2 ** 20


def test_gf2_rref_paths_agree():
    """The bit-packed basis has the rank of the element-wise elimination, and
    its null vector is checked against the enumerated nullspace."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        rows = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        packed = [int("".join(map(str, r)), 2) for r in rows.tolist()]
        basis = {}
        for r in packed:
            kernels.gf2_add(basis, r)
        rank = len(basis)
        assert rank == _gf2_rref_loop(rows.copy()) == _gf2_rank_oracle(rows)
        nullspace = [v for v in range(1, 2 ** n)
                     if all(bin(v & r).count("1") % 2 == 0 for r in packed)]
        assert len(nullspace) == 2 ** (n - rank) - 1
        if not nullspace:
            with pytest.raises(FullRank):
                kernels.gf2_null_vector(basis, n)
            continue
        v = kernels.gf2_null_vector(basis, n)
        assert v in nullspace
        if rank == n - 1:
            assert nullspace == [v]


def _gf2_rank_oracle(rows):
    """GF(2) rank by elimination on bit-packed Python ints."""
    basis = {}
    for bits in rows.tolist():
        r = int("".join(map(str, bits)), 2)
        while r:
            high = r.bit_length() - 1
            if high in basis:
                r ^= basis[high]
            else:
                basis[high] = r
                break
    return len(basis)


def _numpy_draws(seed, t, count=5):
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2 ** 64 - 1), t]))
    return [rng.random() for _ in range(count)]


def _stream_draws(stream, count=5):
    return [stream.random() for _ in range(count)]


# one and two 32-bit seed words, negative seeds folded to 64 bits, and bits past 64
STREAM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, -1, -2 ** 63, 2 ** 64 + 12345]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_match_numpy(seed):
    """Float equality of draws is bit equality: both sides take the top 53
    bits of the same 64-bit output."""
    streams = kernels.trial_streams(seed, 300)
    assert len(streams) == 300
    for t, stream in enumerate(streams):
        assert _stream_draws(stream) == _numpy_draws(seed, t), t


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_match_numpy_up_to_max_trials(seed):
    streams = kernels.trial_streams(seed, MAX_TRIALS)
    for t in [300, 4095, 65535, 65536, 77777, MAX_TRIALS - 1]:
        assert _stream_draws(streams[t]) == _numpy_draws(seed, t), t


def test_trial_streams_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(-2 ** 70, 2 ** 70), st.integers(0, 1999))
    def check(seed, t):
        assert _stream_draws(kernels.trial_streams(seed, t + 1)[t]) == _numpy_draws(seed, t)

    check()


# one 32-bit seed word up to the largest, then two from 2^32 up to 2^64 - 1
PERMUTATION_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 63, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", PERMUTATION_SEEDS)
def test_seed_stream_permutation_matches_numpy(seed):
    """Every swap draws a 32-bit word, the low half of an output first, so the
    permutations agree only if every draw and every rejection does; the
    `random()` after each one continues numpy's stream."""
    for n in range(16):
        stream, rng = kernels.seed_stream(seed), np.random.default_rng(seed)
        assert stream.permutation(2 ** n) == rng.permutation(2 ** n).tolist(), n
        assert _stream_draws(stream) == [rng.random() for _ in range(5)], n


def test_seed_stream_folds_to_64_bits():
    for seed in [-1, -2 ** 63, 2 ** 64 + 12345]:
        rng = np.random.default_rng(seed & (2 ** 64 - 1))
        assert kernels.seed_stream(seed).permutation(1000) == rng.permutation(1000).tolist()


@pytest.mark.parametrize("n", range(1, 16))
def test_balanced_oracle_same_from_either_generator(n):
    for seed in PERMUTATION_SEEDS[::3]:
        got = algorithms.balanced_oracle(n, kernels.seed_stream(seed)).table
        ref = algorithms.balanced_oracle(n, np.random.default_rng(seed)).table
        np.testing.assert_array_equal(got, ref)
        assert got.sum() == 2 ** (n - 1)
