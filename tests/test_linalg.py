import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo import linalg
from swiptmimo.errors import InvalidInputError
from swiptmimo.harvesting import harvested_power, top_eigpair
from swiptmimo.linalg import DEGENERACY_FLOOR, hermitian_eigh, hermitian_eigvals, hermitize
from swiptmimo.scenario import ScenarioConfig

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar(n, rng):
    """An n x n Haar unitary from one complex Gaussian draw of `rng`."""
    return linalg.haar_from_gaussian(linalg.complex_gaussian((n, n), rng))


def with_spectrum(spectrum, seed):
    """U diag(spectrum) U^H for a Haar unitary U drawn from `seed`."""
    u = haar(len(spectrum), np.random.default_rng(seed))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def lapack(a):
    return np.linalg.eigvalsh(hermitize(a))


def assert_matches_lapack(a):
    """hermitian_eigvals agrees with LAPACK within 1e-13 of each row's largest |eigenvalue|."""
    got, want = hermitian_eigvals(a), lapack(a)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestHermEig:
    """The top eigenpair kernel that energy steering and the combiner read."""

    def test_diagonal(self):
        w, v = top_eigpair(np.diag([2.0, 1.0])[None])
        assert np.allclose(w, [2.0])
        assert np.allclose(np.abs(v), [[1.0, 0.0]])

    def test_identity(self):
        w, _ = top_eigpair(np.eye(3)[None])
        assert np.allclose(w, 1.0)

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, (3, 3))
        w, v = top_eigpair((b.conj().T @ b)[None])
        assert np.all(w >= -1e-10)
        assert np.linalg.norm(v[0]) == pytest.approx(1.0, abs=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(4)
        b = random_complex(rng, (4, 4))
        a = b.conj().T @ b
        w, v = top_eigpair(a[None])
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ v[0] - w[0] * v[0]) <= 1e-10 * scale
        assert w[0] == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-12 * scale)

    def test_eigvals_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, (3, 3))
        a = b.conj().T @ b
        u = haar(3, rng)
        w_orig, _ = top_eigpair(a[None])
        w_conj, _ = top_eigpair((u @ a @ u.conj().T)[None])
        assert np.allclose(w_orig, w_conj, atol=1e-10 * max(np.linalg.norm(a), 1))


class TestHaarUnitary:
    """`haar_from_gaussian`, which maps ensemble_for's Gaussians to its Haar factors."""

    def test_dimension_one_is_unit_modulus(self):
        u = haar(1, np.random.default_rng(0))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_unitarity(self, seed):
        u = haar(3, np.random.default_rng(seed))
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12

    def test_same_seed_bit_identical(self):
        u1 = haar(4, np.random.default_rng(9))
        u2 = haar(4, np.random.default_rng(9))
        assert np.array_equal(u1, u2)

    def test_isotropy_of_first_entry(self):
        # |U_11|^2 ~ Beta(1, 2) for 3x3 Haar: mean 1/3, var 1/18
        draws = 10_000
        rng = np.random.default_rng(123)
        z = linalg.complex_gaussian((draws, 3, 3), rng)
        u = linalg.haar_from_gaussian(z)
        mean = np.mean(np.abs(u[:, 0, 0]) ** 2)
        three_sigma = 3 * np.sqrt((1 / 18) / draws)
        assert abs(mean - 1 / 3) < three_sigma

    def test_invalid_dimension(self):
        # the factors' sizes are the config's antenna counts, which must be at least 1
        with pytest.raises(InvalidInputError, match="n = 0"):
            ScenarioConfig(N=0)


SPECTRA = {
    "positive": (0.3, 1.7, 4.2),
    "indefinite": (-2.5, 0.4, 3.1),
    "double-top": (0.5, 2.0, 2.0),
    "double-bottom": (-1.0, -1.0, 3.0),
    "triple": (1.5, 1.5, 1.5),
    "near-double-1e-7": (0.5, 2.0, 2.0 + 1e-7),
    "near-double-1e-9": (0.5, 2.0 - 1e-9, 2.0),
    "rank-1": (0.0, 0.0, 3.0),
    "rank-2": (0.0, 1.0, 3.0),
    "zero": (0.0, 0.0, 0.0),
    "spread-1e10": (1e-10, 1.0, 1e10),
}


class TestHermitianEigvals:
    """The eigenvalue-only kernel: the 3 x 3 closed form against LAPACK, and its routing."""

    @pytest.mark.parametrize("spectrum", SPECTRA.values(), ids=SPECTRA)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e102])
    def test_matches_lapack_on_spectrum(self, spectrum, scale):
        a = np.stack([with_spectrum(np.multiply(spectrum, scale), seed) for seed in range(8)])
        assert_matches_lapack(a)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e102])
    def test_matches_lapack_on_random_matrices(self, scale):
        rng = np.random.default_rng(17)
        z = scale * random_complex(rng, (2000, 3, 3))
        assert_matches_lapack(z)  # indefinite, and not Hermitian: its Hermitian part
        assert_matches_lapack(z @ linalg.ch(z / scale))  # positive semidefinite
        assert_matches_lapack(z.real)

    def test_ascending(self):
        w = hermitian_eigvals(random_complex(np.random.default_rng(2), (500, 3, 3)))
        assert np.all(np.diff(w, axis=-1) >= 0)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.integers(-150, 100))
    @ORACLE
    def test_unitary_times_diagonal(self, spectrum, seed, exponent):
        assert_matches_lapack(with_spectrum(np.multiply(spectrum, 10.0 ** exponent), seed)[None])

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_other_sizes_are_lapack_bit_for_bit(self, n):
        a = random_complex(np.random.default_rng(n), (50, n, n))
        assert np.array_equal(hermitian_eigvals(a), lapack(a))

    def test_near_degenerate_rows_go_to_lapack_bit_for_bit(self, monkeypatch):
        a = np.stack([with_spectrum((-1.0, 0.5, 2.0), seed) for seed in range(12)])
        routed = [1, 4, 6, 10]
        for row, name in zip([4, 6, 7, 10], ["double-top", "near-double-1e-9", "zero", "rank-1"]):
            a[row] = with_spectrum(SPECTRA[name], row)
        a[routed[0]] = 1.5 * np.eye(3)  # an exact triple: zero spread
        assert not np.any(a[7])  # the zero spectrum is a zero row: answered without LAPACK
        want = lapack(a)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m) or eigvalsh(m))
        got = hermitian_eigvals(a)
        assert len(calls) == 1 and np.array_equal(calls[0], hermitize(a[routed]))
        assert got[routed + [7]].tobytes() == want[routed + [7]].tobytes()

    def test_nan_row_raises_invalid_input(self):
        a = random_complex(np.random.default_rng(6), (4, 3, 3))
        a[2, 0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            hermitian_eigvals(a)

    def test_separated_batch_makes_no_lapack_call(self, monkeypatch):
        a = np.stack([with_spectrum((-1.0, 0.5, 2.0), seed) for seed in range(64)])

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert hermitian_eigvals(a).shape == (64, 3)

    def test_row_alone_gives_the_same_bits(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (40, 3, 3))
        a[[3, 17]] = with_spectrum(SPECTRA["double-bottom"], 3), np.zeros((3, 3))
        batch = hermitian_eigvals(a)
        for row in range(len(a)):
            assert np.array_equal(hermitian_eigvals(a[row:row + 1])[0], batch[row])
            assert np.array_equal(hermitian_eigvals(a[row]), batch[row])
        assert np.array_equal(hermitian_eigvals(a.reshape(4, 10, 3, 3)).reshape(40, 3), batch)


def degeneracy(spectrum):
    """1 - |r| of a 3 x 3 Hermitian matrix with this spectrum: r = det(B) / (2 p^3) for
    its shifted part B = A - trace / 3, the quantity DEGENERACY_FLOOR bounds."""
    b = np.asarray(spectrum, dtype=float) - np.mean(spectrum)
    return 1.0 - abs(np.prod(b) / (2.0 * np.sqrt(np.sum(b * b) / 6.0) ** 3))


def lapack_calls(monkeypatch):
    """Record the matrices each np.linalg.eigh call receives."""
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    return calls


def assert_eigh_oracle(a, monkeypatch):
    """hermitian_eigh against the definition: A v = lambda v within 1e-14 of the row's
    largest |eigenvalue|, orthonormal columns within 1e-12, ascending eigenvalues that
    are bit for bit hermitian_eigvals' on every row, and each row's bits the same when it
    is solved alone. Returns which rows LAPACK solved."""
    calls = lapack_calls(monkeypatch)
    w, v = hermitian_eigh(a)
    h = hermitize(a)
    sent = np.concatenate(calls) if calls else np.empty((0, 3, 3))
    routed = np.array([any(np.array_equal(h[row], m) for m in sent)
                       for row in np.ndindex(a.shape[:-2])]).reshape(a.shape[:-2])
    assert sum(map(len, calls)) == routed.sum()
    assert w.shape == a.shape[:-1] and v.shape == a.shape
    scale = np.max(np.abs(w), axis=-1)
    residual = np.linalg.norm(h @ v - v * w[..., None, :], axis=-2).max(axis=-1)
    assert np.all(residual <= 1e-14 * scale)
    gram = linalg.ch(v) @ v - np.eye(3)
    assert np.all(np.linalg.norm(gram, axis=(-2, -1)) <= 1e-12)
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert w.tobytes() == hermitian_eigvals(a).tobytes()
    for row in np.ndindex(a.shape[:-2]):
        alone_w, alone_v = hermitian_eigh(a[row])
        assert np.array_equal(alone_w, w[row]) and np.array_equal(alone_v, v[row])
    return routed


SCALES = [1e-100, 1.0, 1e100]


class TestHermitianEigh:
    """The eigenvector kernel: the 3 x 3 closed form against the eigenpair definition,
    and the rows it leaves to LAPACK."""

    @pytest.mark.parametrize("rank", [3, 2, 1], ids=["wishart", "rank-2", "rank-1"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_wishart_batches(self, rank, scale, monkeypatch):
        z = random_complex(np.random.default_rng(rank), (200, 3, rank))
        routed = assert_eigh_oracle(scale * (z @ linalg.ch(z)), monkeypatch)
        # distinct eigenvalues leave LAPACK few rows; a double zero leaves it all
        assert np.mean(routed) < 0.1 if rank > 1 else np.all(routed)

    @pytest.mark.parametrize("scale", SCALES)
    def test_near_diagonal_rows(self, scale, monkeypatch):
        rng = np.random.default_rng(5)
        a = scale * (np.diag([1.0, 2.0, 3.5]) + 1e-9 * random_complex(rng, (50, 3, 3)))
        assert not np.any(assert_eigh_oracle(a, monkeypatch))
        v = hermitian_eigh(a)[1]
        assert np.all(np.abs(np.abs(np.diagonal(v, axis1=-2, axis2=-1)) - 1.0) < 1e-8)

    def test_near_repeated_rows_on_both_sides_of_the_floor(self, monkeypatch):
        # spectra whose 1 - |r| lies within 4x of the floor, but not within 25% of it
        deltas = [delta for delta in np.geomspace(1e-5, 1.0, 400)
                  if 0.25 <= degeneracy((0.5, 2.0, 2.0 + delta)) / DEGENERACY_FLOOR <= 4.0
                  and abs(degeneracy((0.5, 2.0, 2.0 + delta)) / DEGENERACY_FLOOR - 1) > 0.25]
        spectra = [(0.5, 2.0, 2.0 + delta) for delta in deltas]
        spectra += [(-2.0 - delta, -2.0, 0.5) for delta in deltas]  # the pair at the bottom
        a = np.stack([with_spectrum(spectrum, seed) for seed, spectrum in enumerate(spectra)])
        below = np.array([degeneracy(s) < DEGENERACY_FLOOR for s in spectra])
        assert below.any() and (~below).any()
        assert np.array_equal(assert_eigh_oracle(a, monkeypatch), below)

    def test_zero_and_identity_rows_match_lapack_bit_for_bit(self, monkeypatch):
        # the identity goes to LAPACK; the zero row is answered without it, with its bits
        a = random_complex(np.random.default_rng(9), (6, 3, 3))
        a[1], a[4] = 0.0, np.eye(3)
        want = np.linalg.eigh(hermitize(a[[1, 4]]))
        w, v = hermitian_eigh(a)
        assert w[[1, 4]].tobytes() == want[0].tobytes()
        assert v[[1, 4]].tobytes() == want[1].tobytes()
        assert np.array_equal(np.flatnonzero(assert_eigh_oracle(a, monkeypatch)), [4])

    def test_unbatched_matrix_has_eigenvector_columns(self, monkeypatch):
        a = random_complex(np.random.default_rng(10), (3, 3))
        w, v = hermitian_eigh(a)
        assert w.shape == (3,) and v.shape == (3, 3)
        for k in range(3):  # column k, not row k, belongs to w[k]
            residual = hermitize(a) @ v[:, k] - w[k] * v[:, k]
            assert np.linalg.norm(residual) <= 1e-14 * np.abs(w).max()
        batch_w, batch_v = hermitian_eigh(a[None])
        assert np.array_equal(w, batch_w[0]) and np.array_equal(v, batch_v[0])
        assert not assert_eigh_oracle(a, monkeypatch)

    def test_real_input_gives_real_vectors(self, monkeypatch):
        a = np.random.default_rng(11).standard_normal((40, 3, 3))
        assert hermitian_eigh(a)[1].dtype == np.float64
        assert_eigh_oracle(a, monkeypatch)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_other_sizes_are_lapack_bit_for_bit(self, n):
        # eigenvalues from eigvalsh (hermitian_eigvals' source), vectors from eigh
        a = random_complex(np.random.default_rng(n), (50, n, n))
        w, v = hermitian_eigh(a)
        assert np.array_equal(w, lapack(a))
        assert np.array_equal(v, np.linalg.eigh(hermitize(a))[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_eigenvalues_are_hermitian_eigvals_bit_for_bit(self, n, dtype):
        # a caller may read either kernel's eigenvalues (structure 1's rate does, by its
        # metric set) and get the same bits: random, zero, identity and near-degenerate
        # rows, the last two of which LAPACK solves at n = 3
        rng = np.random.default_rng(40 + n)
        a = random_complex(rng, (60, n, n))
        a = a if dtype is complex else a.real.copy()
        a[3], a[5] = 0.0, np.eye(n)
        for row, spectrum in enumerate([(2.0, 2.0 + 1e-9, 0.5, -1.0, 3.0),
                                        (0.0, 0.0, 1.0, 0.0, 4.0), (1.0, 1.0, 1.0, 2.0, 2.0)]):
            near = with_spectrum(spectrum[:n], 10 + row)
            a[7 + row] = near if dtype is complex else near.real
        assert hermitian_eigh(a)[0].tobytes() == hermitian_eigvals(a).tobytes()
        for row in a[:12]:
            assert hermitian_eigh(row)[0].tobytes() == hermitian_eigvals(row).tobytes()

    def test_separated_batch_makes_no_lapack_call(self, monkeypatch):
        a = np.stack([with_spectrum((-1.0, 0.5, 2.0), seed) for seed in range(64)])
        assert not np.any(assert_eigh_oracle(a, monkeypatch))


ZERO_ROWS = {
    "complex": np.zeros((4, 3, 3), dtype=complex),
    "real": np.zeros((4, 3, 3)),
    "one-matrix": np.zeros((3, 3), dtype=complex),
    "anti-hermitian": 1j * np.eye(3)[None] + np.array([[0, 2, 0], [-2, 0, 0], [0, 0, 0]]),
}


@pytest.mark.parametrize("a", ZERO_ROWS.values(), ids=ZERO_ROWS)
def test_zero_rows_are_answered_without_lapack(a, monkeypatch):
    # rows whose Hermitian part is zero: eigenvalues +0 and the identity, the bits
    # LAPACK returns for them, with no LAPACK call
    want_w, want_v = np.linalg.eigh(hermitize(a))
    assert not np.any(np.signbit(want_w)) and np.array_equal(want_v, np.broadcast_to(
        np.eye(3), want_v.shape))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    w, v = hermitian_eigh(a)
    for got, want in ((w, want_w), (v, want_v), (hermitian_eigvals(a), want_w)):
        assert got.dtype == want.dtype and got.shape == want.shape
        got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
        assert got.tobytes() == want.tobytes()


KERNELS = {
    "hermitian_eigvals": hermitian_eigvals,
    "hermitian_eigh": hermitian_eigh,
    "top_eigpair": top_eigpair,
    "harvested_power": lambda mats: harvested_power(mats, 0.0, 0.0),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)],
                         ids=["inf", "-inf", "nan", "imaginary-inf"])
@pytest.mark.parametrize("n", [3, 2])
def test_non_finite_row_raises_invalid_input(kernel, value, n, monkeypatch):
    # the check runs before LAPACK sees the row, and warns nowhere (warnings fail the suite)
    a = random_complex(np.random.default_rng(12), (5, n, n))
    a[3, n - 1, 0] = value

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(InvalidInputError):
        kernel(a)


def test_eigen_solves_live_only_in_linalg():
    # every eigen-solve goes through hermitian_eigvals or hermitian_eigh, so each
    # formula that reads eigenvalues or eigenvectors keeps one solver
    solvers = {"eigh", "eigvalsh"}
    package = pathlib.Path(linalg.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            for name in solvers.intersection(names):
                found.setdefault(path.name, set()).add(name)
    assert found == {"linalg.py": solvers}
