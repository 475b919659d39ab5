import numpy as np
import pytest

from nuds.linalg import (
    NumericalError,
    SingularMatrixError,
    as_matrix,
    as_vector,
    complex_to_pair,
    hermitian_eigs,
    matrix_from_pairs,
    norm,
    pair_to_complex,
    require_solution,
    solve,
    spectral_radius,
    vector_from_pairs,
    vector_to_pairs,
)
from nuds.tolerances import Tolerances

from oracles import inner


def test_as_vector_shapes_and_finiteness():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.complex128 and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


def test_as_matrix_shapes():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[1, np.nan]])


def test_inner_conjugate_linearity():
    u = as_vector([1 + 1j, 2])
    v = as_vector([3, -1j])
    # <u, v> is linear in u, conjugate-linear in v
    assert inner(u, v) == pytest.approx((1 + 1j) * 3 + 2 * np.conj(-1j))
    assert inner(2j * u, v) == pytest.approx(2j * inner(u, v))
    assert inner(u, 2j * v) == pytest.approx(-2j * inner(u, v))
    assert inner(v, u) == pytest.approx(np.conj(inner(u, v)))
    with pytest.raises(ValueError):
        inner(u, as_vector([1, 2, 3]))


def test_hermitian_eigs_hand_checked():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3
    vals, V = hermitian_eigs(as_matrix([[2, 1], [1, 2]]))
    np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)
    # the eigenvectors (1, -1)/sqrt 2 and (1, 1)/sqrt 2, up to a phase each
    np.testing.assert_allclose(np.abs(V), np.full((2, 2), 0.5**0.5), atol=1e-12)
    np.testing.assert_allclose(V[0] * V[1].conj(), [-0.5, 0.5], atol=1e-12)


def test_hermitian_eigs_trace_and_det_invariants():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a @ a.conj().T
    vals, V = hermitian_eigs(h)
    assert np.all(np.diff(vals) >= 0)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-12)
    np.testing.assert_allclose(h @ V, V * vals, atol=1e-10 * float(np.linalg.norm(h)))
    assert float(np.sum(vals)) == pytest.approx(float(np.trace(h).real), rel=1e-12)
    sign, logdet = np.linalg.slogdet(h)
    assert float(np.sum(np.log(vals))) == pytest.approx(float(logdet), rel=1e-10)


def test_hermitian_eigs_rejects_non_hermitian():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        hermitian_eigs(as_matrix([[0, 1], [0, 0]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_hermitian_eigs_rejects_non_finite_input(bad):
    # NaN passes a comparison such as `asym > bound`, so the input is
    # checked for finiteness before either tolerance check.
    with pytest.raises(NumericalError, match="non-finite entries"):
        hermitian_eigs(np.array([[bad, 0], [0, 1]], dtype=complex))


def test_hermitian_eigs_rejects_a_nan_decomposition(monkeypatch):
    def nan_eigh(M):
        return np.full(2, np.nan), np.full((2, 2), np.nan, dtype=complex)

    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    with pytest.raises(NumericalError, match="eigendecomposition residual nan"):
        hermitian_eigs(as_matrix([[2, 1], [1, 2]]))


def test_require_solution_rejects_a_nan_solution():
    with pytest.raises(NumericalError, match="solve residual nan"):
        require_solution(np.eye(2), np.array([np.nan, 0.0]), np.ones(2), tol=Tolerances())


def test_herm_tol_override_reaches_hermitian_eigs():
    # ||M - M*|| = 1.4e-12 against a scale of ~3.2: inside the default
    # HERM_TOL (1e-10), outside an override of 1e-14.
    M = as_matrix([[2, 1], [1 + 1e-12, 2]])
    np.testing.assert_allclose(hermitian_eigs(M)[0], [1.0, 3.0], atol=1e-11)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(M, tol=Tolerances(HERM_TOL=1e-14))


def test_solve_vandermonde_against_adjugate():
    # V(x0,x1,x2) with rows [1, x, x^2]; invert by adjugate/determinant by hand.
    x = np.array([0.5, 1.25, -2.0])
    V = np.vander(x, 3, increasing=True)
    b = np.array([1.0, -1.0, 2.5])
    det = (x[1] - x[0]) * (x[2] - x[0]) * (x[2] - x[1])
    adj = np.array(
        [
            [x[1] * x[2] * (x[2] - x[1]), -x[0] * x[2] * (x[2] - x[0]), x[0] * x[1] * (x[1] - x[0])],
            [-(x[2] ** 2 - x[1] ** 2), x[2] ** 2 - x[0] ** 2, -(x[1] ** 2 - x[0] ** 2)],
            [x[2] - x[1], -(x[2] - x[0]), x[1] - x[0]],
        ]
    )
    expected = adj @ b / det
    np.testing.assert_allclose(solve(V, b), expected, atol=1e-12)


def test_solve_multiple_right_hand_sides():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 3))
    x = solve(m, b)
    assert x.shape == (4, 3)
    np.testing.assert_allclose(m @ x, b, atol=1e-10)


def test_solve_singular_reports_pivot():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as exc:
        solve(m, np.array([1.0, 0.0]))
    assert exc.value.pivot_index is not None
    assert exc.value.pivot == 0.0  # the second row of the LU cancels exactly
    assert isinstance(exc.value, NumericalError)


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        solve(np.ones((2, 3)), np.ones(2))


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)
    # nilpotent Jordan block
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)
    # rotation has modulus-one eigenvalues
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert spectral_radius(rot) == pytest.approx(1.0)


def test_complex_pair_round_trip():
    z = 1.5 - 2.25j
    assert complex_to_pair(z) == [1.5, -2.25]
    assert pair_to_complex([1.5, -2.25]) == z
    with pytest.raises(ValueError):
        pair_to_complex([1.0])
    with pytest.raises(ValueError):
        pair_to_complex("nope")


def test_vector_and_matrix_codecs_round_trip():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_array_equal(vector_from_pairs(vector_to_pairs(v)), v)
    np.testing.assert_array_equal(matrix_from_pairs(vector_to_pairs(m)), m)
    assert vector_to_pairs(v)[0] == [v[0].real, v[0].imag]


# Malformed or unusual [re, im] pairs: (pair, error message or the value
# it is read as).  The messages and the accepted values are those of the
# pair-by-pair conversion (pair_to_complex), which names the bad pair.
BIG = 10**400  # a JSON integer too large for a float
PAIR_CASES = {
    "null": ([None, 0.0], "expected a [re, im] pair of numbers, got [None, 0.0]"),
    "true": ([True, 0.0], 1.0),
    "numeric-string": (["1.5", 0.0], 1.5),
    "other-string": (["abc", 0.0], "could not convert string to float: 'abc'"),
    "nested-list": ([[0, 0], 0.0], "expected a [re, im] pair of numbers, got [[0, 0], 0.0]"),
    "object": ([{}, 0.0], "expected a [re, im] pair of numbers, got [{}, 0.0]"),
    "1e400-integer": ([BIG, 0.0], f"expected a [re, im] pair of numbers, got [{BIG}, 0.0]"),
    "string-for-pair": ("12", "expected a [re, im] pair, got '12'"),
    "1-element": ([1.0], "expected a [re, im] pair, got [1.0]"),
    "3-element": ([1.0, 2.0, 3.0], "expected a [re, im] pair, got [1.0, 2.0, 3.0]"),
    "NaN": ([float("nan"), 0.0], "{kind} entries must be finite (no NaN/Inf)"),
    "Infinity": ([0.0, float("inf")], "{kind} entries must be finite (no NaN/Inf)"),
}


@pytest.mark.parametrize("case", PAIR_CASES)
def test_codecs_read_malformed_pairs_like_the_pair_walk(case):
    pair, expected = PAIR_CASES[case]
    vector = [[0.5, -0.0], pair, [2.0, 1.0]]
    matrix = [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 2.0], pair]]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            vector_from_pairs(vector)
        assert str(exc.value) == expected.replace("{kind}", "vector")
        with pytest.raises(ValueError) as exc:
            matrix_from_pairs(matrix)
        assert str(exc.value) == expected.replace("{kind}", "matrix")
    else:
        assert vector_from_pairs(vector)[1] == expected
        assert matrix_from_pairs(matrix)[1, 1] == expected


def test_matrix_codec_rejects_ragged_and_non_list_rows():
    ragged = [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]]
    with pytest.raises(ValueError) as exc:
        matrix_from_pairs(ragged)
    assert str(exc.value) == "row 1 has 1 entries, expected 2"
    for row in ("ab", 5, None, {"a": 1}):
        with pytest.raises(ValueError) as exc:
            matrix_from_pairs([[[1.0, 0.0]], row])
        assert str(exc.value) == f"expected a list of [re, im] pairs, got {row!r}"


def test_codecs_match_the_pair_walk_bit_for_bit():
    # Signed zeros, integers, subnormals and large exponents, read through
    # the array path and through one pair_to_complex call per entry.
    rng = np.random.default_rng(64)
    values = rng.standard_normal((64, 64, 2)).tolist()
    specials = [-0.0, 0.0, 0, -3, 2**53 + 1, 5e-324, -1.7e308, 1e-300]
    for k, x in enumerate(specials * 8):
        values[k % 64][(7 * k) % 64][k % 2] = x
    M = matrix_from_pairs(values)
    ref = np.array([[pair_to_complex(p) for p in row] for row in values])
    assert M.view(np.int64).tobytes() == ref.view(np.int64).tobytes()
    v = vector_from_pairs(values[0])
    assert v.view(np.int64).tobytes() == ref[0].view(np.int64).tobytes()


def test_encoders_match_complex_to_pair():
    # repr tells -0.0 from 0.0, which == does not
    rng = np.random.default_rng(9)
    M = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    M[0, 0] = complex(-0.0, 0.0)
    M[1, 2] = complex(0.0, -0.0)
    for A in (M, M.T):  # M.T is a non-contiguous view, as for the W columns
        ref = [[complex_to_pair(z) for z in row] for row in A]
        assert repr(vector_to_pairs(A)) == repr(ref)
    assert repr(vector_to_pairs(M[:, 0])) == repr([complex_to_pair(z) for z in M[:, 0]])
    assert "-0.0" in repr(vector_to_pairs(M)[:2])


def test_norm_is_the_plain_norm_unless_finite_entries_overflow_it():
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))) * 10.0 ** rng.integers(
        -150, 150, (6, 5)
    )
    for axis in (None, 1):
        assert np.array_equal(norm(x, axis=axis), np.linalg.norm(x, axis=axis))
    big = x.copy()
    big[1] = x[1] / np.abs(x[1]).max() * 2.0**1000  # row norm ~2^1000, squares overflow
    big[3, 2] = np.inf
    rows = norm(big, axis=1)
    assert np.array_equal(rows[[0, 2, 4, 5]], np.linalg.norm(x[[0, 2, 4, 5]], axis=1))
    assert rows[1] == pytest.approx(np.linalg.norm(big[1] * 2.0**-1000) * 2.0**1000, rel=1e-15)
    assert rows[3] == np.inf
    assert float(norm(big[1])) == rows[1]
    assert float(norm(np.full(4, 1e308))) == np.inf  # beyond the float range
