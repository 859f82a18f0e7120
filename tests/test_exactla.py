"""Exact integer linear algebra, cross-checked against naive oracles.

The oracles here take deliberately different routes: the characteristic
polynomial is recomputed by cofactor expansion over polynomial entries,
and ranks are recomputed by plain Gaussian elimination over Fractions.
"""

import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitspectra.exactla import (
    SCREEN_PRIME,
    IntMatrix,
    IntPolynomial,
    berkowitz_charpoly,
    char_poly,
    charpoly_mod,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import all_pairs_distances, build_lcr
from orbitspectra.spectral import (
    lcr_quotient_closed_form,
    lcr_stabilizer_partition,
    quotient_matrix,
)

from conftest import det, fraction_rank, rank, shift_diagonal

small_entries = st.integers(min_value=-8, max_value=8)


def square_matrices(max_n=4, entries=small_entries, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(IntMatrix)


def rect_matrices(max_rows=5, max_cols=5):
    return st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(small_entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    ).map(IntMatrix)


def poly_add(a, b):
    ca, cb = list(a.coefficients), list(b.coefficients)
    if len(ca) < len(cb):
        ca, cb = cb, ca
    return IntPolynomial(
        [x + (cb[i] if i < len(cb) else 0) for i, x in enumerate(ca)]
    )


def poly_det(cells):
    """Determinant of a matrix of IntPolynomial entries, by cofactor
    expansion along the first row of each minor. A minor keeps the last
    rows, so the columns it keeps name it, and each is expanded once:
    n 2^n products instead of n!."""
    n = len(cells)
    minors = {(): IntPolynomial.one()}

    def minor_det(columns):
        if columns not in minors:
            r = n - len(columns)
            total = IntPolynomial([])
            for t, j in enumerate(columns):
                term = cells[r][j].multiply(minor_det(columns[:t] + columns[t + 1:]))
                if t % 2:
                    term = IntPolynomial([-c for c in term.coefficients])
                total = poly_add(total, term)
            minors[columns] = total
        return minors[columns]

    return minor_det(tuple(range(n)))


def naive_char_poly(m):
    """det(xI - m) by cofactor expansion; independent of Berkowitz."""
    n = m.rows
    cells = [
        [
            IntPolynomial([-m.entries[i][j], 1]) if i == j else IntPolynomial([-m.entries[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return poly_det(cells)


class TestCharPoly:
    def test_one_by_one_zero(self):
        assert char_poly(IntMatrix([[0]])) == IntPolynomial([0, 1])

    def test_identity_two(self):
        assert char_poly(IntMatrix([[1, 0], [0, 1]])) == IntPolynomial([1, -2, 1])

    def test_closed_form_quotient_at_n4(self):
        # (x+1)^3 (x-1) (x+5)^2 (x-19), expanded
        expected = IntPolynomial.from_roots([-1, -1, -1, 1, -5, -5, 19])
        assert char_poly(lcr_quotient_closed_form(4)) == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            char_poly(IntMatrix([[1, 2]]))

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_expansion(self, m):
        assert char_poly(m) == naive_char_poly(m)

    @given(square_matrices(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_structure_constants(self, m):
        p = char_poly(m)
        n = m.rows
        assert p.degree == n
        assert p.leading_coefficient == 1
        if n >= 1:
            assert p.coefficients[n - 1] == -m.trace()
        assert p.coefficients[0] == (-1) ** n * det(m)


# zero patterns that leave Hessenberg columns without a pivot
SHAPES = {
    "full": lambda i, j, n: True,
    "diagonal": lambda i, j, n: i == j,
    "upper": lambda i, j, n: i <= j,
    "lower": lambda i, j, n: i >= j,
    "block": lambda i, j, n: (i < n // 2) == (j < n // 2),
}


def berkowitz_mod(rows, p):
    return [c % p for c in berkowitz_charpoly(rows)]


class TestCharPolyMod:
    def test_empty_matrix(self):
        assert charpoly_mod([], SCREEN_PRIME) == [1]

    def test_closed_form_quotient_at_n4(self):
        rows = lcr_quotient_closed_form(4).entries
        for p in (SCREEN_PRIME, 7):
            assert charpoly_mod(rows, p) == berkowitz_mod(rows, p)

    def test_zero_residue_at_every_eigenvalue(self):
        rows = all_pairs_distances(build_lcr(5)).entries
        chi = IntPolynomial(charpoly_mod(rows, SCREEN_PRIME))
        for lam in (-6, -2, -1, 1, 33):
            assert chi.evaluate(lam) % SCREEN_PRIME == 0
        assert chi.evaluate(0) % SCREEN_PRIME != 0

    @given(
        square_matrices(max_n=8, min_n=0),
        st.sampled_from(sorted(SHAPES)),
        st.sampled_from([SCREEN_PRIME, 7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_berkowitz_mod_p(self, m, shape, p):
        keep = SHAPES[shape]
        n = m.rows
        rows = [
            [x if keep(i, j, n) else 0 for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)
        ]
        assert charpoly_mod(rows, p) == berkowitz_mod(rows, p)


def mirrored(n, flat):
    """The symmetric n x n list of lists whose lower triangle, row by row, is flat."""
    rows = [[0] * n for _ in range(n)]
    cells = ((i, j) for i in range(n) for j in range(i + 1))
    for (i, j), x in zip(cells, flat):
        rows[i][j] = rows[j][i] = x
    return rows


def symmetric_matrices(max_n, min_n=0):
    """Symmetric square matrices as lists of lists, negative entries included."""
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            small_entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda flat: mirrored(n, flat))
    )


# (row, column offset, change): which off-diagonal entry perturbed() moves, and by how much
perturbations = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.sampled_from((-2, -1, 1, 2)),
)


def perturbed(rows, perturbation):
    """A copy of rows, order >= 2, with one off-diagonal entry changed."""
    i, offset, delta = perturbation
    n = len(rows)
    i %= n
    j = (i + 1 + offset % (n - 1)) % n
    out = [list(row) for row in rows]
    out[i][j] += delta
    return out


# the SHAPES patterns that keep a symmetric matrix symmetric
SYMMETRIC_SHAPES = ("full", "diagonal", "block")

BOTH_PATHS = pytest.mark.parametrize("perturb", [False, True], ids=["symmetric", "near-symmetric"])


@st.composite
def mixed_row_matrices(draw, min_n, max_n):
    """Square matrices whose rows are each constant, one value with at most
    two other entries, or all distinct; then kept, transposed (few-valued
    columns) or made symmetric by mirroring the upper triangle. Only the
    symmetric form can take the flat mat-vec; the other two keep the
    direct form."""
    n = draw(st.integers(min_n, max_n))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("constant", "few", "distinct")))
        if kind == "distinct":
            row = draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n, unique=True))
        else:
            row = [draw(small_entries)] * n
            if kind == "few":
                for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
                    row[j] = draw(small_entries)
        rows.append(row)
    form = draw(st.sampled_from(("rows", "columns", "symmetric")))
    if form == "columns":
        rows = [list(col) for col in zip(*rows)]
    elif form == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return rows


class TestGroupedBerkowitz:
    """A symmetric block whose rows hold few distinct values takes the flat
    mat-vec, which sums the vector over each value's columns instead of
    multiplying entry by entry; the polynomial is the same."""

    @given(mixed_row_matrices(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        expected = list(naive_char_poly(IntMatrix(rows)).coefficients)
        assert berkowitz_charpoly(rows) == expected
        assert berkowitz_charpoly(tuple(map(tuple, rows))) == expected

    @given(mixed_row_matrices(12, 20))
    @settings(max_examples=30, deadline=None)
    def test_matches_determinants_at_order_plus_one_points(self, rows):
        # two monic polynomials of degree n agreeing at n + 1 points are equal;
        # at these orders the wider trailing blocks of a symmetric matrix
        # with constant and few-valued rows take the flat form
        m = IntMatrix(rows)
        n = m.rows
        p = IntPolynomial(berkowitz_charpoly(rows))
        assert p.degree == n and p.leading_coefficient == 1
        for x in range(n + 1):
            assert p.evaluate(x) == (-1) ** n * det(shift_diagonal(m, x)), x


class TestSymmetricBerkowitz:
    """Symmetric input shares the right vector as the left one; one changed
    entry sends the same matrix down the general path."""

    def test_orders_zero_one_two(self):
        assert berkowitz_charpoly([]) == [1]
        assert berkowitz_charpoly([[-5]]) == berkowitz_charpoly(((-5,),)) == [5, 1]
        # x^2 - 3x + (2 - 9), then x^2 - 3x + (2 - 6)
        assert berkowitz_charpoly([[1, -3], [-3, 2]]) == [-7, -3, 1]
        assert berkowitz_charpoly(((1, -3), (-3, 2))) == [-7, -3, 1]
        assert berkowitz_charpoly([[1, -3], [-2, 2]]) == [-4, -3, 1]
        assert berkowitz_charpoly(((1, -2), (-3, 2))) == [-4, -3, 1]

    @BOTH_PATHS
    @given(symmetric_matrices(max_n=5), perturbations)
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_expansion(self, perturb, rows, perturbation):
        if perturb:
            assume(len(rows) >= 2)
            rows = perturbed(rows, perturbation)
        expected = [1] if not rows else list(naive_char_poly(IntMatrix(rows)).coefficients)
        assert berkowitz_charpoly(rows) == expected
        assert berkowitz_charpoly(tuple(map(tuple, rows))) == expected

    @BOTH_PATHS
    @given(
        symmetric_matrices(max_n=10),
        perturbations,
        st.sampled_from(SYMMETRIC_SHAPES),
        st.sampled_from([SCREEN_PRIME, 7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_charpoly_mod(self, perturb, rows, perturbation, shape, p):
        keep = SHAPES[shape]
        n = len(rows)
        rows = [
            [x if keep(i, j, n) else 0 for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        if perturb:
            assume(n >= 2)
            rows = perturbed(rows, perturbation)
        expected = charpoly_mod(rows, p)
        assert berkowitz_mod(rows, p) == expected
        assert berkowitz_mod(tuple(map(tuple, rows)), p) == expected


def cauchy_bound(p):
    """1 + max |c_i| / |c_lead| over the lower coefficients, rounded up:
    every root r of p has |r| < it."""
    lead = abs(p.leading_coefficient)
    return 1 - (-max(map(abs, p.coefficients[:-1])) // lead)


def taylor_shift(coefficients, a):
    """Coefficients of p(x + a), constant term first, from p's."""
    c = list(coefficients)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def sign_changes(coefficients):
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# a scan of [-bound, bound] this wide takes well under a second
SCANNABLE = 10**6


class TestIntegerRoots:
    def test_full_factorization_with_multiplicities(self):
        p = IntPolynomial.from_roots([-5, -5, 19, -1, -1, -1, 1])
        roots, residual = integer_roots(p, bound=19)
        assert roots == [(-5, 2), (-1, 3), (1, 1), (19, 1)]
        assert residual == IntPolynomial.one()

    def test_irreducible_is_untouched(self):
        p = IntPolynomial([-2, 0, 1])  # x^2 - 2
        roots, residual = integer_roots(p, bound=2)
        assert roots == []
        assert residual == p

    def test_pure_power_of_x(self):
        roots, residual = integer_roots(IntPolynomial([0, 0, 0, 1]), bound=0)
        assert roots == [(0, 3)]
        assert residual == IntPolynomial.one()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            integer_roots(IntPolynomial([]), bound=1)

    def test_bound_limits_candidates(self):
        p = IntPolynomial.from_roots([100])
        roots, residual = integer_roots(p, bound=10)
        assert roots == [] and residual == p
        roots, residual = integer_roots(p, bound=100)
        assert roots == [(100, 1)]

    def test_large_roots_need_a_bound(self):
        p = IntPolynomial([-10**10, 0, 1])
        roots, residual = integer_roots(p, bound=10**5)
        assert roots == [(-100000, 1), (100000, 1)]
        assert residual == IntPolynomial.one()

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=4),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, roots_in, c):
        # (x^2 + c) has no real roots, so no integer ones
        residual_in = IntPolynomial([c, 0, 1])
        p = IntPolynomial.from_roots(roots_in).multiply(residual_in)
        roots, residual = integer_roots(p, bound=6)
        rebuilt = residual
        for r, mult in roots:
            rebuilt = rebuilt.multiply(IntPolynomial.from_roots([r] * mult))
        assert rebuilt == p
        assert residual == residual_in
        assert sum(m for _, m in roots) == len(roots_in)

    def test_rho_finds_what_the_cauchy_bound_finds(self, corpus):
        # Callers pass rho, the largest row sum of D, for the roots of chi_D and
        # chi_Q. The Cauchy bound holds for any polynomial: it is at least rho
        # here, and scanning up to it finds no root that rho misses. Where that
        # scan is too wide (chi_D of the larger graphs), Descartes' rule of
        # signs shows the same: no sign change in chi(x + rho) or chi(-x - rho)
        # leaves chi no real root outside [-rho, rho]. Shifted by rho - 1, the
        # root rho itself must show as a sign change.
        graphs = [(g, pi) for _, g, pi, _ in corpus]  # lcr(4..6) among them
        graphs += [(build_lcr(n), lcr_stabilizer_partition(n)) for n in (7, 8)]
        for g, pi in graphs:
            q = quotient_matrix(g, pi)
            rho = max(q.source.row_sums())
            for chi in (char_poly(q.source), char_poly(q.matrix)):
                cauchy = cauchy_bound(chi)
                assert cauchy >= rho
                at_minus_x = [c if k % 2 == 0 else -c for k, c in enumerate(chi.coefficients)]
                assert sign_changes(taylor_shift(chi.coefficients, rho)) == 0
                assert sign_changes(taylor_shift(chi.coefficients, rho - 1)) > 0
                assert sign_changes(taylor_shift(at_minus_x, rho)) == 0
                if cauchy <= SCANNABLE:
                    assert integer_roots(chi, bound=cauchy) == integer_roots(chi, bound=rho)


class TestRank:
    def test_zero_matrix(self):
        assert rank(IntMatrix([[0] * 5] * 5)) == 0

    def test_identity(self):
        assert rank(IntMatrix([[int(i == j) for j in range(7)] for i in range(7)])) == 7

    def test_perron_multiplicity_via_rank(self):
        d = all_pairs_distances(build_lcr(4))
        assert rank(shift_diagonal(d, 19)) == 11

    @given(rect_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_gauss(self, m):
        assert rank(m) == fraction_rank(m)

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(IntMatrix(zip(*m.entries)))


class TestEigenMultiplicity:
    def test_identity(self):
        assert eigen_multiplicity(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 1) == 3

    def test_lcr4_perron_is_simple(self):
        d = all_pairs_distances(build_lcr(4))
        assert eigen_multiplicity(d, 19) == 1

    def test_non_eigenvalue(self):
        d = all_pairs_distances(build_lcr(4))
        assert eigen_multiplicity(d, 7) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigen_multiplicity(IntMatrix([[1, 2]]), 1)

    def test_empty_matrix_has_no_eigenvalue(self):
        assert eigen_multiplicity(IntMatrix([]), 0) == 0

    def test_matches_the_rank_of_the_shifted_matrix(self):
        d = all_pairs_distances(build_lcr(5))
        for lam in range(-7, 35):
            assert eigen_multiplicity(d, lam) == 20 - rank(shift_diagonal(d, lam)), lam

    def test_shifted_rows_are_copied_once(self):
        # Bareiss's working copy of D + I is one list per row, about the size
        # of D's row tuples; a second full copy of the shifted rows would lift
        # the peak above 3x
        d = all_pairs_distances(build_lcr(13))
        rows = sys.getsizeof(d.entries) + sum(map(sys.getsizeof, d.entries))
        tracemalloc.start()
        try:
            assert eigen_multiplicity(d, -1) == 66
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * rows, (peak, rows)

    @given(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_charpoly_factor_multiplicity_for_symmetric(self, raw):
        sym = [[raw[i][j] + raw[j][i] for j in range(4)] for i in range(4)]
        m = IntMatrix(sym)
        p = char_poly(m)
        for lam in range(-10, 11):
            factor_mult = 0
            q = p
            while True:
                quo, rem = q.divide_linear(lam)
                if rem != 0 or q.degree == 0:
                    break
                factor_mult += 1
                q = quo
            assert eigen_multiplicity(m, lam) == factor_mult


class TestPolynomialType:
    def test_normalization_strips_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)

    def test_divide_linear(self):
        p = IntPolynomial.from_roots([3, -4])
        q, rem = p.divide_linear(3)
        assert rem == 0
        assert q == IntPolynomial.from_roots([-4])
        _, rem = p.divide_linear(5)
        assert rem == p.evaluate(5) != 0

    def test_str_rendering(self):
        assert str(IntPolynomial([6, -5, 1])) == "x^2 - 5*x + 6"
        assert str(IntPolynomial([])) == "0"
        assert str(IntPolynomial([0, 1])) == "x"


class TestIntMatrixType:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix([[1, 2], [3]])

    def test_shift_diagonal(self):
        m = shift_diagonal(IntMatrix([[1, 2], [3, 4]]), 1)
        assert m.entries == ((0, 2), (3, 3))

    def test_row_sums_and_max_entry(self):
        m = IntMatrix([[1, -7], [5, 0]])
        assert m.row_sums() == [-6, 5]
        assert m.max_entry() == 5
        assert IntMatrix([]).max_entry() == IntMatrix([[], []]).max_entry() == 0

    def test_decimal_serialization(self):
        m = IntMatrix([[10**30, -1]])
        assert m.to_decimal_rows() == [[str(10**30), "-1"]]
