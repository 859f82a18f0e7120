"""Exact integer linear algebra, cross-checked against naive oracles.

The oracles here take deliberately different routes: the characteristic
polynomial is recomputed by cofactor expansion over polynomial entries,
and ranks are recomputed by plain Gaussian elimination over Fractions.
"""

import errno
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitspectra import exactla
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
from orbitspectra.graphs import all_pairs_distances, build_circulant, build_cycle, build_lcr
from orbitspectra.perms import Permutation, pair_action, swap_action
from orbitspectra.spectral import (
    lcr_quotient_closed_form,
    lcr_stabilizer_partition,
    quotient_matrix,
)

from conftest import det, fraction_rank, rank, reflection_perm, shift_diagonal

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


def random_rows(n, seed):
    """A non-symmetric n x n integer matrix with entries in [-9, 9]."""
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# inputs of the split tests; the first three are wide enough to fork
SPLIT_INPUTS = {
    # symmetric with rows of few values: the wide blocks take the flat form
    "lcr-8": lambda: all_pairs_distances(build_lcr(8)).entries,
    # symmetric with rows of many values: every block takes the direct form
    "cycle-60": lambda: all_pairs_distances(build_cycle(60)).entries,
    "random-45": lambda: random_rows(45, 45),
    # every block's estimated work is zero, or the largest block holds most of it
    "order-0": lambda: [],
    "zero-1": lambda: [[0]],
    "order-1": lambda: [[7]],
    "zero-2": lambda: [[0, 0], [0, 0]],
    "zero-3": lambda: [[0] * 3 for _ in range(3)],
}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Run Berkowitz as on the given number of usable CPUs, with any work
    enough to split; .forks lists the parent's calls of os.fork."""
    parent, real_fork = os.getpid(), os.fork

    def counted_fork():
        if os.getpid() == parent:
            run.forks.append(True)
        return real_fork()

    def run(rows, cpus):
        monkeypatch.setattr(exactla, "_usable_cpus", lambda: cpus)
        return berkowitz_charpoly(rows)

    monkeypatch.setattr(exactla, "PART_MIN_WORK", 1)
    # numpy, once another test has imported it, leaves an idle BLAS thread
    # in this process; the workers run no BLAS
    monkeypatch.setattr(exactla, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", counted_fork)
    run.forks = []
    return run


def in_workers(monkeypatch, action):
    """Make exactla._block_columns call action(real, args) in a forked worker
    and compute as before in this process; returns the list of the
    ranges it computes here."""
    parent, real = os.getpid(), exactla._block_columns
    here = []

    def columns(*args):
        if os.getpid() != parent:
            return action(real, args)
        here.append(args[-1])
        return real(*args)

    monkeypatch.setattr(exactla, "_block_columns", columns)
    return here


def exit_nonzero_after_writing(real, args):
    """The worker's columns, in full, from a worker that then exits 3."""
    exit_now = os._exit
    os._exit = lambda status: exit_now(3)  # this forked worker ends anyway
    return real(*args)


# Python 3.12+ warns on a fork beside another thread (see the split fixture)
@pytest.mark.filterwarnings("ignore:This process .*multi-threaded:DeprecationWarning")
class TestSplitBerkowitz:
    """Above a size, the blocks' columns are computed in forked workers
    and folded here in the same order: the polynomial is the same, and
    no worker outlives the call."""

    @pytest.mark.parametrize("name", SPLIT_INPUTS)
    def test_parts_give_the_same_polynomial(self, split, name):
        rows = SPLIT_INPUTS[name]()
        one = split(rows, 1)
        assert split.forks == []
        for cpus in (2, 3):
            assert split(rows, cpus) == one
            assert_no_child_left()
        assert bool(split.forks) == (len(rows) > 3)
        assert [c % SCREEN_PRIME for c in one] == charpoly_mod(rows, SCREEN_PRIME)

    @given(st.lists(st.integers(0, 50), max_size=12), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_parts_cover_the_blocks_in_order(self, work, count):
        parts = exactla._parts(work, count)
        assert [s for part in parts for s in part] == list(range(len(work) - 1, -1, -1))
        assert all(parts) and len(parts) <= count

    def test_the_quotients_run_in_one_process(self, monkeypatch):
        # verify-lcr's 7 x 7 quotients are below the break-even; lcr(7)'s
        # 42 x 42 D, the reachability test's split, is above it
        started = []
        monkeypatch.setattr(exactla, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(exactla, "_may_fork", lambda: True)
        # records the range and returns None, as a refused fork does
        monkeypatch.setattr(exactla, "_fork_columns", lambda columns, starts: started.append(starts))
        for n in (4, 13, 24):
            berkowitz_charpoly(lcr_quotient_closed_form(n).entries)
        assert started == []
        berkowitz_charpoly(all_pairs_distances(build_lcr(7)).entries)
        assert len(started) == 1

    def test_one_part_where_no_worker_may_be_forked(self, split, monkeypatch):
        rows = SPLIT_INPUTS["lcr-8"]()
        monkeypatch.setattr(exactla, "_may_fork", lambda: False)
        assert split(rows, 2) == split(rows, 1)
        assert split.forks == []

    def test_no_fork_beside_a_thread_with_sigchld_ignored_or_without_os_fork(self):
        # in a fresh interpreter: numpy, once another test has imported it,
        # leaves a BLAS thread in this one
        probe = (
            "import os, signal, threading\n"
            "from orbitspectra.exactla import _may_fork\n"
            "alone = _may_fork()\n"
            "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
            "ignored = _may_fork()\n"
            "signal.signal(signal.SIGCHLD, signal.SIG_DFL)\n"
            "fork = os.fork\n"
            "del os.fork\n"
            "unsupported = _may_fork()\n"
            "os.fork = fork\n"
            "done = threading.Event()\n"
            "thread = threading.Thread(target=done.wait)\n"
            "thread.start()\n"
            "beside = _may_fork()\n"
            "done.set()\n"
            "thread.join()\n"
            "print(alone, ignored, unsupported, beside)\n"
        )
        src = os.path.dirname(os.path.dirname(exactla.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        assert out.split() == ["True", "False", "False", "False"]

    @pytest.mark.parametrize(
        "action",
        [
            pytest.param(lambda real, args: 1 // 0, id="raises"),
            pytest.param(lambda real, args: list(real(*args))[:-1], id="short"),
            pytest.param(lambda real, args: [object()], id="unmarshallable"),
            pytest.param(lambda real, args: os.kill(os.getpid(), signal.SIGKILL), id="killed"),
            pytest.param(exit_nonzero_after_writing, id="exit-status"),
        ],
    )
    def test_a_failed_worker_is_computed_here(self, split, monkeypatch, action):
        rows = SPLIT_INPUTS["lcr-8"]()
        expected = split(rows, 1)
        here = in_workers(monkeypatch, action)
        assert split(rows, 3) == expected
        assert len(split.forks) == 2
        # this process's own range, then both workers' again
        assert len(here) == 3
        assert [s for starts in here for s in starts] == list(range(len(rows) - 1, -1, -1))
        assert_no_child_left()

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_no_worker_when_the_system_refuses(self, split, monkeypatch, call):
        rows = SPLIT_INPUTS["cycle-60"]()
        expected = split(rows, 1)

        def refuse(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, call, refuse)
        assert split(rows, 3) == expected
        assert split.forks == []
        assert_no_child_left()

    def test_an_exception_here_stops_the_workers(self, split, monkeypatch):
        rows = SPLIT_INPUTS["lcr-8"]()
        parent = os.getpid()

        def columns(*args):
            if os.getpid() != parent:
                time.sleep(30)  # a worker left running would hold up the wait
            raise KeyError("in the parent")

        monkeypatch.setattr(exactla, "_block_columns", columns)
        start = time.monotonic()
        with pytest.raises(KeyError, match="in the parent"):
            split(rows, 3)
        assert time.monotonic() - start < 10
        assert len(split.forks) == 2
        assert_no_child_left()


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

    def test_split_rank_copies_a_quarter_of_d_at_a_time(self, monkeypatch):
        # the swap and tau split D + I into blocks of 42, 36, 36 and 42
        # rows, ranked one after the other from streamed rows: the peak is
        # one quarter-size working copy and its pivots' big ints, about
        # 0.27x; materializing a block's shifted rows first reads about
        # 0.36x, and all four blocks at once about 0.59x
        n = 13
        d = all_pairs_distances(build_lcr(n))
        rows = sys.getsizeof(d.entries) + sum(map(sys.getsizeof, d.entries))
        involutions = lcr_involutions(n)["swap, tau"]
        assert block_orders(monkeypatch, d, -1, involutions) == [42, 36, 36, 42]
        tracemalloc.start()
        try:
            assert eigen_multiplicity(d, -1, involutions) == 66
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.32 * rows, (peak, rows)

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


def block_orders(monkeypatch, d, lam, involutions):
    """The row counts of the blocks that eigen_multiplicity(d, lam,
    involutions) hands Bareiss, in order."""
    orders = []
    kernel = exactla.bareiss_echelon

    def counting(rows):
        rows = list(rows)
        orders.append(len(rows))
        return kernel(rows)

    with monkeypatch.context() as patch:
        patch.setattr(exactla, "bareiss_echelon", counting)
        eigen_multiplicity(d, lam, involutions)
    return orders


def lcr_involutions(n):
    """Sets of commuting involutions of lcr(n): the coordinate swap and
    tau_n, the pair action of (1 2)(3 4)..., both fixed-point-free, and
    the pair action of (1 2), which fixes the (n - 2)(n - 3) pairs
    avoiding 1 and 2 and commutes with both."""
    swap = swap_action(n).images
    tau = pair_action(Permutation.from_cycles([[i, i + 1] for i in range(0, n - 1, 2)], n)).images
    transposition = pair_action(Permutation.from_cycles([[0, 1]], n)).images
    return {
        "swap": [swap],
        "pair (1 2)": [transposition],
        "swap, tau": [swap, tau],
        "swap, tau, pair (1 2)": [swap, tau, transposition],
    }


class TestInvolutionSplit:
    @pytest.mark.parametrize(
        "d,involutions",
        [
            *(
                pytest.param(all_pairs_distances(build_lcr(n)), lcr_involutions(n), id=f"lcr{n}")
                for n in range(4, 8)
            ),
            # x -> -x fixes 0 on odd n, 0 and n / 2 on even n
            *(
                pytest.param(
                    all_pairs_distances(build_cycle(n)),
                    {"reflection": [reflection_perm(n).images]},
                    id=f"cycle{n}",
                )
                for n in (7, 8)
            ),
            pytest.param(
                all_pairs_distances(build_circulant(10, (1, 3))),
                {"reflection": [reflection_perm(10).images]},
                id="circulant10-1-3",
            ),
        ],
    )
    def test_split_agrees_with_the_single_block(self, monkeypatch, d, involutions):
        # every integer in [-rho, rho] under each set of involutions; the
        # single block is ranked at the eigenvalues, and elsewhere, D being
        # symmetric, its nullity is the root multiplicity of det(xI - D)
        rho = max(d.row_sums())
        spectrum = dict(integer_roots(char_poly(d), bound=rho)[0])
        for lam, mult in spectrum.items():
            assert eigen_multiplicity(d, lam) == mult, lam
        for name, ts in involutions.items():
            assert sum(block_orders(monkeypatch, d, 0, ts)) == d.rows
            for lam in range(-rho, rho + 1):
                assert eigen_multiplicity(d, lam, ts) == spectrum.get(lam, 0), (name, lam)

    def test_a_repeated_involution_or_the_identity_changes_nothing(self, monkeypatch):
        # neither adds a generator to the group: the same blocks, the same
        # nullities
        d = all_pairs_distances(build_lcr(6))
        swap, tau = lcr_involutions(6)["swap, tau"]
        product = tuple(map(swap.__getitem__, tau))
        padded = [range(30), swap, swap, tau, product, range(30)]
        blocks = block_orders(monkeypatch, d, -1, [swap, tau])
        assert block_orders(monkeypatch, d, -1, padded) == blocks == [9, 6, 6, 9]
        for lam in (-7, -3, -1, 0, 1, 51):
            assert eigen_multiplicity(d, lam, padded) == eigen_multiplicity(d, lam, [swap, tau])

    def test_one_point_under_its_identity(self):
        # one point: the only involution is the identity, and the one
        # block has one column
        m = IntMatrix([[5]])
        assert [eigen_multiplicity(m, lam, [(0,)]) for lam in (4, 5)] == [0, 1]

    def test_identity_is_the_single_block(self, monkeypatch):
        d = all_pairs_distances(build_lcr(5))
        for lam in (-6, -2, -1, 1, 33, 0):
            assert eigen_multiplicity(d, lam, [range(20)]) == eigen_multiplicity(d, lam)
            assert block_orders(monkeypatch, d, lam, [range(20)]) == [20]
            assert block_orders(monkeypatch, d, lam, ()) == [20]

    @pytest.mark.parametrize(
        "n,involutions,message",
        [
            pytest.param(5, [(1, 2, 0, 3, 4)], "not an involution", id="three-cycle"),
            pytest.param(5, [(1, 0, 2, 3)], "not an involution", id="wrong-length"),
            pytest.param(5, [(1, 0, 2, 3, 7)], "not an involution", id="not-a-permutation"),
            # the transposition (0 1) is no automorphism of the pentagon:
            # D[0][2] = 2 but D[1][2] = 1
            pytest.param(5, [(1, 0, 2, 3, 4)], "does not commute", id="not-commuting"),
            # x -> -x and x -> 1 - x are automorphisms of the heptagon, but
            # their product is a rotation of order 7
            pytest.param(
                7,
                [reflection_perm(7).images, tuple((1 - v) % 7 for v in range(7))],
                "involutions #0 and #1 do not commute",
                id="reflections-not-commuting",
            ),
        ],
    )
    def test_a_failed_premise_raises(self, n, involutions, message):
        with pytest.raises(ValueError, match=message):
            eigen_multiplicity(all_pairs_distances(build_cycle(n)), 1, involutions)


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
