"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a single PASS line (visible with pytest -s / -rP) after
asserting the guarantee at its stated tolerance. Everything numeric is
exact integer arithmetic; the only tolerances are wall-clock budgets.
"""

import time

import pytest

from orbitspectra.exactla import (
    IntPolynomial,
    char_poly,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import (
    all_pairs_distances,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
    build_line_graph,
    is_distance_regular,
)
from orbitspectra.perms import (
    GeneratorSet,
    lcr_automorphism_gens,
    orbits,
)
from orbitspectra.spectral import (
    distance_spectrum,
    is_distance_integral,
    lcr_quotient_closed_form,
    lcr_stabilizer_partition,
    quotient_matrix,
)

from conftest import (
    along_cycle,
    is_isomorphism,
    reflection_perm,
    rank,
    rotation_perm,
    shift_diagonal,
    with_cell_indicators,
)

N_RANGE = range(4, 11)


@pytest.fixture(scope="module")
def lcr_data():
    """Full pipeline for n = 4..10, computed once and timed per n."""
    data = {}
    for n in N_RANGE:
        start = time.monotonic()
        g = build_lcr(n)
        pi = lcr_stabilizer_partition(n)
        q = quotient_matrix(g, pi)
        spectrum = distance_spectrum(
            g, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(n),
        )
        elapsed = time.monotonic() - start
        data[n] = {
            "graph": g,
            "d": q.source,
            "pi": pi,
            "quotient": q,
            "spectrum": spectrum,
            "elapsed": elapsed,
        }
    return data


def expected_distinct(n):
    return tuple(sorted({-n - 1, -n + 3, -1, 1, 2 * n * n - 4 * n + 3}))


def expected_quotient_roots(n):
    merged = {}
    for lam, mult in ((-1, 1), (1, 1), (-1 - n, 2), (3 - n, 2),
                      (2 * n * n - 4 * n + 3, 1)):
        merged[lam] = merged.get(lam, 0) + mult
    return sorted(merged.items())


def test_criterion_01_distinct_spectrum_for_n_4_to_10(lcr_data):
    for n in N_RANGE:
        entry = lcr_data[n]
        assert entry["spectrum"].distinct_values == expected_distinct(n), n
        assert entry["elapsed"] < 60.0, f"n={n} took {entry['elapsed']:.1f}s"
    slowest = max(e["elapsed"] for e in lcr_data.values())
    print(
        f"ACCEPTANCE 1 PASS: distinct eigenvalues match the closed-form set "
        f"for n=4..10 (slowest n: {slowest:.2f}s < 60s)"
    )


def test_criterion_02_quotient_matrix_fidelity(lcr_data):
    for n in N_RANGE:
        computed = lcr_data[n]["quotient"].matrix
        closed = lcr_quotient_closed_form(n)
        assert computed.rows == computed.cols == 7
        for i in range(7):
            for j in range(7):
                assert computed.entries[i][j] == closed.entries[i][j], (n, i, j)
    print("ACCEPTANCE 2 PASS: computed quotient equals the closed form, "
          "49 exact entries for each n=4..10")


def test_criterion_03_quotient_spectrum(lcr_data):
    for n in N_RANGE:
        roots, residual = integer_roots(
            char_poly(lcr_data[n]["quotient"].matrix),
            bound=2 * n * n - 4 * n + 3,
        )
        assert roots == expected_quotient_roots(n), n
        assert residual == IntPolynomial.one(), n
    print("ACCEPTANCE 3 PASS: quotient eigenvalues are exactly "
          "{-1, 1, -1-n x2, 3-n x2, 2n^2-4n+3} with residual 1 for n=4..10")


def test_criterion_04_multiplicity_consistency(lcr_data):
    for n in N_RANGE:
        entry = lcr_data[n]
        spectrum, matrix = entry["spectrum"], entry["d"]
        order = n * (n - 1)
        perron = 2 * n * n - 4 * n + 3
        assert sum(m for _, m in spectrum.integer_part) == order, n
        assert sum(v * m for v, m in spectrum.integer_part) == 0, n
        assert eigen_multiplicity(matrix, perron) == 1, n
        q_roots, _ = integer_roots(char_poly(entry["quotient"].matrix), bound=perron)
        for lam, _ in q_roots:
            assert spectrum.multiplicity(lam) >= 1, (n, lam)
    print("ACCEPTANCE 4 PASS: multiplicities sum to n(n-1), weighted sum 0, "
          "simple Perron value, and every quotient eigenvalue appears in D")


def test_criterion_05_line_of_johnson_contrast():
    start = time.monotonic()
    j62 = is_distance_integral(build_johnson(6, 2), description="johnson n=6 k=2")
    assert j62.spectrum.is_integral
    line = is_distance_integral(
        build_line_graph(build_johnson(6, 2)), "char-poly",
        description="line-johnson n=6 k=2",
    )
    elapsed = time.monotonic() - start
    assert not line.spectrum.is_integral
    assert line.spectrum.order == 60
    residual = line.spectrum.residual
    assert residual is not None and residual.degree >= 2
    assert residual.degree == 10  # (x^2 + 13x + 6)^5, from the float oracle
    roots, _ = integer_roots(residual, bound=120)
    assert roots == []
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS: johnson(6,2) integral, its line graph is not "
          f"(residual degree {residual.degree}) in {elapsed:.1f}s < 300s")


def test_criterion_06_distance_regularity_contrast():
    for n in range(4, 8):
        result = is_distance_regular(build_lcr(n))
        assert not result.is_distance_regular, n
        assert result.witness is not None, n
    for n in range(3, 8):
        assert is_distance_regular(build_crown(n)).is_distance_regular, n
    assert is_distance_regular(build_cycle(6)).is_distance_regular
    print("ACCEPTANCE 6 PASS: lcr(4..7) refused with witnesses; "
          "crown(3..7) and the hexagon confirmed distance-regular")


def test_criterion_07_crowns_are_distance_integral():
    numpy = pytest.importorskip("numpy")
    for n in range(3, 11):
        report = is_distance_integral(
            build_crown(n), "rank-sweep", description=f"crown n={n}"
        )
        assert report.spectrum.is_integral, n
        # independent float oracle for the derived eigenvalues
        d = all_pairs_distances(build_crown(n))
        eigs = numpy.linalg.eigvalsh(numpy.array(d.entries, dtype=float))
        oracle = {}
        for x in eigs:
            r = round(float(x))
            assert abs(x - r) < 1e-7
            oracle[r] = oracle.get(r, 0) + 1
        assert dict(report.spectrum.integer_part) == oracle, n
    print("ACCEPTANCE 7 PASS: crown(3..10) certified distance integral "
          "by rank sweep, matching the float oracle")


def test_criterion_08_small_case_ground_truth():
    # (1,2) - (1,3) - (2,3) - (2,1) - (3,1) - (3,2) - (1,2)
    assert is_isomorphism(build_lcr(3), build_cycle(6), along_cycle([0, 1, 3, 2, 4, 5]))
    hexagon = build_cycle(6)
    pi = orbits(GeneratorSet.of(reflection_perm(6)))
    results = [
        distance_spectrum(hexagon, "rank-sweep"),
        distance_spectrum(hexagon, "char-poly"),
        distance_spectrum(
            hexagon, "quotient-assisted", quotient=quotient_matrix(hexagon, pi),
            transitive_gens=GeneratorSet.of(rotation_perm(6)),
        ),
    ]
    assert results[0] == results[1] == results[2]
    assert results[0].integer_part == ((-4, 2), (-1, 1), (0, 2), (9, 1))
    print("ACCEPTANCE 8 PASS: lcr(3) is the hexagon by an explicit isomorphism; "
          "its spectrum agrees across all three methods")


def test_criterion_09_cell_sums_vanish_outside_quotient_spectrum(lcr_data):
    for n in (4, 5, 6):
        entry = lcr_data[n]
        matrix, pi = entry["d"], entry["pi"]
        q_values = {
            lam
            for lam, _ in integer_roots(
                char_poly(entry["quotient"].matrix), bound=2 * n * n
            )[0]
        }
        outside = [
            lam for lam in entry["spectrum"].distinct_values if lam not in q_values
        ]
        for lam in outside:
            # every lam-eigenvector sums to 0 on every cell
            a = shift_diagonal(matrix, lam)
            assert rank(with_cell_indicators(a, pi)) == rank(a), (n, lam)
        # the singleton-cell transitive setup forces the two distinct
        # eigenvalue sets to coincide, so the loop above must be empty
        assert outside == [], n
    print("ACCEPTANCE 9 PASS: no integer eigenvalue of D escapes the quotient "
          "spectrum for n=4..6, and rank([D - lam I; P^T]) = rank(D - lam I) "
          "holds for every such lam (vacuously)")


def test_criterion_10_method_cross_validation(corpus):
    compared = 0
    for name, g, pi, gens in corpus:
        if g.vertex_count > 40:
            continue
        s_rank = distance_spectrum(g, "rank-sweep")
        s_char = distance_spectrum(g, "char-poly")
        assert s_rank == s_char, name
        assert repr(s_rank) == repr(s_char), name
        if s_rank.is_integral:
            s_quot = distance_spectrum(
                g, "quotient-assisted", quotient=quotient_matrix(g, pi), transitive_gens=gens
            )
            assert s_rank == s_quot and repr(s_rank) == repr(s_quot), name
        compared += 1
    assert compared >= 15
    print(f"ACCEPTANCE 10 PASS: all applicable methods agree exactly on "
          f"{compared} corpus graphs (circulants, crowns, cycles, johnson, lcr)")
