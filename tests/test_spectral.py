"""Quotient matrices, the quotient-assisted certificate, and the spectrum pipeline."""

import random
import sys
import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitspectra import cli, exactla, perms, spectral
from orbitspectra.exactla import (
    IntMatrix,
    IntPolynomial,
    IsotypicSplit,
    char_poly,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import (
    Graph,
    all_pairs_distances,
    build_circulant,
    build_complete,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
    build_line_graph,
)
from orbitspectra.perms import (
    AutomorphismError,
    GeneratorSet,
    OrbitPartition,
    Permutation,
    lcr_automorphism_gens,
    orbits,
    pair_action,
    swap_action,
)
from orbitspectra.spectral import (
    Spectrum,
    VerificationError,
    distance_spectrum,
    is_distance_integral,
    lcr_quotient_closed_form,
    lcr_stabilizer_partition,
    quotient_matrix,
    verify_lcr,
)

from conftest import (
    bfs_reference,
    circulant_spectrum,
    quotient_reference,
    reflection_perm,
    rank,
    rotation_perm,
    shift_diagonal,
    with_cell_indicators,
)


def lcr_quotient(n):
    """lcr(n)'s quotient over the 7-cell partition in reporting order."""
    return quotient_matrix(build_lcr(n), lcr_stabilizer_partition(n))


def assert_immutable_value(value, same, other):
    """value equals same, a separately built value, and hashes equal; other,
    of value's type, and the tuple of value's fields compare unequal; no
    slot of value can be assigned or deleted."""
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other
    assert value != tuple(getattr(value, f) for f in value._fields)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def singletons_partition(n):
    return orbits(GeneratorSet.of(Permutation.identity(n)))


def non_singleton_cycle_cases():
    """Hexagon and octagon under groups whose orbits have no singleton cell."""
    return [
        (build_cycle(6), GeneratorSet.of(rotation_perm(6) * rotation_perm(6))),
        (build_cycle(8), GeneratorSet.of(reflection_perm(8) * rotation_perm(8))),
    ]


# the entry that leads rank-sweep's and char-poly's ledger on lcr(5), split
# by the coordinate swap and two involutions the search finds
LCR5_SPLIT = (
    "involution-split",
    "3 involutions commuting with D and pairwise checked: antipode (0 fixed points), "
    "search (6 fixed points), search (2 fixed points); det(xI - D) and each rank split "
    "into 8 isotypic blocks of orders 5 3 2 1 2 3 1 3",
)


# the reflection x -> -x, the one involution the search keeps on the heptagon
HEPTAGON_SPLIT = (
    "involution-split",
    "1 involution commuting with D checked: search (1 fixed point); det(xI - D) and each "
    "rank split into 2 isotypic blocks of orders 4 3",
)


def draw_circulant(data):
    """(n, a connected circulant of order n, its connection set, whether
    it is a union of gcd classes), drawn for a Hypothesis test. Random connection sets are
    mostly non-integral; a union of gcd classes {x : gcd(x, n) = d} is
    integral, since the units mod n fix 0 and keep every distance class a
    union of gcd classes."""
    n = data.draw(st.integers(min_value=5, max_value=30), label="n")
    gcd_classes = data.draw(st.booleans(), label="gcd classes")
    if gcd_classes:
        divisors = [d for d in range(2, n) if n % d == 0]
        chosen = data.draw(st.sets(st.sampled_from(divisors)) if divisors else st.just(set()))
        conns = {min(x, n - x) for x in range(1, n) if gcd(x, n) in chosen | {1}}
    else:
        conns = {1} | data.draw(st.sets(st.integers(min_value=1, max_value=n // 2)))
    return n, build_circulant(n, conns), conns, gcd_classes


class TestQuotientMatrix:
    def test_all_singletons_gives_the_distance_matrix(self):
        g = build_cycle(5)
        q = quotient_matrix(g, singletons_partition(5))
        assert q.graph == g
        assert q.matrix == q.source == IntMatrix(bfs_reference(5, g.adjacency))

    def test_path_counterexample_is_rejected(self):
        # path a-b-c: the a<->b swap is no automorphism, and its orbits are
        # not equitable (distance sums from a and b to {c} are 2 and 1)
        path = Graph(3, [(0, 1), (1, 2)])
        pi = orbits(GeneratorSet.of(Permutation.from_cycles([[0, 1]], 3)))
        assert pi.cells == ((0, 1), (2,))
        with pytest.raises(ValueError, match="not equitable: cell 0 members 0 and 1"):
            quotient_reference(path, pi)
        with pytest.raises(
            AutomorphismError, match=r"generator #0 \(Permutation\(\(1 2\)\)\) is not"
        ):
            quotient_matrix(path, pi)

    def test_partition_needs_its_generators(self):
        pi = OrbitPartition.from_cells([(v,) for v in range(5)])
        with pytest.raises(ValueError, match="partition has no generators"):
            quotient_matrix(build_cycle(5), pi)

    def test_matches_the_full_scan_oracle(self, corpus):
        cases = [(g, pi) for _, g, pi, _ in corpus]
        cases += [(build_lcr(n), lcr_stabilizer_partition(n)) for n in range(4, 9)]
        cases += [(g, orbits(gens)) for g, gens in non_singleton_cycle_cases()]
        for g, pi in cases:
            assert quotient_matrix(g, pi).matrix == quotient_reference(g, pi), g

    def test_quotient_command_never_builds_the_distance_matrix(self, monkeypatch, capsys):
        searched = []
        original = spectral.all_pairs_distances

        def recording(g, sources=None):
            searched.append(sources)
            return original(g, sources)

        monkeypatch.setattr(spectral, "all_pairs_distances", recording)
        assert cli.main(["quotient", "--n", "8"]) == 0
        assert "matches closed form: yes" in capsys.readouterr().out
        reps = [cell[0] for cell in lcr_stabilizer_partition(8).cells]
        assert searched == [reps] and len(reps) == 7

    def test_quotient_allocates_no_square_matrix(self):
        # one |V| x |V| matrix of row tuples is about 1.2 MB on lcr(20); the
        # 7 rows searched, the neighbour masks and the automorphism check
        # take about a sixteenth of that
        g, pi = build_lcr(20), lcr_stabilizer_partition(20)
        tracemalloc.start()
        try:
            q = quotient_matrix(g, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q._source is None
        d = q.source.entries
        square = sys.getsizeof(d) + sum(map(sys.getsizeof, d))
        assert peak <= square / 8, (peak, square)

    def test_lcr4_first_row(self):
        assert lcr_quotient(4).matrix.entries[0] == (0, 2, 4, 3, 4, 2, 4)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_closed_form(self, n):
        assert lcr_quotient(n).matrix == lcr_quotient_closed_form(n)

    def test_matrix_must_be_square_and_match_the_partition(self):
        # the distance matrix comes from the graph, so it is square by
        # construction; a partition of fewer vertices must still be refused
        with pytest.raises(ValueError, match="partition covers 2 vertices, graph has 3"):
            quotient_matrix(build_cycle(3), singletons_partition(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="partition covers 5 vertices, graph has 4"):
            quotient_matrix(build_cycle(4), singletons_partition(5))

    def test_quotient_is_an_immutable_record(self):
        q = lcr_quotient(5)
        # the values a quotient is built from are immutable records too;
        # graphs with the same edges but other labels differ
        pentagon = build_cycle(5).edges()
        for value, same, other in (
            (q, lcr_quotient(5), lcr_quotient(6)),
            (IntMatrix([[0, 1], [1, 0]]), IntMatrix(((0, 1), (1, 0))), IntMatrix([[0, 1], [1, 1]])),
            (IntPolynomial([1, 2, 0]), IntPolynomial((1, 2)), IntPolynomial([1, 3])),
            (Graph(5, pentagon), build_cycle(5), Graph(5, pentagon, "abcde")),
            (Permutation([1, 0, 2]), Permutation.from_cycles([[0, 1]], 3), Permutation.identity(3)),
        ):
            assert_immutable_value(value, same, other)
        for name in ("source", "char_roots"):
            with pytest.raises(AttributeError):
                setattr(q, name, None)
        assert repr(q).startswith("QuotientMatrix(matrix=IntMatrix(7x7), partition=")

    def test_source_and_char_roots_are_computed_once(self, monkeypatch):
        calls = []
        for name in ("all_pairs_distances", "char_poly"):
            original = getattr(spectral, name)

            def counting(m, *args, _name=name, _original=original):
                calls.append(_name if args in ((), (None,)) else "rows")
                return _original(m, *args)

            monkeypatch.setattr(spectral, name, counting)
        q = lcr_quotient(6)
        assert calls == ["rows"]
        sources = [q.source for _ in range(3)]
        roots = [q.char_roots for _ in range(3)]
        assert calls == ["rows", "all_pairs_distances", "char_poly"]
        assert sources[0] is sources[1] is sources[2]
        assert roots[0] is roots[1] is roots[2]
        assert sources[0] == all_pairs_distances(q.graph)


class TestClosedFormQuotient:
    def test_corner_entry_at_n4(self):
        assert lcr_quotient_closed_form(4).entries[6][6] == 3

    def test_entry_q27_at_n5(self):
        assert lcr_quotient_closed_form(5).entries[1][6] == 10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            lcr_quotient_closed_form(3)


class TestTheoremProperties:
    def test_every_quotient_eigenvalue_lifts_to_d(self, corpus):
        for name, g, pi, _ in corpus:
            q = quotient_matrix(g, pi)
            d = q.source
            roots, _ = integer_roots(char_poly(q.matrix), bound=max(d.row_sums()))
            for lam, _ in roots:
                assert eigen_multiplicity(d, lam) >= 1, (name, lam)

    def test_distinct_sets_match_with_singleton_cell(self, corpus):
        # vertex-transitivity plus a singleton cell force the distinct
        # eigenvalue sets of D and Q to coincide; check both directions
        for name, g, pi, gens in corpus:
            spectrum = distance_spectrum(g, "rank-sweep")
            if not spectrum.is_integral:
                continue
            q = quotient_matrix(g, pi)
            d = q.source
            roots, residual = integer_roots(char_poly(q.matrix), bound=max(d.row_sums()))
            assert residual == IntPolynomial.one(), name
            assert {lam for lam, _ in roots} == set(spectrum.distinct_values), name

    def test_cell_sums_vanish_outside_quotient_spectrum(self):
        # non-singleton partitions leave eigenvalues behind; their entire
        # eigenspaces must sum to zero on every cell: ker A in ker P^T,
        # that is rank([A; P^T]) = rank(A) for A = D - lam I
        found_any = False
        for g, gens in non_singleton_cycle_cases():
            pi = orbits(gens)
            q = quotient_matrix(g, pi)
            d = q.source
            rho = max(d.row_sums())
            q_values = {lam for lam, _ in integer_roots(char_poly(q.matrix), bound=rho)[0]}
            spectrum = distance_spectrum(g, "rank-sweep")
            for lam in spectrum.distinct_values:
                if lam in q_values:
                    continue
                found_any = True
                a = shift_diagonal(d, lam)
                assert rank(with_cell_indicators(a, pi)) == rank(a), lam
        assert found_any

    def test_projected_space_is_bounded_by_quotient_multiplicity(self):
        # cell-sum vectors of an eigenspace live in Q's eigenspace for
        # the same eigenvalue, so their span, of dimension
        # rank([A; P^T]) - rank(A) for A = D - lam I, cannot exceed its size
        for n in (4, 5):
            q = lcr_quotient(n)
            d, pi = q.source, q.partition
            q_poly = char_poly(q.matrix)
            for lam in distance_spectrum(build_lcr(n), "rank-sweep").distinct_values:
                a = shift_diagonal(d, lam)
                q_mult = 0
                poly = q_poly
                while True:
                    quo, rem = poly.divide_linear(lam)
                    if rem != 0 or poly.degree == 0:
                        break
                    q_mult += 1
                    poly = quo
                assert rank(with_cell_indicators(a, pi)) - rank(a) <= q_mult, lam


class TestDistanceSpectrum:
    def test_k2(self):
        from orbitspectra.graphs import Graph

        k2 = Graph(2, [(0, 1)])
        assert distance_spectrum(k2).integer_part == ((-1, 1), (1, 1))

    def test_lcr4_distinct_values(self):
        assert distance_spectrum(build_lcr(4)).distinct_values == (-5, -1, 1, 19)

    def test_lcr5_full_spectrum(self):
        s = distance_spectrum(build_lcr(5))
        assert s.integer_part == ((-6, 4), (-2, 4), (-1, 6), (1, 5), (33, 1))
        assert sum(m for _, m in s.integer_part) == 20
        assert sum(v * m for v, m in s.integer_part) == 0

    def test_methods_agree_on_corpus(self, corpus):
        for name, g, pi, gens in corpus:
            s_rank = distance_spectrum(g, "rank-sweep")
            s_char = distance_spectrum(g, "char-poly")
            assert s_rank == s_char, name
            s_quot = distance_spectrum(
                g, "quotient-assisted", quotient=quotient_matrix(g, pi), transitive_gens=gens
            )
            assert s_rank == s_quot, name

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=14).flatmap(
            lambda n: st.tuples(
                st.just(n), st.sets(st.integers(min_value=1, max_value=n // 2))
            )
        )
    )
    def test_methods_agree_on_circulants(self, n_and_conns):
        # connection 1 makes the circulant connected
        n, conns = n_and_conns
        g = build_circulant(n, conns | {1})
        s_rank = distance_spectrum(g, "rank-sweep")
        assert s_rank == distance_spectrum(g, "char-poly")
        s_quot = distance_spectrum(
            g,
            "quotient-assisted",
            quotient=quotient_matrix(g, orbits(GeneratorSet.of(reflection_perm(n)))),
            transitive_gens=GeneratorSet.of(rotation_perm(n)),
        )
        assert s_rank == s_quot

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_quotient_assisted_ranks_nothing_on_non_integral_circulants(self, data):
        n, g, _, gcd_classes = draw_circulant(data)
        calls = []

        def counting(matrix, lam, *rest):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "eigen_multiplicity", counting)
            s_quot = distance_spectrum(
                g,
                "quotient-assisted",
                quotient=quotient_matrix(g, orbits(GeneratorSet.of(reflection_perm(n)))),
                transitive_gens=GeneratorSet.of(rotation_perm(n), reflection_perm(n)),
            )
        assert s_quot == distance_spectrum(g, "char-poly")
        assert s_quot.is_integral or not gcd_classes
        # an integral one ranks once, at its value of largest multiplicity
        # (the least of equal ones)
        mult = dict(s_quot.integer_part)
        assert calls == ([max(mult, key=mult.get)] if s_quot.is_integral else [])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rank_sweep_ranks_all_but_the_last_value_or_nothing(self, data):
        # a non-integral circulant's det(xI - D) keeps a residual factor, so
        # nothing is ranked; an integral one ranks every value but its
        # Perron value, which keeps what the degree leaves
        _, g, _, gcd_classes = draw_circulant(data)
        calls = []

        def counting(matrix, lam, *rest):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "eigen_multiplicity", counting)
            s = distance_spectrum(g, "rank-sweep")
        assert s == distance_spectrum(g, "char-poly")
        assert s.is_integral or not gcd_classes
        assert calls == (list(s.distinct_values[:-1]) if s.is_integral else [])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_methods_agree_with_the_matrix_free_circulant_oracle(self, data):
        n, g, conns, gcd_classes = draw_circulant(data)
        expected = circulant_spectrum(n, conns)
        assert expected is not None or not gcd_classes
        for method in ("char-poly", "rank-sweep"):
            s = distance_spectrum(g, method)
            if expected is None:
                assert not s.is_integral, method
            else:
                assert s.is_integral and list(s.integer_part) == expected, method

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_split_by_commuting_circulant_involutions_keeps_every_nullity(self, data):
        # x -> -x, x -> x + n / 2 and x -> n / 2 - x commute, and the third
        # is the product of the other two; x -> -x fixes 0 and n / 2, so
        # its sign character has zero rows, and those points' stabilizers
        # divide their columns
        n, g, _, _ = draw_circulant(data)
        assume(n % 2 == 0)
        d = all_pairs_distances(g)
        maps = [
            tuple((-x) % n for x in range(n)),
            tuple((x + n // 2) % n for x in range(n)),
            tuple((n // 2 - x) % n for x in range(n)),
        ]
        subsets = [[t for k, t in enumerate(maps) if bits >> k & 1] for bits in range(1, 8)]
        rho = max(d.row_sums())
        roots = dict(integer_roots(char_poly(d), bound=rho)[0])
        other = min((lam for lam in range(-rho, rho + 1) if lam not in roots), key=abs)
        splits = [IsotypicSplit(d, ts) for ts in subsets]
        # the three maps together keep two: the third is in their group
        assert [len(split.kept) for split in splits] == [1, 1, 2, 1, 2, 2, 2]
        for lam in [*roots, other]:
            single = eigen_multiplicity(d, lam)
            assert single == roots.get(lam, 0), lam
            for ts, split in zip(subsets, splits):
                assert eigen_multiplicity(d, lam, split) == single, (lam, ts)

    def test_screen_leaves_one_rank_per_eigenvalue(self, monkeypatch):
        # det(xI - D) has only integer roots: -6, -2, -1 and 1 are ranked,
        # and 33 keeps the 1 that their multiplicities leave of |V| = 20
        calls = []

        def counting(matrix, lam, *rest):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        s = distance_spectrum(build_lcr(5), "rank-sweep")
        assert calls == [-6, -2, -1, 1]
        assert s.checks == (
            LCR5_SPLIT,
            (
                "ranks",
                "det(xI - D) has integer roots only; ranked -6 -2 -1 1, each rank equal to "
                "its root's multiplicity; last value 33 keeps the 1 left of |V| = 20",
            ),
        )
        assert s == distance_spectrum(build_lcr(5), "char-poly")

    @pytest.mark.parametrize(
        "name,ranked",
        [
            # 3 - n = -1 merges with -1 at n = 4: -5^3 -1^6 1^2 19^1
            pytest.param("lcr(4)", -1, id="lcr(4)"),
            # -1 has multiplicity (n-1)(n-2)/2, one more than 1's n(n-3)/2
            pytest.param("lcr(5)", -1, id="lcr(5)"),
            pytest.param("johnson(5,1)", -1, id="johnson(5,1)"),
            pytest.param("cycle(4)", -2, id="cycle(4)"),
            # the hexagon's -4^2 and 0^2 tie: the lesser value is ranked
            pytest.param("cycle(6)", -4, id="cycle(6)"),
            pytest.param("johnson(6,2)", 0, id="johnson(6,2)"),
        ],
    )
    def test_one_rank_at_the_largest_multiplicity(
        self, corpus, monkeypatch, name, ranked
    ):
        # every multiplicity, the Perron value's included, comes from tr D^k;
        # one rank, the least and so the cheapest, checks the solve
        _, g, pi, gens = next(entry for entry in corpus if entry[0] == name)
        expected = distance_spectrum(g, "rank-sweep")
        calls = []

        def counting(matrix, lam, *rest):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        s = distance_spectrum(
            g, "quotient-assisted", quotient=quotient_matrix(g, pi), transitive_gens=gens
        )
        assert calls == [ranked]
        assert max(m for _, m in s.integer_part) == dict(s.integer_part)[ranked]
        solved = " ".join(f"{v}^{m}" for v, m in s.integer_part)
        assert s.checks[1] == (
            "moments",
            f"solved {solved} from tr D^k = |V| (Q^k)_ss, k = 0..{len(s.integer_part) - 1}; "
            f"Perron value {s.distinct_values[-1]} simple (D irreducible, constant row sums)",
        )
        assert s.checks[-1].name == "ranks"
        assert s.checks[-1].detail.startswith(f"ranked {ranked}, ")
        assert s == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_quotient_eigenvalues_annihilate_the_singleton(self, n):
        quotient = lcr_quotient(n)
        q = quotient.matrix
        rho = max(quotient.source.row_sums())
        values = [lam for lam, _ in integer_roots(char_poly(q), bound=rho)[0]]
        cell = quotient.partition.singleton_cells()[0]
        assert spectral._krylov(q, cell, values)[0]
        for k in range(len(values)):
            assert not spectral._krylov(q, cell, values[:k] + values[k + 1:])[0]

    def test_heptagon_ranks_nothing_and_keeps_the_residual(self, monkeypatch):
        # 12 does not annihilate e_s, so D has an eigenvalue outside the
        # integers: det(xI - D) gives the spectrum, and no rank runs
        calls = []
        kernel = exactla.bareiss_echelon

        def counting(matrix, lam, *rest):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        def counting_kernel(rows):
            calls.append("bareiss")
            return kernel(rows)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        monkeypatch.setattr(exactla, "bareiss_echelon", counting_kernel)
        g = build_cycle(7)
        s = distance_spectrum(
            g,
            "quotient-assisted",
            quotient=quotient_matrix(g, orbits(GeneratorSet.of(reflection_perm(7)))),
            transitive_gens=GeneratorSet.of(rotation_perm(7)),
        )
        assert calls == []
        assert s.integer_part == ((12, 1),)
        assert s.residual.degree == 6
        assert [c.name for c in s.checks] == ["roots-among-quotient"]

    @pytest.mark.parametrize(
        "name,blocks,split",
        [
            # the pair actions of (1 2 3 4 5) and (1 2 3) generate A5, which
            # is 2-transitive, so they are transitive on pairs; neither has
            # order 2, and the identity, also given, is no involution, so the
            # swap, generator #3, alone splits lcr(5)'s 20 vertices in halves
            pytest.param(
                "lcr5-a5-swap", [10, 10],
                "1 involution commuting with D checked: generator #3 (0 fixed points); the "
                "rank split into 2 isotypic blocks of orders 10 10",
                id="lcr5-swap-halves",
            ),
            # lcr_automorphism_gens(5): the swap #2 and tau_5 #3 fix no pair;
            # the pair action of (1 2), #0, fixes 6 and is left out. The
            # product of the swap and tau_5 fixes the pairs (1 2), (2 1),
            # (3 4) and (4 3), whose rows lie in the two blocks of characters
            # that are 1 on it
            pytest.param(
                "lcr5", [6, 4, 4, 6],
                "2 involutions commuting with D and pairwise checked: generator #2 (0 fixed "
                "points), generator #3 (0 fixed points); the rank split into 4 isotypic "
                "blocks of orders 6 4 4 6",
                id="lcr5-four-blocks",
            ),
            # no involution at all: no split, and no involution-split entry
            pytest.param("lcr5-a5", [20], None, id="lcr5-a5-single-block"),
        ],
    )
    def test_ranks_split_by_the_involutive_generator(self, monkeypatch, name, blocks, split):
        seen = []
        kernel = exactla.bareiss_echelon

        def counting(rows):
            rows = list(rows)
            seen.append(len(rows))
            return kernel(rows)

        monkeypatch.setattr(exactla, "bareiss_echelon", counting)
        q = lcr_quotient(5)
        a5 = (
            Permutation.identity(20),
            pair_action(Permutation.from_cycles([[0, 1, 2, 3, 4]], 5)),
            pair_action(Permutation.from_cycles([[0, 1, 2]], 5)),
        )
        gens = {
            "lcr5": lcr_automorphism_gens(5),
            "lcr5-a5": GeneratorSet.of(*a5),
            "lcr5-a5-swap": GeneratorSet.of(*a5, swap_action(5)),
        }[name]
        s = distance_spectrum(q.graph, "quotient-assisted", quotient=q, transitive_gens=gens)
        assert seen == blocks
        entries = [c for c in s.checks if c.name == "involution-split"]
        assert entries == ([] if split is None else [("involution-split", split)])
        assert s.checks[-1] == (
            "ranks", "ranked -1, of the largest solved multiplicity: its rank leaves 6"
        )
        assert s == distance_spectrum(q.graph, "char-poly")

    @pytest.mark.parametrize("n", range(4, 14))
    def test_verify_lcr_ranks_four_character_blocks(self, monkeypatch, n):
        # the swap #2 and tau_n #3 fix no pair; the pair action of (1 2),
        # #0, does, and is not offered, so the one rank is four blocks. It
        # is at -1, whose multiplicity (n-1)(n-2)/2 is the largest (at n = 4
        # it also takes 3 - n's 3)
        d = all_pairs_distances(build_lcr(n))
        assert spectral._generator_split(d, lcr_automorphism_gens(n))[1] == [2, 3]
        calls, ranked = [], []
        kernel = exactla.bareiss_echelon

        def counting(rows):
            calls.append(n)
            return kernel(rows)

        def counting_rank(matrix, lam, *rest):
            ranked.append(lam)
            return eigen_multiplicity(matrix, lam, *rest)

        monkeypatch.setattr(exactla, "bareiss_echelon", counting)
        monkeypatch.setattr(spectral, "eigen_multiplicity", counting_rank)
        verify_lcr(n)
        assert len(calls) == 4
        assert ranked == [-1]

    def test_split_keeps_commuting_involutions_in_a_group_of_at_most_the_degree(self):
        # on 12 points v, three fibres of 4 by v // 4, and involutions
        # v -> v ^ f(v): #1 (f = 1), #4 (f = 2) and #5 (1, 1, 2 by fibre)
        # fix no point, commute, and generate a group of order 8, so they
        # are kept; the 12-cycle #0 is no involution, (1 2)(3 4), #2, fixes
        # 8 points, #3 does not commute with #1, and #6 (1, 2, 2 by fibre)
        # commutes with all three but would take the order to 16 > 12
        def xor(f):
            return Permutation(v ^ f(v) for v in range(12))

        gens = GeneratorSet.of(
            Permutation.from_cycles([list(range(12))], 12),
            xor(lambda v: 1),
            Permutation.from_cycles([[0, 1], [2, 3]], 12),
            Permutation.from_cycles([[0, 4], [1, 6], [2, 5], [3, 7], [8, 9], [10, 11]], 12),
            xor(lambda v: 2),
            xor(lambda v: 1 if v < 8 else 2),
            xor(lambda v: 1 if v < 4 else 2),
        )
        # every permutation commutes with a constant matrix
        constant = IntMatrix([[1] * 12] * 12)
        assert spectral._generator_split(constant, gens)[1] == [1, 4, 5]
        # a repeated involution and one already in the group are skipped too
        swap = swap_action(5)
        tau = lcr_automorphism_gens(5).generators[3]
        gens = GeneratorSet.of(swap, swap, tau, swap * tau, pair_action(Permutation.identity(5)))
        d = all_pairs_distances(build_lcr(5))
        assert spectral._generator_split(d, gens)[1] == [0, 2]

    def test_quotient_assisted_requires_inputs(self):
        g = build_lcr(4)
        with pytest.raises(ValueError, match="needs an orbit partition"):
            distance_spectrum(g, "quotient-assisted")

    def test_quotient_assisted_requires_singleton_cell(self):
        g = build_cycle(6)
        pi = orbits(GeneratorSet.of(rotation_perm(6) * rotation_perm(6)))
        with pytest.raises(ValueError, match="singleton"):
            distance_spectrum(
                g,
                "quotient-assisted",
                quotient=quotient_matrix(g, pi),
                transitive_gens=GeneratorSet.of(rotation_perm(6)),
            )

    def test_quotient_assisted_requires_transitivity(self):
        g = build_cycle(6)
        pi = orbits(GeneratorSet.of(reflection_perm(6)))
        with pytest.raises(AutomorphismError, match="not vertex-transitive"):
            distance_spectrum(
                g,
                "quotient-assisted",
                quotient=quotient_matrix(g, pi),
                transitive_gens=GeneratorSet.of(reflection_perm(6)),
            )

    @pytest.mark.parametrize("method", ["rank-sweep", "char-poly"])
    def test_group_inputs_need_quotient_assisted(self, method):
        q = lcr_quotient(5)
        gens = lcr_automorphism_gens(5)
        for given in ({"quotient": q, "transitive_gens": gens}, {"quotient": q},
                      {"transitive_gens": gens}):
            with pytest.raises(ValueError, match="'quotient-assisted'"):
                distance_spectrum(q.graph, method, **given)
            with pytest.raises(ValueError, match="'quotient-assisted'"):
                is_distance_integral(q.graph, method, **given)

    def test_quotient_assisted_requires_the_graphs_quotient(self):
        # a quotient belongs to the graph it was built from: the heptagon,
        # the octahedron and the hexagon relabelled by (2 4) each refuse the
        # hexagon's, though the octahedron and the relabelled hexagon have
        # its order and are transitive under the rotation given
        hexagon = build_cycle(6)
        hexagon_quotient = quotient_matrix(hexagon, orbits(GeneratorSet.of(reflection_perm(6))))
        assert hexagon_quotient.graph == hexagon
        assert hexagon_quotient.source == IntMatrix(bfs_reference(6, hexagon.adjacency))
        swap = Permutation.from_cycles([[2, 4]], 6)
        relabelled = Graph(6, [(swap.images[u], swap.images[v]) for u, v in hexagon.edges()])
        for g, rotation in (
            (build_cycle(7), rotation_perm(7)),
            (build_circulant(6, (1, 2)), rotation_perm(6)),
            (relabelled, swap * rotation_perm(6) * swap),
        ):
            with pytest.raises(ValueError, match="quotient was built from another graph"):
                distance_spectrum(
                    g,
                    "quotient-assisted",
                    quotient=hexagon_quotient,
                    transitive_gens=GeneratorSet.of(rotation),
                )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            distance_spectrum(build_cycle(4), "fast")

    def test_perron_on_corpus(self, corpus):
        # largest eigenvalue of a vertex-transitive graph: the constant
        # row sum, with multiplicity one
        for name, g, _, _ in corpus:
            d = all_pairs_distances(g)
            sums = set(d.row_sums())
            assert len(sums) == 1, name
            rho = sums.pop()
            s = distance_spectrum(g, "rank-sweep")
            if s.is_integral:
                top, mult = s.integer_part[-1]
                assert (top, mult) == (rho, 1), name

    def test_numpy_oracle_cross_check(self, corpus):
        numpy = pytest.importorskip("numpy")
        for name, g, _, _ in corpus:
            d = all_pairs_distances(g)
            eigs = numpy.linalg.eigvalsh(numpy.array(d.entries, dtype=float))
            expected = {}
            non_integer = 0
            for x in eigs:
                r = round(float(x))
                if abs(x - r) < 1e-7:
                    expected[r] = expected.get(r, 0) + 1
                else:
                    non_integer += 1
            s = distance_spectrum(g, "rank-sweep")
            assert dict(s.integer_part) == expected, name
            res_deg = 0 if s.residual is None else s.residual.degree
            assert res_deg == non_integer, name


def kernel_orders(monkeypatch):
    """(Berkowitz's, Bareiss's) lists of the orders of the matrices each
    kernel is handed from now on, in call order."""
    berkowitz, bareiss = [], []
    expand, eliminate = exactla.berkowitz_charpoly, exactla.bareiss_echelon

    def counting_expand(rows):
        berkowitz.append(len(rows))
        return expand(rows)

    def counting_eliminate(rows):
        rows = list(rows)
        bareiss.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(exactla, "berkowitz_charpoly", counting_expand)
    monkeypatch.setattr(exactla, "bareiss_echelon", counting_eliminate)
    return berkowitz, bareiss


class TestAntipodalSplit:
    """rank-sweep and char-poly offer D's pairing of each row's largest
    entry first; with the search given no refinement, it alone splits D,
    when IsotypicSplit keeps it."""

    @pytest.mark.parametrize(
        "g",
        [
            *(pytest.param(build_lcr(n), id=f"lcr{n}") for n in range(4, 10)),
            *(pytest.param(build_crown(n), id=f"crown{n}") for n in range(3, 9)),
            *(pytest.param(build_cycle(n), id=f"cycle{n}") for n in range(4, 21, 2)),
            # the complement of a k-set is the one k-set at distance k
            pytest.param(build_johnson(4, 2), id="johnson4-2"),
            pytest.param(build_johnson(6, 3), id="johnson6-3"),
        ],
    )
    def test_split_char_poly_is_berkowitz_of_d(self, monkeypatch, g):
        d = all_pairs_distances(g)
        whole = tuple(exactla.berkowitz_charpoly(d.entries))
        split = IsotypicSplit(d, [spectral._antipodal_involution(d)])
        assert split.kept == (0,)
        berkowitz, _ = kernel_orders(monkeypatch)
        assert char_poly(d, split).coefficients == whole
        assert berkowitz == [d.rows // 2] * 2

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_split_char_poly_on_antipodal_circulants(self, data):
        # a unique farthest vertex from 0 is its own negative, n / 2, and
        # t is the rotation by n / 2; odd n has no unique farthest vertex
        n, g, _, _ = draw_circulant(data)
        d = all_pairs_distances(g)
        t = spectral._antipodal_involution(d)
        row = d.entries[0]
        if row.count(max(row)) > 1:
            assert t is None
        else:
            assert n % 2 == 0 and t == tuple((v + n // 2) % n for v in range(n))
            split = IsotypicSplit(d, [t])
            assert split.kept == (0,)
            assert char_poly(d, split).coefficients == tuple(exactla.berkowitz_charpoly(d.entries))

    @pytest.mark.parametrize(
        "g",
        [
            *(pytest.param(build_cycle(n), id=f"cycle{n}") for n in (5, 7, 9, 11)),
            *(
                pytest.param(build_line_graph(build_johnson(n, 2)), id=f"line-johnson{n}-2")
                for n in (5, 6)
            ),
            *(
                pytest.param(build_johnson(n, k), id=f"johnson{n}-{k}")
                for n, k in ((5, 1), (5, 2), (6, 2), (7, 3))
            ),
        ],
    )
    def test_no_unique_antipode_leaves_d_whole(self, monkeypatch, g):
        d = all_pairs_distances(g)
        assert spectral._antipodal_involution(d) is None
        monkeypatch.setattr(perms, "SEARCH_BUDGET", 0)
        berkowitz, _ = kernel_orders(monkeypatch)
        s = distance_spectrum(g, "char-poly")
        assert berkowitz == [d.rows]
        assert s.checks == ()

    def test_a_pairing_d_does_not_commute_with_leaves_it_whole(self, monkeypatch):
        # each row holds its largest entry 3 once, and t = (0 1)(2 3) is a
        # fixed-point-free involution, but D[t(0)][t(2)] = D[1][3] = 2
        # while D[0][2] = 1; the split drops t
        rows = [[0, 3, 1, 2], [3, 0, 1, 2], [1, 1, 0, 3], [2, 2, 3, 0]]
        m = IntMatrix(rows)
        t = spectral._antipodal_involution(m)
        assert t == (1, 0, 3, 2)
        split = IsotypicSplit(m, [t])
        assert split.kept == ()
        berkowitz, _ = kernel_orders(monkeypatch)
        assert char_poly(m, split).coefficients == tuple(exactla.berkowitz_charpoly(rows))
        assert berkowitz == [4, 4]

    @pytest.mark.parametrize(
        "rows",
        [
            # rows 1 and 2 pair with each other, row 0 with row 1: t(t(0)) = 2
            pytest.param([[0, 3, 1], [3, 0, 5], [1, 5, 0]], id="no-involution"),
            # row 0's largest entry is on the diagonal
            pytest.param([[5, 1], [1, 0]], id="fixed-point"),
            pytest.param([[0, 2, 2], [2, 0, 1], [2, 1, 0]], id="largest-twice"),
            pytest.param([], id="empty"),
        ],
    )
    def test_no_pairing_no_split(self, rows):
        m = IntMatrix(rows)
        t = spectral._antipodal_involution(m)
        assert IsotypicSplit(m, [t] if t else ()).kept == ()

    def test_lcr8_expands_and_ranks_two_half_blocks(self, monkeypatch):
        g = build_lcr(8)
        monkeypatch.setattr(perms, "SEARCH_BUDGET", 0)
        berkowitz, bareiss = kernel_orders(monkeypatch)
        expanded = distance_spectrum(g, "char-poly")
        assert (berkowitz, bareiss) == ([28, 28], [])
        del berkowitz[:]
        ranked = distance_spectrum(g, "rank-sweep")
        # the same two expansions, then four ranks, -9, -5, -1 and 1, of two
        # blocks each; 99 keeps what the degree leaves
        assert (berkowitz, bareiss) == ([28, 28], [28] * 8)
        assert ranked == expanded
        assert expanded.checks[0] == ranked.checks[0] == (
            "involution-split",
            "1 involution commuting with D checked: antipode (0 fixed points); det(xI - D) "
            "and each rank split into 2 isotypic blocks of orders 28 28",
        )

    def test_one_split_per_d(self, monkeypatch):
        # rank-sweep on lcr(8) checks its involutions once, for its det(xI - D)
        # and each block of its 4 ranks; verify_lcr splits Q's det(xI - Q)
        # trivially, then builds one split of D for its rank
        built = []
        build = exactla.IsotypicSplit.__init__

        def counting(split, m, candidates=()):
            built.append(m.rows)
            build(split, m, candidates)

        monkeypatch.setattr(exactla.IsotypicSplit, "__init__", counting)
        _, bareiss = kernel_orders(monkeypatch)
        distance_spectrum(build_lcr(8), "rank-sweep")
        blocks = len(bareiss) // 4
        assert built == [56] and blocks > 2
        assert bareiss == bareiss[:blocks] * 4 and sum(bareiss[:blocks]) == 56
        for n in range(5, 10):
            del built[:]
            verify_lcr(n)
            assert built == [7, n * (n - 1)]


def relabelled(g, seed):
    """g with its vertices renumbered by a seeded random permutation."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def random_cubic(n, seed):
    """A seeded random connected 3-regular graph on an even n: a random
    Hamiltonian cycle and a random perfect matching of its chords."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    cycle = {frozenset(e) for e in zip(order, order[1:] + order[:1])}
    while True:
        rng.shuffle(order)
        matching = {frozenset(order[i:i + 2]) for i in range(0, n, 2)}
        if not matching & cycle:
            return Graph(n, [tuple(e) for e in cycle | matching])


def searched_split(g):
    """(D, the candidates distance_spectrum offers, D's IsotypicSplit over them)."""
    d = all_pairs_distances(g)
    candidates = perms.involution_candidates(g, d.entries, spectral._antipodal_involution(d))
    return d, candidates, IsotypicSplit(d, candidates)


def assert_split_keeps_chi_and_ranks(d, split):
    """char_poly over split is Berkowitz's det(xI - D) of D whole, and the
    split rank of D - lam I is the whole one at each integer root of it
    and at the integer of least |lam| that is none."""
    whole = exactla.berkowitz_charpoly(d.entries)
    assert char_poly(d, split).coefficients == tuple(whole)
    rho = max(d.row_sums())
    roots = dict(integer_roots(IntPolynomial(whole), bound=rho)[0])
    other = min((lam for lam in range(-rho, rho + 1) if lam not in roots), key=abs)
    for lam in [*roots, other]:
        assert eigen_multiplicity(d, lam, split) == eigen_multiplicity(d, lam), lam


class TestInvolutionSearch:
    """After the antipodal pairing, rank-sweep and char-poly offer the
    involutive automorphisms perms.involution_candidates finds; only
    those IsotypicSplit keeps split D."""

    @pytest.mark.parametrize(
        "g",
        [
            *(
                pytest.param(
                    relabelled(build_line_graph(build_johnson(n, 2)), n), id=f"line-johnson{n}-2"
                )
                for n in (5, 6, 7)
            ),
            pytest.param(relabelled(build_johnson(5, 2), 1), id="johnson5-2"),
            pytest.param(relabelled(build_johnson(7, 3), 1), id="johnson7-3"),
            *(pytest.param(relabelled(build_cycle(n), n), id=f"cycle{n}") for n in (5, 9, 15)),
            *(pytest.param(relabelled(build_crown(n), n), id=f"crown{n}") for n in (4, 7)),
            *(pytest.param(relabelled(build_complete(n), n), id=f"complete{n}") for n in (5, 8)),
        ],
    )
    def test_split_keeps_chi_d_and_every_rank(self, g):
        d, candidates, split = searched_split(g)
        assert split.kept == tuple(range(len(candidates))) != ()
        assert_split_keeps_chi_and_ranks(d, split)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_split_keeps_chi_d_and_every_rank_on_circulants(self, data):
        _, g, _, _ = draw_circulant(data)
        d, candidates, split = searched_split(g)
        assert split.kept == tuple(range(len(candidates)))
        assert_split_keeps_chi_and_ranks(d, split)

    def test_an_asymmetric_tree_runs_no_try(self, monkeypatch):
        # legs of 1, 2 and 3 edges from the centre 0: colour refinement
        # on the adjacency alone is discrete
        g = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        tries = []
        monkeypatch.setattr(perms, "_leaves", lambda *args: tries.append(args) or iter(()))
        s = distance_spectrum(g, "char-poly")
        assert (tries, s.checks) == ([], ())
        assert distance_spectrum(g, "rank-sweep") == s

    def test_a_proposal_that_is_no_automorphism_is_dropped(self, monkeypatch):
        # the transposition of lcr(5)'s vertices 0 and 1 is an involution,
        # but D[0][2] = 1 while D[1][2] = 2
        g = build_lcr(5)
        expected = distance_spectrum(g, "rank-sweep")
        search = perms.involution_candidates
        bogus = (1, 0, *range(2, 20))
        monkeypatch.setattr(
            spectral, "involution_candidates", lambda *args: [bogus, *search(*args)]
        )
        s = distance_spectrum(g, "rank-sweep")
        assert s == expected and s.checks == expected.checks == (LCR5_SPLIT, expected.checks[1])

    def test_a_random_cubic_graph_spends_the_budget_and_keeps_nothing(self, monkeypatch):
        g = random_cubic(2 * perms.SEARCH_BUDGET, 3)
        refinements = []
        refine = perms._refined
        monkeypatch.setattr(
            perms, "_refined", lambda *args: refinements.append(1) or refine(*args)
        )
        d = all_pairs_distances(g)
        assert perms.involution_candidates(g, d.entries) == []
        # the stable colouring of g, then the budget over the tries
        assert len(refinements) == 1 + perms.SEARCH_BUDGET

    def test_the_same_input_keeps_the_same_involutions(self):
        g = relabelled(build_line_graph(build_johnson(6, 2)), 6)
        d = all_pairs_distances(g)
        first = perms.involution_candidates(g, d.entries)
        assert len(first) > 1 and perms.involution_candidates(g, d.entries) == first
        assert distance_spectrum(g).checks == distance_spectrum(g).checks


class TestSpectrumType:
    def test_rejects_incomplete_multiplicities(self):
        with pytest.raises(ArithmeticError, match="order"):
            Spectrum([(-1, 1)], None, 3)

    def test_rejects_trace_mismatch(self):
        with pytest.raises(ArithmeticError, match="weighted eigenvalue sum 1 != trace 0"):
            Spectrum([(-1, 1), (2, 1)], None, 2)

    def test_residual_book_keeping(self):
        residual = IntPolynomial([6, 13, 1])  # x^2 + 13x + 6, root sum -13
        s = Spectrum([(6, 1), (7, 1)], residual, 4, trace=0)
        assert not s.is_integral
        assert dict(s.integer_part) == {6: 1, 7: 1}

    def test_rejects_unsorted(self):
        with pytest.raises(ArithmeticError, match="sorted"):
            Spectrum([(2, 1), (-2, 1)], None, 2)


class TestVerifier:
    @pytest.mark.parametrize(
        "n,expected",
        [(4, (-5, -1, 1, 19)), (7, (-8, -4, -1, 1, 73))],
    )
    def test_verify_reports_distinct_values(self, n, expected):
        report = verify_lcr(n)
        assert report.spectrum.is_integral
        assert report.spectrum.distinct_values == expected
        assert all(c["pass"] is True for c in report.to_json_dict()["checks"])
        route = report.spectrum.checks
        assert report.checks[-len(route) - 2:] == route + report.checks[-2:]

    def test_small_n_rejected(self):
        with pytest.raises(VerificationError, match="n >= 4"):
            verify_lcr(3)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_one_bfs_and_one_quotient_per_n(self, n, monkeypatch):
        # the quotient searches from its 7 cell representatives; D, which the
        # distances stage and the exact rank share, costs one BFS from every
        # vertex
        calls = []
        for name in ("all_pairs_distances", "quotient_matrix"):
            original = getattr(spectral, name)

            def counting(*args, _name=name, _original=original):
                calls.append((_name, args[1:]) if _name == "all_pairs_distances" else _name)
                return _original(*args)

            monkeypatch.setattr(spectral, name, counting)
        verify_lcr(n)
        reps = [cell[0] for cell in lcr_stabilizer_partition(n).cells]
        assert calls == [
            "quotient_matrix",
            ("all_pairs_distances", (reps,)),
            ("all_pairs_distances", ()),
        ]

    def test_wrong_orbit_count_fails_at_its_own_stage(self, monkeypatch):
        monkeypatch.setattr(
            spectral, "orbits",
            lambda gens: OrbitPartition.from_cells([tuple(range(gens.degree))]),
        )
        with pytest.raises(VerificationError) as info:
            verify_lcr(4)
        assert info.value.stage == "stabilizer-orbits"

    def test_report_serializes_to_schema(self):
        report = verify_lcr(4)
        payload = report.to_json_dict()
        assert payload["graph"] == "lcr n=4"
        assert payload["order"] == 12
        assert payload["integral"] is True
        assert payload["eigenvalues"] == [[-5, 3], [-1, 6], [1, 2], [19, 1]]
        assert payload["distinct"] == [-5, -1, 1, 19]
        assert [c["name"] for c in payload["checks"]] == [
            "graph-shape",
            "stabilizer-orbits",
            "orbit-sizes",
            "distances",
            "stabilizer-automorphisms",
            "quotient-closed-form",
            "quotient-spectrum",
            "distance-spectrum",
            "annihilates",
            "moments",
            "involution-split",
            "ranks",
            "spectrum-complete",
            "trace-zero",
        ]
        assert all(c["pass"] is True for c in payload["checks"])
        assert "residual_coefficients" not in payload


class TestIntegralityReports:
    def test_johnson_6_2_is_integral(self):
        report = is_distance_integral(build_johnson(6, 2), description="johnson n=6 k=2")
        assert report.spectrum.is_integral
        assert report.spectrum.integer_part == ((-4, 5), (0, 9), (20, 1))

    def test_line_of_johnson_6_2_is_not_integral(self):
        g = build_line_graph(build_johnson(6, 2))
        report = is_distance_integral(g, "char-poly", description="line-johnson")
        assert not report.spectrum.is_integral
        assert report.spectrum.residual.degree >= 2
        payload = report.to_json_dict()
        assert payload["residual_coefficients"][0] == "7776"

    def test_ledger_details_come_from_the_spectrum(self):
        report = is_distance_integral(build_cycle(7), description="cycle n=7")
        assert report.spectrum.trace == 0
        split, ranks, complete, trace = report.checks
        assert report.spectrum.checks == (split, ranks)
        assert split == HEPTAGON_SPLIT
        assert (complete.name, trace.name) == ("spectrum-complete", "trace-zero")
        assert ranks.detail == (
            "det(xI - D) keeps a residual factor of degree 6, so D has an eigenvalue outside "
            "the integers; nothing ranked"
        )
        assert complete.detail == "multiplicities 1 + residual degree 6 = order 7"
        assert trace.detail == "weighted eigenvalue sum 0 equals trace 0"

    def test_ledger_names_the_integral_rank_sweep_route(self):
        report = is_distance_integral(build_lcr(5))
        assert [c.name for c in report.checks] == [
            "involution-split", "ranks", "spectrum-complete", "trace-zero",
        ]
        assert report.checks[0] == LCR5_SPLIT
        assert report.checks[1] == (
            "ranks",
            "det(xI - D) has integer roots only; ranked -6 -2 -1 1, each rank equal to "
            "its root's multiplicity; last value 33 keeps the 1 left of |V| = 20",
        )

    def test_ledger_names_the_non_integral_quotient_route(self):
        g = build_cycle(7)
        report = is_distance_integral(
            g,
            "quotient-assisted",
            quotient=quotient_matrix(g, orbits(GeneratorSet.of(reflection_perm(7)))),
            transitive_gens=GeneratorSet.of(rotation_perm(7)),
        )
        assert [c.name for c in report.checks] == [
            "roots-among-quotient", "spectrum-complete", "trace-zero",
        ]
        assert report.checks[0] == (
            "roots-among-quotient",
            "product of (Q - lam I) over det(xI - Q)'s 1 integer roots leaves e_s nonzero, "
            "so D has an eigenvalue outside the integers; det(xI - D)'s integer roots lie "
            "among those 1",
        )

    def test_ledger_records_the_moment_solve(self):
        q = lcr_quotient(5)
        report = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        assert report.spectrum.checks == report.checks[:4]
        assert report.checks[:4] == (
            (
                "annihilates",
                "degree-5 product of (Q - lam I) sends e_s to 0, so spec(D) lies among its "
                "5 roots",
            ),
            # every multiplicity, 33's included, from tr D^k = |V| (Q^k)_ss
            (
                "moments",
                "solved -6^4 -2^4 -1^6 1^5 33^1 from tr D^k = |V| (Q^k)_ss, k = 0..4; "
                "Perron value 33 simple (D irreducible, constant row sums)",
            ),
            (
                "involution-split",
                "2 involutions commuting with D and pairwise checked: generator #2 (0 fixed "
                "points), generator #3 (0 fixed points); the rank split into 4 isotypic "
                "blocks of orders 6 4 4 6",
            ),
            ("ranks", "ranked -1, of the largest solved multiplicity: its rank leaves 6"),
        )
        assert [c.name for c in report.checks[4:]] == ["spectrum-complete", "trace-zero"]
        # one involutive generator: the swap alone, behind the A5 pair actions
        a5_swap = GeneratorSet.of(
            pair_action(Permutation.from_cycles([[0, 1, 2, 3, 4]], 5)),
            pair_action(Permutation.from_cycles([[0, 1, 2]], 5)),
            swap_action(5),
        )
        report = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=a5_swap
        )
        assert report.checks[2] == (
            "involution-split",
            "1 involution commuting with D checked: generator #2 (0 fixed points); the rank "
            "split into 2 isotypic blocks of orders 10 10",
        )

    def test_reports_and_checks_are_immutable_records(self):
        q = lcr_quotient(5)
        report = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        again = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        route, check = report.spectrum.checks, report.checks[0]
        for record in (report, check):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
        # a spectrum's == reads its values and order, not its ledger
        spectrum = report.spectrum
        unledgered = Spectrum(spectrum.integer_part, spectrum.residual, spectrum.order)
        assert unledgered.checks != route and unledgered.trace == spectrum.trace
        assert_immutable_value(spectrum, unledgered, Spectrum([(-1, 1), (1, 1)], None, 2))
        assert report == again and report.checks == again.checks
        assert route == again.spectrum.checks and hash(route) == hash(again.spectrum.checks)
        assert check == again.checks[0] and hash(check) == hash(again.checks[0])
        assert route == report.checks[:4] and route[0] is check
        relabelled = report._replace(graph="lcr five")
        assert relabelled.graph == "lcr five" and report.graph != "lcr five"
        assert relabelled.spectrum is report.spectrum and relabelled.checks is report.checks

    @pytest.mark.parametrize("n", range(3, 9))
    def test_crowns_are_integral(self, n):
        report = is_distance_integral(build_crown(n), description=f"crown n={n}")
        assert report.spectrum.is_integral
        # closed form derived from the block structure, checked against
        # the rank sweep: {3n, n-4, 0 x (n-1), -4 x (n-1)} with merges
        expected = {}
        for lam, mult in ((3 * n, 1), (n - 4, 1), (0, n - 1), (-4, n - 1)):
            expected[lam] = expected.get(lam, 0) + mult
        assert dict(report.spectrum.integer_part) == expected
