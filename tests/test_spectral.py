"""Quotient matrices, the quotient-assisted certificate, and the spectrum pipeline."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitspectra import cli, spectral
from orbitspectra.exactla import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import (
    Graph,
    all_pairs_distances,
    build_circulant,
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
)
from orbitspectra.spectral import (
    MomentSolve,
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


def singletons_partition(n):
    return orbits(GeneratorSet.of(Permutation.identity(n)))


def non_singleton_cycle_cases():
    """Hexagon and octagon under groups whose orbits have no singleton cell."""
    return [
        (build_cycle(6), GeneratorSet.of(rotation_perm(6) * rotation_perm(6))),
        (build_cycle(8), GeneratorSet.of(reflection_perm(8) * rotation_perm(8))),
    ]


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
        q, again = lcr_quotient(5), lcr_quotient(5)
        assert q is not again and q == again
        assert q != lcr_quotient(6)
        assert q != (q.matrix, q.partition, q.graph)
        for name in ("matrix", "partition", "graph", "source", "char_roots"):
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

    def test_screen_leaves_one_rank_per_eigenvalue(self, monkeypatch):
        calls = []

        def counting(matrix, lam):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        s = distance_spectrum(build_lcr(5), "rank-sweep")
        assert calls == [-6, -2, -1, 1, 33]
        assert s == distance_spectrum(build_lcr(5), "char-poly")

    @pytest.mark.parametrize(
        "n,ranked",
        [pytest.param(4, [], id="lcr4-no-rank"), pytest.param(5, [-1], id="lcr5-ranks-minus-1")],
    )
    def test_quotient_assisted_ranks_only_small_values(self, monkeypatch, n, ranked):
        # -1-n, 3-n and 1 come from tr D^k; lcr(4) has no fourth non-top value
        calls = []

        def counting(matrix, lam):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        q = lcr_quotient(n)
        g = q.graph
        s = distance_spectrum(
            g, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(n),
        )
        assert calls == ranked
        assert s.moments.ranked == tuple(ranked)
        assert s == distance_spectrum(g, "char-poly")

    @pytest.mark.parametrize("name", ["johnson(5,1)", "cycle(4)", "johnson(6,2)"])
    def test_few_values_check_the_spare_moments(self, corpus, name, monkeypatch):
        # K5 has one non-top value, the others two: no rank, and the
        # power sums the solve leaves unused must agree
        _, g, pi, gens = next(entry for entry in corpus if entry[0] == name)
        expected = distance_spectrum(g, "rank-sweep")
        monkeypatch.setattr(spectral, "eigen_multiplicity", None)
        report = is_distance_integral(
            g, "quotient-assisted", quotient=quotient_matrix(g, pi), transitive_gens=gens
        )
        s = report.spectrum
        used = len(s.moments.solved)
        assert used == len(s.integer_part) - 1 < 3
        assert f"; spare moments k = {used}..2 agree;" in report.checks[1].detail
        assert s == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_quotient_eigenvalues_annihilate_the_singleton(self, n):
        quotient = lcr_quotient(n)
        q = quotient.matrix
        rho = max(quotient.source.row_sums())
        values = [lam for lam, _ in integer_roots(char_poly(q), bound=rho)[0]]
        cell = quotient.partition.singleton_cells()[0]
        assert spectral._annihilates(q, values, cell)
        for k in range(len(values)):
            assert not spectral._annihilates(q, values[:k] + values[k + 1:], cell)

    def test_heptagon_ranks_its_candidate_and_keeps_the_residual(self, monkeypatch):
        calls = []

        def counting(matrix, lam):
            calls.append(lam)
            return eigen_multiplicity(matrix, lam)

        monkeypatch.setattr(spectral, "eigen_multiplicity", counting)
        g = build_cycle(7)
        s = distance_spectrum(
            g,
            "quotient-assisted",
            quotient=quotient_matrix(g, orbits(GeneratorSet.of(reflection_perm(7)))),
            transitive_gens=GeneratorSet.of(rotation_perm(7)),
        )
        assert calls == [12]
        assert s.integer_part == ((12, 1),)
        assert s.residual.degree == 6
        assert s.moments is None

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
        assert s.multiplicity(6) == 1 and s.multiplicity(5) == 0

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
        assert all(c.passed for c in report.checks)

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
        assert {c["name"] for c in payload["checks"]} >= {
            "graph-shape",
            "quotient-closed-form",
            "quotient-spectrum",
        }
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
        complete, trace = report.checks
        assert complete.passed and trace.passed
        assert complete.detail == "multiplicities 1 + residual degree 6 = order 7"
        assert trace.detail == "weighted eigenvalue sum 0 equals trace 0"

    def test_ledger_records_the_moment_solve(self):
        q = lcr_quotient(5)
        report = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        assert [c.name for c in report.checks] == [
            "annihilates", "moments", "spectrum-complete", "trace-zero",
        ]
        assert all(c.passed for c in report.checks)
        assert report.checks[0].detail == (
            "degree-5 product of (Q - lam I) sends e_s to 0, "
            "so spec(D) lies among its 5 roots"
        )
        # 4(-6)^3 + 4(-2)^3 + 6(-1)^3 + 5(1)^3 + 33^3 = 35040
        assert report.checks[1].detail == (
            "Perron value 33 simple (D irreducible, constant row sums); "
            "ranked -1; solved -6^4 -2^4 1^5 from tr D^k, k = 0..2; "
            "sum m lam^3 = |V| (Q^3)_ss = 35040"
        )

    def test_reports_and_checks_are_immutable_records(self):
        q = lcr_quotient(5)
        report = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        again = is_distance_integral(
            q.graph, "quotient-assisted", quotient=q, transitive_gens=lcr_automorphism_gens(5),
        )
        moments, check = report.spectrum.moments, report.checks[0]
        for record in (report, moments, check):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
        assert report == again and report.checks == again.checks
        assert moments == again.spectrum.moments and hash(moments) == hash(again.spectrum.moments)
        assert check == again.checks[0] and hash(check) == hash(again.checks[0])
        assert moments == MomentSolve((-1,), (-6, -2, 1), 35040)
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
