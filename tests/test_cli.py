"""Command-line interface: parsing, formats, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys

import pytest

import orbitspectra
from orbitspectra import cli, spectral
from orbitspectra.cli import main, parse_edge_list
from orbitspectra.exactla import IntMatrix, IntPolynomial
from orbitspectra.graphs import pair_vertices
from orbitspectra.perms import GeneratorSet, Permutation
from orbitspectra.spectral import Spectrum


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def corrupted(closed_form):
    """closed_form with its last entry off by one."""

    def wrong(n):
        rows = [list(row) for row in closed_form(n).entries]
        rows[-1][-1] += 1
        return IntMatrix(rows)

    return wrong


class TestEdgeListParsing:
    def test_k2(self):
        g = parse_edge_list("p 2\ne 0 1\n")
        assert g.vertex_count == 2 and g.edges() == [(0, 1)]

    def test_triangle_with_comments(self):
        g = parse_edge_list("# triangle\np 3\n\ne 0 1\ne 1 2\ne 2 0\n")
        assert len(g.edges()) == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(ValueError, match="line 2: self-loop"):
            parse_edge_list("p 2\ne 0 0\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(ValueError, match="line 3: duplicate"):
            parse_edge_list("p 2\ne 0 1\ne 1 0\n")

    def test_edge_before_p(self):
        with pytest.raises(ValueError, match="before the 'p' line"):
            parse_edge_list("e 0 1\n")

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_edge_list("p 2\ne 0 5\n")

    def test_unknown_directive(self):
        with pytest.raises(ValueError, match="unrecognized directive"):
            parse_edge_list("p 2\nq 0 1\n")

    def test_missing_p(self):
        with pytest.raises(ValueError, match="missing 'p"):
            parse_edge_list("# nothing\n")


class TestSpectrumCommand:
    def test_lcr5_json(self, capsys):
        status, out, _ = run(
            capsys, "spectrum", "--family", "lcr", "--n", "5", "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["distinct"] == [-6, -2, -1, 1, 33]
        assert payload["integral"] is True
        assert payload["order"] == 20

    def test_line_johnson_is_reported_not_integral(self, capsys):
        status, out, _ = run(
            capsys,
            "spectrum", "--family", "line-johnson", "--n", "6", "--k", "2",
            "--method", "char-poly",
        )
        assert status == 0
        assert "NOT distance integral" in out
        assert "residual:" in out

    def test_quotient_assisted_for_lcr(self, capsys):
        status, out, _ = run(
            capsys,
            "spectrum", "--family", "lcr", "--n", "4",
            "--method", "quotient-assisted", "--format", "json",
        )
        assert status == 0
        assert json.loads(out)["method"] == "quotient-assisted"

    def test_quotient_assisted_with_explicit_generators(self, capsys):
        # hexagon: the reflection fixing vertex 1 plus the full rotation
        status, out, _ = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "6",
            "--method", "quotient-assisted",
            "--stabilizer-gens", "(2 6)(3 5)",
            "--transitive-gens", "(1 2 3 4 5 6)",
        )
        assert status == 0
        assert "distinct: -4 -1 0 9" in out

    def test_quotient_assisted_reports_residual(self, capsys):
        # the heptagon is not distance integral: both methods give the
        # Perron value plus a degree-6 residual factor
        status, out, _ = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "7",
            "--method", "quotient-assisted",
            "--stabilizer-gens", "(2 7)(3 6)(4 5)",
            "--transitive-gens", "(1 2 3 4 5 6 7)",
        )
        assert status == 0
        status_rank, out_rank, _ = run(capsys, "spectrum", "--family", "cycle", "--n", "7")
        assert status_rank == 0

        def lines(text):
            return [
                line for line in text.splitlines()
                if line.startswith(("eigenvalues:", "residual:"))
            ]

        assert len(lines(out)) == 2
        assert lines(out) == lines(out_rank)
        assert "NOT distance integral" in out

    def test_char_poly_without_fork_exits_zero(self, capsys, monkeypatch):
        # char-poly computes every block of cycle(37)'s D in this process:
        # with os.fork refused, it prints the same and never calls it; an
        # OSError that reached main would be reported as a usage error
        argv = ("spectrum", "--family", "cycle", "--n", "37", "--method", "char-poly")
        status, expected, _ = run(capsys, *argv)
        assert status == 0

        refused = []

        def refuse():
            refused.append(True)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refuse)
        assert run(capsys, *argv) == (0, expected, "")
        assert refused == []

    def test_char_poly_with_sigchld_ignored_exits_zero(self):
        # an ignored SIGCHLD, inherited through exec, has the system reap
        # every child; char-poly waits for none, and prints the same
        src = os.path.dirname(os.path.dirname(orbitspectra.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        argv = [sys.executable, "-m", "orbitspectra.cli", "spectrum", "--family", "cycle",
                "--n", "37", "--method", "char-poly"]
        ignoring = [sys.executable, "-c", (
            "import os, signal, sys; signal.signal(signal.SIGCHLD, signal.SIG_IGN); "
            "os.execv(sys.executable, sys.argv[1:])"
        )]
        runs = [
            subprocess.run(
                prefix + argv, env=dict(os.environ, PYTHONPATH=path),
                capture_output=True, text=True, timeout=60,
            )
            for prefix in ([], ignoring)
        ]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
        assert runs[0].stdout == runs[1].stdout

    def test_internal_disagreement_exits_three(self, capsys, monkeypatch):
        # lcr(5)'s det(xI - D) has only integer roots, so every one but 33
        # is ranked; with the rank of -2 lost it disagrees with -2^4
        true_mult = spectral.eigen_multiplicity
        monkeypatch.setattr(
            spectral, "eigen_multiplicity",
            lambda m, lam, *rest: 0 if lam == -2 else true_mult(m, lam, *rest),
        )
        status, out, err = run(capsys, "spectrum", "--family", "lcr", "--n", "5")
        assert (status, out) == (3, "")
        assert err == (
            "internal error: eigenvalue -2: rank gives multiplicity 0, det(xI - D) gives 4\n"
        )

    @pytest.mark.parametrize(
        "family,patch,message",
        [
            # the heptagon's 12 leaves e_s nonzero; a stand-in det(xI - D) =
            # (x - 12)(x + 2)(x^5 + 10x^4 + 1), of the right order and trace,
            # keeps a residual but gains the root -2
            pytest.param(
                ("cycle", "--n", "7", "--stabilizer-gens", "(2 7)(3 6)(4 5)",
                 "--transitive-gens", "(1 2 3 4 5 6 7)"),
                "char_poly",
                "det(xI - D) has integer roots [(-2, 1), (12, 1)], residual degree 5; "
                "the roots-among-quotient route needs a residual and integer roots among [12]",
                id="root-outside-the-quotients",
            ),
            # lcr(5) is integral, so a failed annihilation there is a contradiction
            pytest.param(
                ("lcr", "--n", "5"),
                "_annihilates",
                "det(xI - D) has integer roots [(-6, 4), (-2, 4), (-1, 6), (1, 5), (33, 1)], "
                "residual degree 0; the roots-among-quotient route needs a residual and "
                "integer roots among [-6, -2, -1, 1, 33]",
                id="no-residual",
            ),
        ],
    )
    def test_d_against_q_roots_exits_three(self, capsys, monkeypatch, family, patch, message):
        true_char_poly = spectral.char_poly
        stand_in = IntPolynomial.from_roots([12, -2]).multiply(IntPolynomial([1, 0, 0, 0, 10, 1]))
        stand_ins = {
            "char_poly": lambda m, *rest: stand_in if m.rows == 7 else true_char_poly(m, *rest),
            "_annihilates": lambda q, values, cell: False,
        }
        monkeypatch.setattr(spectral, patch, stand_ins[patch])
        status, out, err = run(
            capsys, "spectrum", "--family", *family, "--method", "quotient-assisted"
        )
        assert (status, out) == (3, "")
        assert err == f"internal error: {message}\n"

    def test_failed_split_premise_exits_three(self, capsys, monkeypatch):
        # a transposition of two lcr(5) vertices is an involution that D
        # does not commute with; offered as the only candidate, the split
        # drops it, and rank-sweep ranks D whole, exactly
        argv = ("spectrum", "--family", "lcr", "--n", "5", "--format", "json")
        status, expected, _ = run(capsys, *argv, "--method", "char-poly")
        assert status == 0
        bogus = (1, 0, *range(2, 20))
        monkeypatch.setattr(spectral, "involution_candidates", lambda g, rows, first: [bogus])
        status, out, err = run(capsys, *argv, "--method", "rank-sweep")
        assert (status, err) == (0, "")
        whole, split = json.loads(out), json.loads(expected)
        assert whole["eigenvalues"] == split["eigenvalues"]
        assert [c["name"] for c in whole["checks"]] == ["ranks", "spectrum-complete", "trace-zero"]
        assert split["checks"][0]["name"] == "involution-split"

    def test_broken_spectrum_invariant_exits_three(self, capsys, monkeypatch):
        # one root of multiplicity 1 and no residual cannot cover order 7;
        # Spectrum rejects it as an internal error, not a usage error
        monkeypatch.setattr(
            spectral, "integer_roots", lambda p, bound: ([(0, 1)], IntPolynomial.one())
        )
        status, out, err = run(
            capsys, "spectrum", "--family", "cycle", "--n", "7", "--method", "char-poly"
        )
        assert status == 3
        assert out == ""
        assert err.startswith("internal error:")

    @pytest.mark.parametrize(
        "wrong_mult,reason",
        [
            pytest.param(0, "moment solve for -6 is inexact: 100 / 28", id="inexact-division"),
            pytest.param(
                48, "moment-solved multiplicity of -2 is -31 < 1", id="solved-below-one"
            ),
            pytest.param(
                -36, "spare moment k=3: solved values give -513, tr D^3 leaves -933",
                id="cubic-mismatch",
            ),
        ],
    )
    def test_inconsistent_moment_solve_exits_three(self, capsys, monkeypatch, wrong_mult, reason):
        # lcr(5) ranks only -1 (multiplicity 6) and solves -6, -2 and 1 from
        # tr D^k, k = 0..2. Those divisions are exact only for 6 mod 42: 0
        # leaves -6 a fraction, 48 gives -2 a negative multiplicity, and
        # -36 solves -6, -2, 1 as 1, 39, 15, which only tr D^3 = |V| (Q^3)_ss
        # rejects
        true_mult = spectral.eigen_multiplicity
        monkeypatch.setattr(
            spectral, "eigen_multiplicity",
            lambda m, lam, *rest: wrong_mult if lam == -1 else true_mult(m, lam, *rest),
        )
        status, out, err = run(
            capsys, "spectrum", "--family", "lcr", "--n", "5", "--method", "quotient-assisted"
        )
        assert status == 3
        assert out == ""
        assert err.startswith("internal error:")
        assert reason in err

    def test_candidate_above_the_row_sum_exits_three(self, capsys, monkeypatch):
        # an extra candidate keeps the annihilation, but the largest
        # eigenvalue must be the Perron value, the constant row sum 19
        roots = spectral.integer_roots
        monkeypatch.setattr(
            spectral, "integer_roots",
            lambda p, bound: (roots(p, bound)[0] + [(20, 1)], IntPolynomial.one()),
        )
        status, out, err = run(
            capsys, "spectrum", "--family", "lcr", "--n", "4", "--method", "quotient-assisted"
        )
        assert status == 3
        assert out == ""
        assert err == "internal error: largest candidate 20 is not the constant row sum 19\n"

    def test_failed_spare_moment_exits_three(self, capsys, monkeypatch):
        # a false annihilation leaves the heptagon's 6 irrational
        # eigenvalues unaccounted for: tr D^0 = 7 is not 1 (Perron alone)
        monkeypatch.setattr(spectral, "_annihilates", lambda q, values, cell: True)
        status, out, err = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "7", "--method", "quotient-assisted",
            "--stabilizer-gens", "(2 7)(3 6)(4 5)", "--transitive-gens", "(1 2 3 4 5 6 7)",
        )
        assert status == 3
        assert out == ""
        assert err == (
            "internal error: spare moment k=0: solved values give 0, tr D^0 leaves 6\n"
        )

    def test_inexact_root_division_exits_three(self, capsys, monkeypatch):
        # a check that python -O cannot strip: a root whose synthetic
        # division leaves a remainder is an internal error
        divide = IntPolynomial.divide_linear
        monkeypatch.setattr(
            IntPolynomial, "divide_linear", lambda self, r: (divide(self, r)[0], 1)
        )
        status, out, err = run(
            capsys, "spectrum", "--family", "cycle", "--n", "7", "--method", "char-poly"
        )
        assert status == 3
        assert out == ""
        assert err == "internal error: dividing out the root 12 left remainder 1\n"

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        # a bug is an internal error, never exit 1 (a refutation)
        def broken(*args):
            raise KeyError("no such family")

        monkeypatch.setattr(cli, "build_family", broken)
        status, out, err = run(capsys, "spectrum", "--family", "lcr", "--n", "5")
        assert status == 3
        assert out == ""
        assert err.startswith("internal error: KeyError: 'no such family'\n")

    def test_internal_value_error_exits_three(self, capsys, monkeypatch):
        # a broken cell order is a fault of the program, not of the input
        reps = list(spectral.STABILIZER_CELL_REPS)
        reps[1] = reps[0]
        monkeypatch.setattr(spectral, "STABILIZER_CELL_REPS", tuple(reps))
        status, out, err = run(capsys, "quotient", "--n", "5")
        assert status == 3
        assert out == ""
        assert err.startswith(
            "internal error: ValueError: representatives must select each cell exactly once\n"
        )

    def test_bad_generator_notation_exits_two(self, capsys):
        status, _, err = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "6",
            "--method", "quotient-assisted",
            "--stabilizer-gens", "(2 6",
            "--transitive-gens", "(1 2 3 4 5 6)",
        )
        assert status == 2
        assert "malformed" in err

    def test_non_automorphism_stabilizer_exits_two(self, capsys):
        # (2 6) and (3 5) each break the hexagon's edges, though together
        # their orbits are the reflection's equitable partition
        status, out, err = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "6",
            "--method", "quotient-assisted",
            "--stabilizer-gens", "(2 6);(3 5)",
            "--transitive-gens", "(1 2 3 4 5 6)",
        )
        assert status == 2
        assert out == ""
        assert err == "error: generator #0 (Permutation((2 6))) is not an automorphism\n"

    def test_csv_flattens_eigenvalues(self, capsys):
        status, out, _ = run(
            capsys, "spectrum", "--family", "crown", "--n", "4", "--format", "csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph,n,eigenvalue,multiplicity"
        assert lines[1] == "crown n=4,4,-4,3"

    def test_csv_names_a_residual_on_stderr(self, capsys):
        # the heptagon's six irrational eigenvalues have no CSV row
        status, out, err = run(
            capsys, "spectrum", "--family", "cycle", "--n", "7", "--format", "csv"
        )
        assert status == 0
        assert out == "graph,n,eigenvalue,multiplicity\ncycle n=7,7,12,1\n"
        assert err == (
            "cycle n=7: NOT distance integral; "
            "residual: x^6 + 12*x^5 + 46*x^4 + 62*x^3 + 37*x^2 + 10*x + 1\n"
        )
        status, _, err = run(
            capsys, "spectrum", "--family", "crown", "--n", "4", "--format", "csv"
        )
        assert status == 0 and err == ""

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("p 2\ne 0 1\n", encoding="utf-8")
        status, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert status == 0
        assert "distinct: -1 1" in out

    def test_determinism(self, capsys):
        argv = ("spectrum", "--family", "lcr", "--n", "5", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "6",
            "--format", "json", "--output", str(target),
        )
        assert status == 0 and out == ""
        assert json.loads(target.read_text())["distinct"] == [-4, -1, 0, 9]


class TestVerifyCommand:
    def test_range_passes(self, capsys):
        status, out, _ = run(capsys, "verify-lcr", "--n", "4..8")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all("PASS" in line for line in lines)
        assert lines[0] == "n=4: PASS distinct eigenvalues -5 -1 1 19"

    def test_json_payload(self, capsys):
        status, out, _ = run(capsys, "verify-lcr", "--n", "4", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload[0]["graph"] == "lcr n=4"
        # a passing entry says so, as a failing one says "verified": false
        assert payload[0]["verified"] is True
        assert all(check["pass"] for check in payload[0]["checks"])
        assert [check["name"] for check in payload[0]["checks"]] == [
            "graph-shape", "stabilizer-orbits", "orbit-sizes", "distances",
            "stabilizer-automorphisms", "quotient-closed-form", "quotient-spectrum",
            "distance-spectrum", "annihilates", "moments", "spectrum-complete",
            "trace-zero",
        ]

    def test_multiplicities_must_match_the_closed_form(self, capsys, monkeypatch):
        # lcr(5) is -6^4 -2^4 -1^6 1^5 33^1; this spectrum keeps the order,
        # the trace, the distinct values and a simple Perron value
        certify = spectral.is_distance_integral

        def misreported(*args, **kwargs):
            wrong = Spectrum(((-6, 4), (-2, 6), (-1, 3), (1, 6), (33, 1)), None, 20)
            return certify(*args, **kwargs)._replace(spectrum=wrong)

        monkeypatch.setattr(spectral, "is_distance_integral", misreported)
        status, out, _ = run(capsys, "verify-lcr", "--n", "5")
        assert status == 1
        assert out == (
            "n=5: FAIL at stage 'distance-spectrum': certified -6^4 -2^6 -1^3 1^6 33^1; "
            "closed form -6^4 -2^4 -1^6 1^5 33^1\n"
        )

    def test_n_below_four_is_a_usage_error(self, capsys):
        # lcr(3) is outside the theorem, not a counterexample to it
        for n in ("3", "3..5"):
            status, out, err = run(capsys, "verify-lcr", "--n", n)
            assert status == 2, n
            assert out == "", n
            assert ">= 4" in err, n

    def test_empty_n_is_a_usage_error(self, capsys):
        status, out, err = run(capsys, "verify-lcr", "--n", "")
        assert status == 2
        assert out == ""
        assert err == "error: verify-lcr needs --n, an integer >= 4 or a range 'a..b'\n"

    def test_stabilizer_generators_must_be_automorphisms(self, capsys, monkeypatch):
        # swapping the pair vertices (1,3) and (1,4) keeps lcr(5)'s 7 orbits,
        # since the two share one, but maps the edge (1,3)~(2,3) to a non-edge
        verts = pair_vertices(5)
        swap = Permutation.from_cycles([[verts.index((1, 3)), verts.index((1, 4))]], 20)
        stabilizer = spectral.lcr_stabilizer_gens
        monkeypatch.setattr(
            spectral, "lcr_stabilizer_gens",
            lambda n: GeneratorSet.of(*stabilizer(n).generators, swap),
        )
        status, out, _ = run(capsys, "verify-lcr", "--n", "5")
        assert status == 1
        assert out == (
            "n=5: FAIL at stage 'stabilizer-automorphisms': "
            f"generator #2 ({swap!r}) is not an automorphism\n"
        )

    @pytest.mark.parametrize("broken", ["not-an-automorphism", "intransitive"])
    def test_automorphism_generators_must_be_transitive(self, capsys, monkeypatch, broken):
        if broken == "not-an-automorphism":
            # the pair vertices (1,2) and (1,3) swapped, and nothing else
            extra = Permutation.from_cycles([[0, 1]], 20)
            gens = GeneratorSet.of(*spectral.lcr_automorphism_gens(5).generators, extra)
            detail = f"generator #4 ({extra!r}) is not an automorphism"
        else:
            # automorphisms, but the stabilizer's 7 orbits, not one
            gens = spectral.lcr_stabilizer_gens(5)
            detail = "graph is not vertex-transitive under the given generators"
        monkeypatch.setattr(spectral, "lcr_automorphism_gens", lambda n: gens)
        status, out, err = run(capsys, "verify-lcr", "--n", "5")
        assert status == 1
        assert out == f"n=5: FAIL at stage 'vertex-transitivity': {detail}\n"
        assert err == ""

    def test_stage_failure_is_named_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            spectral, "lcr_quotient_closed_form",
            corrupted(spectral.lcr_quotient_closed_form),
        )
        status, out, _ = run(capsys, "verify-lcr", "--n", "4")
        assert status == 1
        assert out.startswith("n=4: FAIL at stage 'quotient-closed-form': ")
        status, out, _ = run(capsys, "verify-lcr", "--n", "4", "--format", "json")
        assert status == 1
        (entry,) = json.loads(out)
        assert entry["verified"] is False
        assert entry["stage"] == "quotient-closed-form"
        status, out, err = run(capsys, "verify-lcr", "--n", "4", "--format", "csv")
        assert status == 1
        assert out == "graph,n,eigenvalue,multiplicity\n"
        assert err.startswith("n=4: FAIL at stage 'quotient-closed-form': ")


class TestQuotientCommand:
    def test_text_matches_closed_form(self, capsys):
        status, out, _ = run(capsys, "quotient", "--n", "4")
        assert status == 0
        assert "matches closed form: yes" in out
        assert "0 2 4 3 4 2 4" in out

    def test_json(self, capsys):
        status, out, _ = run(capsys, "quotient", "--n", "5", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["computed"][0] == ["0", "3", "6", "3", "6", "3", "12"]
        assert payload["cells"][0] == {"representative": "(1,2)", "size": 1}

    def test_closed_form_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "lcr_quotient_closed_form", corrupted(cli.lcr_quotient_closed_form)
        )
        status, out, _ = run(capsys, "quotient", "--n", "4")
        assert status == 1
        assert "matches closed form: NO" in out
        status, out, err = run(capsys, "quotient", "--n", "4", "--format", "csv")
        assert status == 1
        assert out.startswith("row,col,entry\n")
        assert err == "matches closed form: NO\n"


class TestDistancesCommand:
    def test_text(self, capsys):
        status, out, _ = run(capsys, "distances", "--family", "cycle", "--n", "4")
        assert status == 0
        assert "0 1 2 1" in out

    def test_csv(self, capsys):
        status, out, _ = run(
            capsys, "distances", "--family", "cycle", "--n", "4", "--format", "csv"
        )
        assert status == 0
        assert out.splitlines()[0] == "u,v,distance"
        assert "0,2,2" in out


class TestCheckDrCommand:
    def test_lcr_is_refused_with_witness(self, capsys):
        status, out, _ = run(capsys, "check-dr", "--family", "lcr", "--n", "4")
        assert status == 0
        assert "distance-regular: no" in out
        assert "witness" in out

    def test_crown_with_intersection_array(self, capsys):
        status, out, _ = run(capsys, "check-dr", "--family", "crown", "--n", "4")
        assert status == 0
        assert "distance-regular: yes" in out
        assert "{3,2,1; 1,2,3}" in out


class TestUsageErrors:
    def test_family_needs_n(self, capsys):
        status, _, err = run(capsys, "spectrum", "--family", "lcr")
        assert status == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "spectrum", "--input", "/nonexistent.edges")
        assert status == 2

    def test_bad_range(self, capsys):
        status, _, err = run(capsys, "verify-lcr", "--n", "8..4")
        assert status == 2

    def test_two_sources_rejected(self, capsys):
        status, _, err = run(
            capsys, "spectrum", "--family", "lcr", "--n", "4", "--input", "x.edges"
        )
        assert status == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("spectrum", "--input", "{square}", "--n", "9"),
             "--n goes with --family, not with --input"),
            (("scan", "--family", "cycle", "--n", "4..5", "--k", "2"),
             "--k goes with --family johnson or line-johnson only"),
            (("distances", "--family", "lcr", "--n", "4", "--connections", "1,2"),
             "--connections goes with --family circulant only"),
        ],
        ids=["n-with-input", "k-outside-johnson", "connections-outside-circulant"],
    )
    def test_flags_the_source_would_ignore_are_refused(self, capsys, tmp_path, argv, message):
        square = tmp_path / "square.edges"
        square.write_text("p 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", encoding="utf-8")
        status, out, err = run(capsys, *(arg.format(square=square) for arg in argv))
        assert (status, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_an_empty_connection_set_is_a_bad_one(self, capsys):
        status, out, err = run(
            capsys, "spectrum", "--family", "circulant", "--n", "8", "--connections", ","
        )
        assert (status, out) == (2, "")
        assert err == "error: bad connection set ',': expected e.g. '1,2'\n"

    def test_family_parameter_out_of_range(self, capsys):
        status, out, err = run(capsys, "spectrum", "--family", "cycle", "--n", "2")
        assert status == 2
        assert out == ""
        assert err == "error: cycle graph defined for n >= 3\n"

    def test_johnson_needs_k(self, capsys):
        status, _, err = run(capsys, "spectrum", "--family", "johnson", "--n", "6")
        assert status == 2

    def test_missing_p_line_has_no_line_number(self, capsys, tmp_path):
        path = tmp_path / "comment.edges"
        path.write_text("# nothing\n", encoding="utf-8")
        status, out, err = run(capsys, "spectrum", "--input", str(path))
        assert status == 2
        assert out == ""
        assert err == "error: missing 'p <vertex_count>' line\n"

    @pytest.mark.parametrize(
        "p_line", ["p \N{SUPERSCRIPT TWO}", "p -3", "p 3x", "p", "p 3 4"]
    )
    def test_bad_vertex_count_is_a_usage_error(self, capsys, tmp_path, p_line):
        # '²'.isdigit() holds, yet int('²') raises
        path = tmp_path / "count.edges"
        path.write_text(p_line + "\n", encoding="utf-8")
        status, out, err = run(capsys, "spectrum", "--input", str(path))
        assert (status, out) == (2, "")
        assert err == "error: line 1: expected 'p <vertex_count>'\n"

    def test_input_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"p 3\ne 0 1\xff\n")
        status, out, err = run(capsys, "spectrum", "--input", str(path))
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "split.edges"
        path.write_text("p 4\ne 0 1\ne 2 3\n", encoding="utf-8")
        status, _, err = run(capsys, "spectrum", "--input", str(path))
        assert status == 2
        assert "disconnected" in err

    def test_disconnected_input_with_quotient_assisted(self, capsys, tmp_path):
        # the quotient's first representative row shows the split, before
        # transitivity (these generators have two orbits) is looked at
        path = tmp_path / "split.edges"
        path.write_text("p 4\ne 0 1\ne 2 3\n", encoding="utf-8")
        status, out, err = run(
            capsys, "spectrum", "--input", str(path), "--method", "quotient-assisted",
            "--stabilizer-gens", "(3 4)", "--transitive-gens", "(1 3)(2 4)",
        )
        assert (status, out) == (2, "")
        assert err == "error: graph is disconnected: no path between vertex 0 and 2\n"

    def test_quotient_assisted_unwired_family(self, capsys):
        for argv in (
            ("spectrum", "--family", "crown", "--n", "4"),
            ("scan", "--family", "crown", "--n", "3..4"),
        ):
            status, out, err = run(capsys, *argv, "--method", "quotient-assisted")
            assert status == 2, argv
            assert out == "" and "--stabilizer-gens" in err, argv

    def test_single_graph_commands_reject_ranges(self, capsys):
        for argv in (
            ("spectrum", "--family", "crown", "--n", "3..5"),
            ("distances", "--family", "cycle", "--n", "4..6"),
            ("quotient", "--n", "4..6"),
        ):
            status, _, err = run(capsys, *argv)
            assert status == 2, argv

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("spectrum", "--family", "cycle", "--n", "4..5"),
             "spectrum works on one graph; use scan for an n range"),
            (("quotient", "--n", "4..5"), "quotient takes one integer --n, not a range"),
            (("distances", "--family", "cycle", "--n", "4..5"),
             "distances takes one integer --n, not a range"),
            (("check-dr", "--family", "cycle", "--n", "4..5"),
             "check-dr takes one integer --n, not a range"),
        ],
        ids=["spectrum", "quotient", "distances", "check-dr"],
    )
    def test_only_spectrum_points_a_range_to_scan(self, capsys, argv, message):
        # scan computes spectra only
        status, out, err = run(capsys, *argv)
        assert (status, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "gens,message",
        [
            ("(2 7)", "point 7 outside 1..6"),
            ("(2 6)(6 3)", "point 6 repeated across cycles"),
            ("(0 1)", "point 0 outside 1..6"),
        ],
        ids=["past-the-end", "repeated", "zero"],
    )
    def test_generator_points_are_reported_as_typed(self, capsys, gens, message):
        status, out, err = run(
            capsys,
            "spectrum", "--family", "cycle", "--n", "6", "--method", "quotient-assisted",
            "--stabilizer-gens", gens, "--transitive-gens", "(1 2 3 4 5 6)",
        )
        assert (status, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_group_options_are_never_ignored(self, capsys):
        for argv in (
            # one of the pair, where lcr's built-in group would be used
            ("spectrum", "--family", "lcr", "--n", "5", "--method", "quotient-assisted",
             "--stabilizer-gens", "(1 2)"),
            ("scan", "--family", "lcr", "--n", "4..5", "--method", "quotient-assisted",
             "--transitive-gens", "(1 2)"),
            # both, with a method that takes no group
            ("spectrum", "--family", "cycle", "--n", "6",
             "--stabilizer-gens", "(2 6)(3 5)", "--transitive-gens", "(1 2 3 4 5 6)"),
            ("scan", "--family", "cycle", "--n", "6..7", "--method", "char-poly",
             "--stabilizer-gens", "(2 6)(3 5)", "--transitive-gens", "(1 2 3 4 5 6)"),
        ):
            status, out, err = run(capsys, *argv)
            assert status == 2, argv
            assert out == "" and "--stabilizer-gens" in err, argv

    def test_quotient_rejects_small_n(self, capsys):
        status, _, err = run(capsys, "quotient", "--n", "3")
        assert status == 2
        assert ">= 4" in err

    def test_check_dr_rejects_csv(self, capsys):
        status, _, err = run(
            capsys, "check-dr", "--family", "cycle", "--n", "6", "--format", "csv"
        )
        assert status == 2


class TestScanCommand:
    def test_csv_over_range(self, capsys):
        status, out, err = run(
            capsys, "scan", "--family", "crown", "--n", "3..5", "--format", "csv"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph,n,eigenvalue,multiplicity"
        assert any(line.startswith("crown n=3,3,") for line in lines)
        assert any(line.startswith("crown n=5,5,") for line in lines)
        # timing goes to stderr so stdout stays deterministic
        assert "n=3:" in err and "s" in err
        assert "NOT distance integral" not in err

    def test_csv_names_each_residual_on_stderr(self, capsys):
        status, out, err = run(
            capsys, "scan", "--family", "cycle", "--n", "6..7", "--format", "csv"
        )
        assert status == 0
        assert out.splitlines()[-1] == "cycle n=7,7,12,1"
        residuals = [line for line in err.splitlines() if "NOT distance integral" in line]
        assert len(residuals) == 1
        assert residuals[0].startswith("cycle n=7: NOT distance integral; residual: x^6 ")

    def test_quotient_assisted_rows_match_spectrum(self, capsys):
        status, scanned, _ = run(
            capsys, "scan", "--family", "lcr", "--n", "5..6",
            "--method", "quotient-assisted", "--format", "csv",
        )
        assert status == 0
        expected = []
        for n in (5, 6):
            status, single, _ = run(
                capsys, "spectrum", "--family", "lcr", "--n", str(n),
                "--method", "quotient-assisted", "--format", "csv",
            )
            assert status == 0
            expected.extend(single.strip().splitlines()[1:])
        assert scanned.strip().splitlines()[1:] == expected


def test_cli_start_up_imports_no_rational_arithmetic():
    # every value the package computes is an exact integer
    src = os.path.dirname(os.path.dirname(orbitspectra.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import orbitspectra.cli, sys; "
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_cli_import_loads_no_format_or_introspection_modules():
    # json and csv load in the writers that use them; no record type pulls
    # in dataclasses, and with it inspect. -S keeps site's .pth imports out
    src = os.path.dirname(os.path.dirname(orbitspectra.__file__))
    probe = (
        "import orbitspectra.cli, sys; "
        "print(sorted(m for m in ('csv', 'dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_malformed_generators_are_refused_in_linear_time():
    # a whitespace run between two groups has one parse; with many, each
    # further group would double or treble a backtracking check's time
    src = os.path.dirname(os.path.dirname(orbitspectra.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [
        sys.executable, "-m", "orbitspectra.cli",
        "spectrum", "--family", "cycle", "--n", "7", "--method", "quotient-assisted",
        "--stabilizer-gens", "(1 2)  " * 16 + "x", "--transitive-gens", "(1 2 3 4 5 6 7)",
    ]
    done = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=1
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: malformed cycle notation: '(1 2)  (1 2)")
