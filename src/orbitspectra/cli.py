"""Command-line front end.

Exit codes: 0 for success (including a clean "not integral" finding),
1 when a verification is mathematically refuted, 2 for usage or input
errors (an InputError, or an OSError on a named file), 3 for an
internal error (two exact computations that must agree did not, or any
other unexpected exception, a ValueError included). Output on stdout is
byte-identical across runs for identical inputs; timing goes to stderr.
"""

import argparse
import io
import sys
import time

from orbitspectra.graphs import (
    Graph,
    InputError,
    all_pairs_distances,
    build_circulant,
    build_complete,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
    build_line_graph,
    is_distance_regular,
)
from orbitspectra.spectral import (
    METHODS,
    VerificationError,
    is_distance_integral,
    lcr_quotient_closed_form,
    lcr_stabilizer_partition,
    quotient_matrix,
    verify_lcr,
)
from orbitspectra.perms import (
    GeneratorSet,
    lcr_automorphism_gens,
    lcr_stabilizer_gens,
    orbits,
    parse_cycles,
)


class UsageError(InputError):
    pass


class EdgeListError(InputError):
    """A malformed edge list; lineno is None for a fault of the whole file."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


FAMILIES = ("crown", "lcr", "cycle", "complete", "johnson", "line-johnson", "circulant")


def parse_edge_list(text) -> Graph:
    """Parse the edge-list format: "p <count>" then "e <u> <v>" lines.

    Blank lines and lines starting with "#" are ignored; duplicate
    edges, self-loops and malformed lines are errors with line numbers.
    """
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise EdgeListError(lineno, "duplicate 'p' line")
            try:
                (count,) = parts[1:]
                n = int(count)
                if n < 0:
                    raise ValueError
            except ValueError:
                raise EdgeListError(lineno, "expected 'p <vertex_count>'") from None
        elif parts[0] == "e":
            if n is None:
                raise EdgeListError(lineno, "edge listed before the 'p' line")
            if len(parts) != 3:
                raise EdgeListError(lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise EdgeListError(lineno, "edge endpoints must be integers") from None
            if u == v:
                raise EdgeListError(lineno, f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(lineno, f"edge ({u},{v}) out of range 0..{n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise EdgeListError(lineno, f"duplicate edge ({u},{v})")
            seen.add(key)
            edges.append(key)
        else:
            raise EdgeListError(lineno, f"unrecognized directive {parts[0]!r}")
    if n is None:
        raise EdgeListError(None, "missing 'p <vertex_count>' line")
    return Graph(n, edges)


def build_family(family, n, k=None, connections=()):
    """Construct a named family member and its report description."""
    if family == "crown":
        return build_crown(n), f"crown n={n}"
    if family == "lcr":
        return build_lcr(n), f"lcr n={n}"
    if family == "cycle":
        return build_cycle(n), f"cycle n={n}"
    if family == "complete":
        return build_complete(n), f"complete n={n}"
    if family == "johnson":
        if k is None:
            raise UsageError("--k is required for the johnson family")
        return build_johnson(n, k), f"johnson n={n} k={k}"
    if family == "line-johnson":
        if k is None:
            raise UsageError("--k is required for the line-johnson family")
        return build_line_graph(build_johnson(n, k)), f"line-johnson n={n} k={k}"
    if family == "circulant":
        if not connections:
            raise UsageError("--connections is required for the circulant family")
        conn = ",".join(str(c) for c in connections)
        return build_circulant(n, connections), f"circulant n={n} c={conn}"
    raise UsageError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _parse_n_range(text):
    """"a" or "a..b" (inclusive, ascending)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"bad range {text!r}: expected 'a..b'") from None
        if hi < lo:
            raise UsageError(f"bad range {text!r}: end below start")
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise UsageError(f"bad value {text!r}: expected an integer or 'a..b'") from None


def _parse_connections(text):
    """A nonempty comma-separated set of integers; empty items are skipped."""
    try:
        connections = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        connections = ()
    if not connections:
        raise UsageError(f"bad connection set {text!r}: expected e.g. '1,2'")
    return connections


def _load_graph(args):
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
        return parse_edge_list(text), args.input
    return build_family(args.family, args.n_values[0], args.k, args.connections)


def _report_lines(report):
    yield f"graph: {report.graph}"
    spectrum = report.spectrum
    yield f"order: {spectrum.order}"
    yield f"method: {report.method}"
    yield ("distance integral: yes" if spectrum.is_integral else "NOT distance integral")
    yield "eigenvalues: " + " ".join(f"{v}^{m}" for v, m in spectrum.integer_part)
    if spectrum.residual is not None:
        yield f"residual: {spectrum.residual}"
    yield "distinct: " + " ".join(str(v) for v in spectrum.distinct_values)


def _emit_csv(header, rows, out):
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(payload, out):
    import json

    out.write(json.dumps(payload, indent=2) + "\n")


def _parse_generator_list(text, degree):
    """Semicolon-separated cycle notations over 1-based vertex numbers."""
    perms = [parse_cycles(part, degree) for part in text.split(";") if part.strip()]
    if not perms:
        raise UsageError("empty generator list")
    return GeneratorSet.of(*perms)


def _spectrum_report(args, g, description, n):
    quotient = transitive = None
    if args.method == "quotient-assisted":
        if args.stabilizer_gens is not None:
            partition = orbits(_parse_generator_list(args.stabilizer_gens, g.vertex_count))
            transitive = _parse_generator_list(args.transitive_gens, g.vertex_count)
        elif args.family == "lcr":
            # any cell order will do: the certificate finds the singleton cell itself
            partition = orbits(lcr_stabilizer_gens(n))
            transitive = lcr_automorphism_gens(n)
        else:
            raise UsageError(
                "quotient-assisted spectra need --stabilizer-gens and --transitive-gens "
                "(cycle notation over 1-based vertex numbers); only --family lcr has "
                "them built in"
            )
        quotient = quotient_matrix(g, partition)
    return is_distance_integral(
        g, args.method, description=description,
        quotient=quotient, transitive_gens=transitive,
    )


def _write_reports(args, reports, out):
    """Text, JSON or CSV for (n, report) pairs; scan's JSON is a list."""
    if args.format == "json":
        payload = [report.to_json_dict() for _, report in reports]
        if args.command != "scan":
            payload = payload[0]
        _write_json(payload, out)
    elif args.format == "csv":
        # CSV rows carry only integer eigenvalues, so a residual goes to stderr
        for _, r in reports:
            if not r.spectrum.is_integral:
                print(f"{r.graph}: NOT distance integral; residual: {r.spectrum.residual}",
                      file=sys.stderr)
        rows = ([r.graph, n, v, m] for n, r in reports for v, m in r.spectrum.integer_part)
        _emit_csv(("graph", "n", "eigenvalue", "multiplicity"), rows, out)
    else:
        blocks = ("".join(line + "\n" for line in _report_lines(r)) for _, r in reports)
        out.write("\n".join(blocks))


def _single_n(args):
    if len(args.n_values) > 1:
        if args.command == "spectrum":
            raise UsageError("spectrum works on one graph; use scan for an n range")
        raise UsageError(f"{args.command} takes one integer --n, not a range")
    return args.n_values[0] if args.n_values else None


def cmd_spectrum(args, out):
    single = _single_n(args)
    g, description = _load_graph(args)
    n = single if args.family else g.vertex_count
    _write_reports(args, [(n, _spectrum_report(args, g, description, n))], out)
    return 0


def cmd_scan(args, out):
    if args.family is None:
        raise UsageError("scan needs --family")
    reports = []
    for n in args.n_values:
        start = time.monotonic()
        g, description = build_family(args.family, n, args.k, args.connections)
        reports.append((n, _spectrum_report(args, g, description, n)))
        print(f"n={n}: {time.monotonic() - start:.3f}s", file=sys.stderr)
    _write_reports(args, reports, out)
    return 0


def _fail_line(n, exc):
    return f"n={n}: FAIL at stage '{exc.stage}': {exc.detail}"


def cmd_verify_lcr(args, out):
    if not args.n_values:
        raise UsageError("verify-lcr needs --n, an integer >= 4 or a range 'a..b'")
    if min(args.n_values) < 4:
        raise UsageError(f"verify-lcr needs n >= 4, got {args.n}")
    failures = 0
    results = []
    for n in args.n_values:
        try:
            report = verify_lcr(n)
            results.append((n, report, None))
        except VerificationError as exc:
            failures += 1
            results.append((n, None, exc))
    if args.format == "json":
        payload = []
        for n, report, exc in results:
            if report is not None:
                payload.append({**report.to_json_dict(), "verified": True})
            else:
                payload.append(
                    {"graph": f"lcr n={n}", "verified": False,
                     "stage": exc.stage, "detail": exc.detail}
                )
        _write_json(payload, out)
    elif args.format == "csv":
        # CSV rows carry only eigenvalues, so a refutation goes to stderr
        for n, report, exc in results:
            if report is None:
                print(_fail_line(n, exc), file=sys.stderr)
        _write_reports(args, [(n, r) for n, r, _ in results if r is not None], out)
    else:
        for n, report, exc in results:
            if report is not None:
                values = " ".join(str(v) for v in report.spectrum.distinct_values)
                out.write(f"n={n}: PASS distinct eigenvalues {values}\n")
            else:
                out.write(_fail_line(n, exc) + "\n")
    return 1 if failures else 0


def cmd_quotient(args, out):
    n = _single_n(args)
    if n is None or n < 4:
        raise UsageError("quotient needs --n with a single integer >= 4")
    g = build_lcr(n)
    q = quotient_matrix(g, lcr_stabilizer_partition(n))
    pi = q.partition
    closed = lcr_quotient_closed_form(n)
    match = q.matrix == closed
    if args.format == "json":
        payload = {
            "graph": f"lcr n={n}",
            "cells": [
                {"representative": g.label(cell[0]), "size": len(cell)}
                for cell in pi.cells
            ],
            "computed": q.matrix.to_decimal_rows(),
            "closed_form": closed.to_decimal_rows(),
            "match": match,
        }
        _write_json(payload, out)
    elif args.format == "csv":
        entries = q.matrix.entries
        rows = ((i, j, x) for i, row in enumerate(entries) for j, x in enumerate(row))
        _emit_csv(("row", "col", "entry"), rows, out)
        if not match:
            print("matches closed form: NO", file=sys.stderr)
    else:
        out.write(f"quotient matrix of lcr n={n} over the stabilizer orbits\n")
        for cell in pi.cells:
            out.write(f"cell rep {g.label(cell[0])} size {len(cell)}\n")
        width = max(len(str(x)) for row in q.matrix.entries for x in row)
        for row in q.matrix.entries:
            out.write(" ".join(str(x).rjust(width) for x in row) + "\n")
        out.write(f"matches closed form: {'yes' if match else 'NO'}\n")
    return 0 if match else 1


def cmd_distances(args, out):
    _single_n(args)
    g, description = _load_graph(args)
    d = all_pairs_distances(g)
    if args.format == "json":
        payload = {
            "graph": description,
            "order": d.rows,
            "labels": list(g.vertex_labels),
            "rows": d.entries,
        }
        _write_json(payload, out)
    elif args.format == "csv":
        rows = ((u, v, x) for u, row in enumerate(d.entries) for v, x in enumerate(row))
        _emit_csv(("u", "v", "distance"), rows, out)
    else:
        out.write(f"graph: {description}\n")
        width = len(str(d.max_entry()))
        label_w = max(len(x) for x in g.vertex_labels)
        for u, row in enumerate(d.entries):
            cells = " ".join(str(x).rjust(width) for x in row)
            out.write(f"{g.label(u).rjust(label_w)} | {cells}\n")
    return 0


def cmd_check_dr(args, out):
    _single_n(args)
    if args.format == "csv":
        raise UsageError("check-dr reports as text or json")
    g, description = _load_graph(args)
    result = is_distance_regular(g)
    if args.format == "json":
        payload = {"graph": description, "distance_regular": result.is_distance_regular}
        if result.is_distance_regular:
            b_arr, c_arr = result.intersection_array
            payload["intersection_array"] = {"b": list(b_arr), "c": list(c_arr)}
        else:
            dist, pair_a, counts_a, pair_b, counts_b = result.witness
            payload["witness"] = {
                "distance": dist,
                "pair_a": [g.label(pair_a[0]), g.label(pair_a[1])],
                "counts_a": list(counts_a),
                "pair_b": [g.label(pair_b[0]), g.label(pair_b[1])],
                "counts_b": list(counts_b),
            }
        _write_json(payload, out)
    else:
        out.write(f"graph: {description}\n")
        if result.is_distance_regular:
            b_arr, c_arr = result.intersection_array
            b_text = ",".join(str(x) for x in b_arr)
            c_text = ",".join(str(x) for x in c_arr)
            out.write(f"distance-regular: yes  intersection array {{{b_text}; {c_text}}}\n")
        else:
            dist, pair_a, counts_a, pair_b, counts_b = result.witness
            out.write("distance-regular: no\n")
            out.write(
                f"witness: at distance {dist}, pair "
                f"({g.label(pair_a[0])},{g.label(pair_a[1])}) has (c,a,b)={counts_a} "
                f"but ({g.label(pair_b[0])},{g.label(pair_b[1])}) has {counts_b}\n"
            )
    return 0


def _add_source_args(p, need_method=True):
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", help="family parameter, an integer or a range 'a..b'")
    p.add_argument("--k", type=int, help="second parameter (johnson families)")
    p.add_argument("--connections", help="circulant connection set, e.g. '1,2'")
    p.add_argument("--input", help="edge-list file as an alternative to --family")
    if need_method:
        p.add_argument(
            "--method",
            choices=METHODS,
            default="rank-sweep",
        )
        p.add_argument(
            "--stabilizer-gens",
            help="generators of an automorphism subgroup whose orbit partition "
                 "has a singleton cell, as cycles over 1-based vertex numbers, "
                 "e.g. '(2 6)(3 5)'; ';'-separated",
        )
        p.add_argument(
            "--transitive-gens",
            help="automorphism generators witnessing vertex-transitivity, "
                 "same notation as --stabilizer-gens",
        )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", help="write the report here instead of stdout")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitspectra",
        description="Exact distance spectra of graphs via orbit-partition quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_source_args(sub.add_parser("spectrum", help="distance spectrum of one graph"))
    _add_source_args(sub.add_parser("scan", help="spectra over a range of n"))

    p_verify = sub.add_parser("verify-lcr", help="certify the crown line graph theorem")
    p_verify.add_argument("--n", required=True, help="an integer or a range 'a..b'")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--output")

    p_quot = sub.add_parser("quotient", help="orbit quotient matrix of the crown line graph")
    p_quot.add_argument("--n", required=True, help="an integer >= 4")
    p_quot.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_quot.add_argument("--output")

    _add_source_args(sub.add_parser("distances", help="exact distance matrix"), need_method=False)
    _add_source_args(sub.add_parser("check-dr", help="distance-regularity test"), need_method=False)
    return parser


def _normalize_args(args):
    """Parse --n and --connections in place and check the graph source;
    a source flag the chosen source would not read is a usage error."""
    args.n_values = _parse_n_range(args.n) if args.n else ()
    if args.command in ("verify-lcr", "quotient"):
        return
    if args.family is not None and not args.n_values:
        raise UsageError("--family needs --n")
    if (args.family is None) == (args.input is None):
        raise UsageError("exactly one graph source: --family with --n, or --input")
    if args.input is not None and args.n_values:
        raise UsageError("--n goes with --family, not with --input")
    if args.k is not None and args.family not in ("johnson", "line-johnson"):
        raise UsageError("--k goes with --family johnson or line-johnson only")
    if args.connections is not None and args.family != "circulant":
        raise UsageError("--connections goes with --family circulant only")
    args.connections = () if args.connections is None else _parse_connections(args.connections)
    if args.command in ("spectrum", "scan"):
        given = (args.stabilizer_gens is not None) + (args.transitive_gens is not None)
        if given == 1 or given and args.method != "quotient-assisted":
            raise UsageError(
                "--stabilizer-gens and --transitive-gens go together, "
                "with --method quotient-assisted only"
            )


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "verify-lcr": cmd_verify_lcr,
    "quotient": cmd_quotient,
    "distances": cmd_distances,
    "check-dr": cmd_check_dr,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _normalize_args(args)
        buffer = io.StringIO()
        status = _HANDLERS[args.command](args, buffer)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
        return status
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
