"""Quotient matrices over orbit partitions and exact distance spectra.

The pipeline: the orbits of checked automorphism generators form an
equitable partition of the distance matrix, so each cell's first row
of D gives its row of the cell-sum quotient matrix Q. Q carries
eigenvalues of D, and when the graph is vertex-transitive and the
partition has a singleton cell, the distinct eigenvalue sets of Q and
D coincide. That is checked, not assumed: one pass of mat-vecs y_k =
Q^k e_s over the singleton cell's unit vector, k = 0..|S| for S the
integer roots of det(xI - Q), must show that the product of (Q - lam I)
over S sends e_s to zero. The same pass gives every trace moment tr D^k
= |V| (Q^k)_ss, and the Vandermonde system in S solves every
multiplicity from them exactly, the largest value's included, which
must be 1 by Perron-Frobenius. One exact rank, at the value of largest
solved multiplicity, then checks the solve against D itself. Every
split of D is one exactla.IsotypicSplit, built once per D from the
candidates a method offers: it keeps the involutions that commute
pairwise and with D, checked, and drops the rest. D - lam I keeps each
isotypic component of their group, and one block per character ranks
it there, so the block ranks add up to the rank of D - lam I.
quotient-assisted offers its fixed-point-free transitive generators; on
lcr(n) the coordinate swap and tau_n give 4 blocks, and the one rank is
at -1. That reduces a |V| x |V| spectrum problem to the quotient size
plus one exact rank. When the product does not send e_s to zero, D has
an eigenvalue outside the integers, and nothing is ranked: det(xI - D)
gives the spectrum, and its integer roots must lie among S. A
QuotientMatrix is built from its graph: quotient_matrix searches from
one representative per cell, and D, the quotient's source, is built by
a full BFS only when a stage reads it, as the exact rank does.

rank-sweep needs no group. It expands det(xI - D) once, and its
integer roots in [-rho, rho] are the candidates: when a residual
factor is left, nothing is ranked; otherwise every root but the last
is ranked, each rank must give the root's multiplicity in det(xI - D),
and the last root keeps what the degree leaves. rank-sweep and
char-poly offer D's split two sources of involutions. First the
pairing t of each row with the column of its largest entry, when that
occurs once (on lcr(n) the coordinate swap, whose image is the one
vertex at distance 3). Then the involutive automorphisms that
perms.involution_candidates finds by a budgeted
individualisation-refinement search, each commuting with those before
it. The split checks each again and keeps k of them, and D is the
direct sum of the 2^k isotypic blocks of their group: det(xI - D) and
each rank are taken blockwise. line-johnson(7, 2) has no unique
antipode; which involutions the search finds depends on the vertex
numbering, and its 105 x 105 D splits into 4 blocks of order at most
46 as built here, 8 of order at most 22 under some relabellings.
"""

from operator import eq, mul
from typing import NamedTuple

from orbitspectra.exactla import (
    Frozen,
    IntMatrix,
    IntPolynomial,
    IsotypicSplit,
    char_poly,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import (
    Graph,
    InputError,
    all_pairs_distances,
    build_lcr,
    pair_vertices,
)
from orbitspectra.perms import (
    AutomorphismError,
    OrbitPartition,
    check_automorphisms,
    involution_candidates,
    is_vertex_transitive_under,
    lcr_automorphism_gens,
    lcr_stabilizer_gens,
    orbits,
)

METHODS = ("rank-sweep", "char-poly", "quotient-assisted")

# orbit representatives of the two-point stabilizer on pair vertices, in
# the fixed reporting order used by the closed-form quotient matrix
STABILIZER_CELL_REPS = ((1, 2), (1, 3), (3, 1), (2, 1), (2, 3), (3, 2), (3, 4))


class VerificationError(ValueError):
    """A verification pipeline stage that did not check out."""

    def __init__(self, stage, detail):
        self.stage = stage
        self.detail = detail
        super().__init__(f"verification failed at stage '{stage}': {detail}")


class QuotientMatrix(Frozen):
    """Cell-sum quotient of a graph's distance matrix over an orbit
    partition; source is that distance matrix, built on first read."""

    __slots__ = ("matrix", "partition", "graph", "_source", "_char_roots")
    _fields = ("matrix", "partition", "graph")

    def __init__(self, matrix: IntMatrix, partition: OrbitPartition, graph: Graph):
        super().__init__(
            matrix=matrix, partition=partition, graph=graph, _source=None, _char_roots=None
        )

    @property
    def source(self):
        """The graph's distance matrix D, by BFS from every vertex, once
        per quotient."""
        if self._source is None:
            object.__setattr__(self, "_source", all_pairs_distances(self.graph))
        return self._source

    @property
    def char_roots(self):
        """integer_roots of det(xI - Q), computed once per quotient: the
        sorted (root, multiplicity in Q) pairs and the residual factor."""
        if self._char_roots is None:
            roots = integer_roots(char_poly(self.matrix), bound=max(self.matrix.row_sums()))
            object.__setattr__(self, "_char_roots", roots)
        return self._char_roots


class Spectrum(Frozen):
    """Exact spectrum: integer eigenvalues with multiplicities, plus an
    optional residual factor witnessing non-integrality. The one place
    that checks a spectrum's invariants: a spectrum is always computed,
    never read from input, so a broken one is an ArithmeticError.
    checks holds the ledger entries of the exact route that computed it,
    written where that route was decided. == and hash read only the
    eigenvalues, residual and order: not checks, and not trace, which
    the eigenvalues fix."""

    __slots__ = ("integer_part", "residual", "order", "trace", "checks")
    _fields = ("integer_part", "residual", "order")

    def __init__(self, integer_part, residual, order, trace=0, checks=()):
        integer_part = tuple(integer_part)
        if list(integer_part) != sorted(integer_part):
            raise ArithmeticError("eigenvalues must be sorted ascending")
        for v, m in integer_part:
            if m < 1:
                raise ArithmeticError(f"eigenvalue {v} has multiplicity {m} < 1")
        if residual is not None and residual.degree == 0:
            residual = None
        if residual is not None:
            if residual.degree < 2:
                raise ArithmeticError("residual factor must have degree >= 2")
            if residual.leading_coefficient != 1:
                raise ArithmeticError("residual factor must be monic")
        super().__init__(
            integer_part=integer_part, residual=residual, order=order, trace=trace, checks=checks
        )
        total, res_deg = self.multiplicity_sum, self.residual_degree
        if total + res_deg != order:
            raise ArithmeticError(
                f"multiplicities ({total}) + residual degree ({res_deg}) != order ({order})"
            )
        if self.eigenvalue_sum != trace:
            raise ArithmeticError(f"weighted eigenvalue sum {self.eigenvalue_sum} != trace {trace}")

    @property
    def multiplicity_sum(self):
        return sum(m for _, m in self.integer_part)

    @property
    def residual_degree(self):
        return 0 if self.residual is None else self.residual.degree

    @property
    def eigenvalue_sum(self):
        """Sum of all eigenvalues with multiplicity, residual roots included."""
        weighted = sum(v * m for v, m in self.integer_part)
        if self.residual is not None:
            weighted -= self.residual.coefficients[-2]
        return weighted

    @property
    def is_integral(self):
        return self.residual is None

    @property
    def distinct_values(self):
        return tuple(v for v, _ in self.integer_part)

    def __repr__(self):
        body = ", ".join(f"{v}^{m}" for v, m in self.integer_part)
        tail = "" if self.residual is None else f"; residual deg {self.residual.degree}"
        return f"Spectrum({body}{tail})"


class Check(NamedTuple):
    """One passed entry of a check ledger: a failed check raises instead."""

    name: str
    detail: str


class IntegralityReport(NamedTuple):
    """Outcome of a distance-integrality computation, with its check ledger."""

    graph: str
    method: str
    spectrum: Spectrum
    checks: tuple

    def to_json_dict(self):
        spectrum = self.spectrum
        out = {
            "graph": self.graph,
            "order": spectrum.order,
            "method": self.method,
            "integral": spectrum.is_integral,
            "eigenvalues": [[v, m] for v, m in spectrum.integer_part],
        }
        if spectrum.residual is not None:
            out["residual_coefficients"] = [str(c) for c in spectrum.residual.coefficients]
        out["distinct"] = list(spectrum.distinct_values)
        out["checks"] = [{"name": c.name, "pass": True, "detail": c.detail} for c in self.checks]
        return out


def quotient_matrix(g: Graph, pi: OrbitPartition) -> QuotientMatrix:
    """Cell-summed distance matrix of g over pi, the orbits of pi.generators.

    Each generator must be an automorphism of g; the first that is not
    raises AutomorphismError. An automorphism keeps every distance and
    maps each cell onto itself, so all members of a cell have the same
    cell sums (pi is equitable), and each cell's first row of D gives
    its row of Q. Runs BFS from those first members only; the full D is
    left to QuotientMatrix.source.
    """
    if pi.degree != g.vertex_count:
        raise ValueError(
            f"partition covers {pi.degree} vertices, graph has {g.vertex_count}"
        )
    if pi.generators is None:
        raise ValueError("partition has no generators; build it with orbits")
    check_automorphisms(g, pi.generators)
    q_rows = []
    for d_row in all_pairs_distances(g, [cell[0] for cell in pi.cells]).entries:
        row = [0] * pi.cell_count
        for w, dw in enumerate(d_row):
            row[pi.cell_of[w]] += dw
        q_rows.append(row)
    return QuotientMatrix(IntMatrix(q_rows), pi, g)


def lcr_quotient_closed_form(n) -> IntMatrix:
    """The 7x7 quotient matrix of the crown line graph in closed form.

    Rows and columns follow the stabilizer orbit order with
    representatives (1,2), (1,3), (3,1), (2,1), (2,3), (3,2), (3,4).
    """
    if n < 4:
        raise ValueError("closed-form quotient defined for n >= 4")
    return IntMatrix(
        [
            [0, n - 2, 2 * n - 4, 3, 2 * n - 4, n - 2, 2 * (n - 2) * (n - 3)],
            [1, n - 3, 2 * n - 3, 2, 2 * n - 5, 2 * n - 4, (n - 3) * (2 * n - 5)],
            [2, 2 * n - 3, n - 3, 1, 2 * n - 4, 2 * n - 5, (n - 3) * (2 * n - 5)],
            [3, 2 * n - 4, n - 2, 0, n - 2, 2 * n - 4, 2 * (n - 2) * (n - 3)],
            [2, 2 * n - 5, 2 * n - 4, 1, n - 3, 2 * n - 3, (n - 3) * (2 * n - 5)],
            [1, 2 * n - 4, 2 * n - 5, 2, 2 * n - 3, n - 3, (n - 3) * (2 * n - 5)],
            [2, 2 * n - 5, 2 * n - 5, 2, 2 * n - 5, 2 * n - 5, 2 * (n - 4) * (n - 2) + 3],
        ]
    )


def lcr_stabilizer_partition(n) -> OrbitPartition:
    """Orbits of the two-point stabilizer on build_lcr(n), one cell per
    entry of STABILIZER_CELL_REPS and in that order."""
    index = {p: k for k, p in enumerate(pair_vertices(n))}
    return orbits(lcr_stabilizer_gens(n)).reorder_by_representatives(
        [index[p] for p in STABILIZER_CELL_REPS]
    )


def _antipodal_involution(matrix):
    """The images of the pairing t that may split D, or None: t(u) is the
    column of row u's largest entry, which must occur once in that row.

    IsotypicSplit keeps t only if it is an involution that D commutes
    with. On a distance matrix a commuting t is an isometry, which keeps
    each eccentricity e(u), so d(t(u), u) = e(u) = e(t(u)) makes u the
    one farthest vertex from t(u): t(t(u)) = u, and on two or more
    vertices t fixes none, as D[u][u] = 0 is row u's least entry. On
    lcr(n) t is the coordinate swap (i, j) -> (j, i), the one vertex at
    distance 3; on crown(n), even cycles and J(2k, k) it is the antipode.
    """
    t = tuple(row.index(max(row)) for row in matrix.entries)
    return t if all(row.count(row[v]) == 1 for row, v in zip(matrix.entries, t)) else None


def _split_checks(split, sources, what="det(xI - D) and each rank"):
    """The involution-split ledger entry of a split of D, alone in a
    tuple, or none when the split kept no involution. sources names each
    kept one, in the order kept; the entry gives each one's fixed
    points, then the block orders of what the split serves."""
    if not split.kept:
        return ()
    # the group is led by the identity, and g_(2^i) is the i-th kept t
    kept = [split.group[1 << i] for i in range(len(split.kept))]
    named = ", ".join(
        f"{source} ({f} fixed point{'s' * (f != 1)})"
        for source, f in zip(sources, (sum(map(eq, t, range(len(t)))) for t in kept))
    )
    many = len(kept) > 1
    orders = split.orders()
    detail = (
        f"{len(kept)} involution{'s' * many} commuting with D {'and pairwise ' * many}"
        f"checked: {named}; {what} split into {len(orders)} isotypic "
        f"blocks of orders {' '.join(map(str, orders))}"
    )
    return (Check("involution-split", detail),)


def _rank_check(split, lam, mult, source):
    """Rank D - lam I over the split's blocks, D the split's matrix: the
    rank must leave mult, the multiplicity that source gives, or
    ArithmeticError names both. D is symmetric, so geometric and
    algebraic multiplicities agree."""
    rank_mult = eigen_multiplicity(split.matrix, lam, split)
    if rank_mult != mult:
        raise ArithmeticError(
            f"eigenvalue {lam}: rank gives multiplicity {rank_mult}, {source} gives {mult}"
        )


def _ranked_spectrum(split, rho, checks):
    """Spectrum of D, the split's matrix, from det(xI - D) and exact ranks
    (rank-sweep).

    det(xI - D) is expanded once, over the split's blocks, and its
    integer roots in [-rho, rho] are the candidates. When a residual
    factor is left, D has an eigenvalue outside the integers and nothing
    is ranked. Otherwise every root but the last is ranked over the
    blocks by _rank_check, against the root's multiplicity in det(xI -
    D). The last root keeps what the degree leaves, and Spectrum checks
    the trace. The spectrum carries the given checks, then a "ranks"
    check naming the route.
    """
    m = split.matrix
    roots, residual = integer_roots(char_poly(m, split), bound=rho)
    if residual.degree:
        detail = (
            f"det(xI - D) keeps a residual factor of degree {residual.degree}, so D has an "
            "eigenvalue outside the integers; nothing ranked"
        )
    else:
        *ranked, (last, left) = roots
        for lam, mult in ranked:
            _rank_check(split, lam, mult, "det(xI - D)")
        detail = (
            f"det(xI - D) has integer roots only; ranked "
            f"{' '.join(str(lam) for lam, _ in ranked) or 'none'}, each rank equal to its "
            f"root's multiplicity; last value {last} keeps the {left} left of |V| = {m.rows}"
        )
    return Spectrum(roots, residual, m.rows, m.trace(), (*checks, Check("ranks", detail)))


def _char_poly_spectrum(split, rho, checks):
    """Spectrum from the integer roots and residual factor of det(xI - D),
    D the split's matrix, expanded over its blocks, carrying the given
    ledger entries."""
    m = split.matrix
    return Spectrum(*integer_roots(char_poly(m, split), bound=rho), m.rows, m.trace(), checks)


def _residual_spectrum(split, rho, values, checks):
    """Spectrum from det(xI - D), on quotient-assisted's route that found
    an eigenvalue of D outside the integers: det(xI - D) must keep a
    residual factor, and its integer roots must lie among values, or
    ArithmeticError. The last check names the route."""
    spectrum = _char_poly_spectrum(split, rho, checks)
    if spectrum.is_integral or not set(spectrum.distinct_values) <= set(values):
        raise ArithmeticError(
            f"det(xI - D) has integer roots {list(spectrum.integer_part)}, residual degree "
            f"{spectrum.residual_degree}; the {checks[-1].name} route needs a residual and "
            f"integer roots among {sorted(values)}"
        )
    return spectrum


def _krylov(q, cell, values):
    """One pass of y_k = Q^k e_cell, k = 0..len(values): whether the
    product of (Q - lam I) over values sends e_cell to 0, that is
    sum_k c_k y_k = 0 for c the coefficients of prod (x - lam), and the
    diagonal entries (Q^k)_cell,cell, k = 0..len(values).

    From DP = PQ (P the cell indicator matrix, P e_s = e_v for the
    vertex v of a singleton cell s) the same product of (D - lam I) then
    sends e_v to 0, and (D^k)_vv = (Q^k)_ss.
    """
    ys = [[int(i == cell) for i in range(q.rows)]]
    for _ in values:
        ys.append([sum(map(mul, row, ys[-1])) for row in q.entries])
    c = IntPolynomial.from_roots(values).coefficients
    return not any(sum(map(mul, c, entries)) for entries in zip(*ys)), [y[cell] for y in ys]


def _generator_split(matrix, gens):
    """The IsotypicSplit of D offered the fixed-point-free generators in
    gens, and the generator index of each one it keeps. On lcr(n) it
    keeps the coordinate swap and tau_n, #2 and #3."""
    identity = range(gens.degree)
    free = [k for k, p in enumerate(gens.generators) if not any(map(eq, p.images, identity))]
    split = IsotypicSplit(matrix, [gens.generators[k].images for k in free])
    return split, [free[i] for i in split.kept]


def _moment_spectrum(quotient, rho, values, moments, gens):
    """Spectrum of D, given that the ascending values hold all of spec(D)
    and moments[k] = (Q^k)_ss, k = 0..len(values).

    Transitivity gives tr D^k = |V| (D^k)_vv = |V| (Q^k)_ss, and each
    power sum sum_a m_a a^k = tr D^k. For k = 0..len(values) - 1 that is
    a Vandermonde system in distinct values, with the unique solution
    m_a = sum_k c_k tr D^k / p_a(a), p_a = prod_{b != a} (x - b) =
    sum_k c_k x^k: m_a = |V| (E_a)_ss, E_a the Lagrange projector of Q
    at a (Godsil, *Algebraic Combinatorics*, ch. 4). Every value is an
    eigenvalue of D (Qx = lam x gives D Px = lam Px), so each m_a is at
    least 1. D is the distance matrix of a connected graph and invariant
    under transitive automorphisms: its off-diagonal entries are
    positive, so it is irreducible, and its row sums are constant, so
    rho is the largest value and simple by Perron-Frobenius. An inexact
    division, a multiplicity below 1, a largest value other than rho or
    a rho of multiplicity other than 1 raises ArithmeticError.

    One exact rank then checks the solve against D itself, at the value
    of largest solved multiplicity (the first, of equal ones), whose
    rank is the least and so the cheapest: quotient.source, split by the
    fixed-point-free transitive generators in gens (_generator_split),
    through _rank_check. The spectrum carries the route's ledger:
    "annihilates", the degree of the product that sent e_s to 0;
    "moments", the solve and the Perron premise; "involution-split",
    when the split kept an involution; and "ranks", the value ranked.
    """
    if values[-1] != rho:
        raise ArithmeticError(f"largest candidate {values[-1]} is not the constant row sum {rho}")
    order, mult = quotient.graph.vertex_count, {}
    for a in values:
        p = IntPolynomial.from_roots(b for b in values if b != a)
        num, den = order * sum(map(mul, p.coefficients, moments)), p.evaluate(a)
        m, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"moment solve for {a} is inexact: {num} / {den}")
        if m < 1:
            raise ArithmeticError(f"moment-solved multiplicity of {a} is {m} < 1")
        mult[a] = m
    if mult[rho] != 1:
        raise ArithmeticError(f"Perron value {rho} has moment-solved multiplicity {mult[rho]}")
    lam = max(values, key=mult.get)
    split, kept = _generator_split(quotient.source, gens)
    _rank_check(split, lam, mult[lam], "the moment solve")
    degree = len(values)
    annihilates = (
        f"degree-{degree} product of (Q - lam I) sends e_s to 0, "
        f"so spec(D) lies among its {degree} roots"
    )
    moments_detail = (
        f"solved {' '.join(f'{a}^{mult[a]}' for a in values)} from tr D^k = |V| (Q^k)_ss, "
        f"k = 0..{degree - 1}; Perron value {rho} simple (D irreducible, constant row sums)"
    )
    ranks = f"ranked {lam}, of the largest solved multiplicity: its rank leaves {mult[lam]}"
    checks = (
        Check("annihilates", annihilates),
        Check("moments", moments_detail),
        *_split_checks(split, [f"generator #{k}" for k in kept], "the rank"),
        Check("ranks", ranks),
    )
    return Spectrum(sorted(mult.items()), None, order, order * moments[1], checks)


def distance_spectrum(
    g, method="rank-sweep", quotient=None, transitive_gens=None
) -> Spectrum:
    """Complete exact distance spectrum of a connected graph.

    rank-sweep and char-poly both expand chi_D = det(xI - D) and read
    its integer roots in [-rho, rho] (rho = max row sum, a spectral
    radius bound). char-poly stops there. rank-sweep, when no residual
    factor is left, also ranks every root but the last, and each rank
    must give the root's multiplicity in chi_D (_ranked_spectrum),
    through the _rank_check that quotient-assisted's one rank uses. Both
    run BFS and build one IsotypicSplit of D, offered the pairing t of
    _antipodal_involution, then the involutive automorphisms of g that
    perms.involution_candidates finds. The search only proposes: the
    split checks each candidate and keeps the involutions that commute
    with D and pairwise. When it keeps any, char_poly multiplies
    Berkowitz over the isotypic blocks of their group, and each rank
    sums their Bareiss ranks, so the result is the same as on D whole;
    the spectrum's ledger then leads with an "involution-split" entry
    naming each kept involution's source, antipode or search, its fixed
    points and the block orders.
    quotient-assisted starts from the caller's QuotientMatrix, which
    must have been built from g itself (quotient.graph == g) over a
    singleton-cell orbit partition, and g must be vertex-transitive
    under transitive_gens. quotient_matrix checked that the partition's
    generators are automorphisms of g, and Q's rows are sums of rows of
    g's distance matrix D, which is invariant under g's automorphisms.
    Every row of D, and so of Q, sums to rho under a transitive group,
    so rho is read from Q, and D, read through quotient.source, is built
    by BFS only for an exact rank or the residual factor. The candidates
    S are the integer roots of det(xI - Q), read from
    quotient.char_roots, which expands it once per quotient. One pass of
    mat-vecs Q^k e_s, k = 0..|S| (_krylov), shows whether the product of
    (Q - lam I) over S annihilates the singleton cell's unit vector e_s
    and gives the moments (Q^k)_ss. When it annihilates, S holds every
    eigenvalue of D, and _moment_spectrum solves every multiplicity from
    the moments |V| (Q^k)_ss, then checks the solve with one exact rank,
    at the value of largest multiplicity. The rank takes one
    IsotypicSplit of D, offered the fixed-point-free transitive
    generators: it keeps the involutions that commute pairwise and with
    D, and the rank takes D - lam I as one block per character of the
    group they generate. The ledger records the route as "annihilates",
    "moments", "involution-split" (when the split kept any) and "ranks".

    Otherwise D has an eigenvalue outside the integers, and nothing is
    ranked: det(xI - D) gives the spectrum. Under these premises spec(D)
    and spec(Q) are equal as sets. Qx = lam x gives D Px = lam Px. For
    an eigenvalue mu of D with spectral idempotent E, each stabilizer
    generator fixes the singleton vertex v and commutes with E, so
    E e_v = Px for some x; DP = PQ gives Qx = mu x, and transitivity
    gives E_vv = m_mu / |V| > 0, so x != 0. Hence S annihilates exactly
    when D is integral, and D's integer eigenvalues lie in S. The route
    requires det(xI - D) to have a residual factor and its integer roots
    to lie in S, or it raises ArithmeticError; its ledger entry is
    "roots-among-quotient".

    quotient and transitive_gens belong to quotient-assisted; passing
    either with another method, or a premise quotient-assisted misses,
    raises InputError. Transitive generators that are not automorphisms
    of g, or have more than one orbit, raise AutomorphismError.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "quotient-assisted":
        if quotient is not None or transitive_gens is not None:
            raise InputError("quotient and transitive_gens need method 'quotient-assisted'")
        matrix = all_pairs_distances(g)
        rho = max(matrix.row_sums())
        t = _antipodal_involution(matrix)
        candidates = involution_candidates(g, matrix.entries, t)
        split = IsotypicSplit(matrix, candidates)
        sources = ["antipode" if candidates[k] == t else "search" for k in split.kept]
        checks = _split_checks(split, sources)
        if method == "rank-sweep":
            return _ranked_spectrum(split, rho, checks)
        return _char_poly_spectrum(split, rho, checks)

    if quotient is None or transitive_gens is None:
        raise InputError(
            "quotient-assisted method needs an orbit partition quotient and "
            "vertex-transitivity generators"
        )
    if quotient.graph != g:
        raise InputError("quotient was built from another graph")
    if not is_vertex_transitive_under(g, transitive_gens):
        raise AutomorphismError("graph is not vertex-transitive under the given generators")
    singletons = quotient.partition.singleton_cells()
    if not singletons:
        raise InputError("orbit partition must contain a singleton cell")
    rho = max(quotient.matrix.row_sums())
    values = [lam for lam, _ in quotient.char_roots[0]]
    annihilates, moments = _krylov(quotient.matrix, singletons[0], values)
    if annihilates:
        return _moment_spectrum(quotient, rho, values, moments, transitive_gens)
    detail = (
        f"product of (Q - lam I) over det(xI - Q)'s {len(values)} integer roots leaves e_s "
        f"nonzero, so D has an eigenvalue outside the integers; det(xI - D)'s integer roots "
        f"lie among those {len(values)}"
    )
    checks = (Check("roots-among-quotient", detail),)
    return _residual_spectrum(IsotypicSplit(quotient.source), rho, values, checks)


def is_distance_integral(
    g, method="rank-sweep", description=None, quotient=None, transitive_gens=None
) -> IntegralityReport:
    """Full integrality report. The ledger is the spectrum's own route
    checks, then spectrum-complete and trace-zero, whose figures Spectrum
    has enforced."""
    spectrum = distance_spectrum(
        g, method, quotient=quotient, transitive_gens=transitive_gens
    )
    complete = (
        f"multiplicities {spectrum.multiplicity_sum} + residual degree "
        f"{spectrum.residual_degree} = order {spectrum.order}"
    )
    trace = f"weighted eigenvalue sum {spectrum.eigenvalue_sum} equals trace {spectrum.trace}"
    checks = spectrum.checks + (Check("spectrum-complete", complete), Check("trace-zero", trace))
    return IntegralityReport(
        graph=description or repr(g),
        method=method,
        spectrum=spectrum,
        checks=checks,
    )


def _merged(pairs):
    """(value, multiplicity) pairs in ascending order, equal values merged."""
    merged = {}
    for lam, mult in pairs:
        merged[lam] = merged.get(lam, 0) + mult
    return sorted(merged.items())


def _expected_lcr_spectra(n):
    """The paper's spectra of lcr(n), as ascending (value, multiplicity)
    pairs: the quotient's eigenvalues with their multiplicities in Q, and
    the distance spectrum. Both end in the Perron value 2n^2 - 4n + 3."""
    perron = 2 * n * n - 4 * n + 3
    quotient = _merged(((-1, 1), (1, 1), (-1 - n, 2), (3 - n, 2), (perron, 1)))
    distance = _merged(
        (
            (-1 - n, n - 1),
            (3 - n, n - 1),
            (-1, (n - 1) * (n - 2) // 2),
            (1, n * (n - 3) // 2),
            (perron, 1),
        )
    )
    return quotient, distance


def verify_lcr(n) -> IntegralityReport:
    """End-to-end certification that the crown line graph is distance integral.

    Builds the graph, computes the stabilizer orbit partition and its
    quotient matrix (which checks the stabilizer generators are
    automorphisms and runs BFS from the 7 cell representatives), checks
    the distances on the quotient's source D (one BFS from every
    vertex), compares the quotient against the closed form, extracts its
    eigenvalues exactly, and certifies the distance spectrum with
    is_distance_integral on that same quotient, whose one exact rank, at
    -1, reads the same D (one quotient per n), split under the
    coordinate swap and tau_n into 4 character blocks. The certified
    spectrum must equal the paper's closed form
    (-1-n)^(n-1) (3-n)^(n-1) (-1)^((n-1)(n-2)/2) 1^(n(n-3)/2)
    (2n^2-4n+3)^1, equal values merged; the certificate's own checks
    follow these stages in the ledger. Any mismatch raises
    VerificationError naming the stage; automorphism generators of
    lcr(n) that are not automorphisms, or not transitive, fail at
    'vertex-transitivity', a stage the ledger of a passing n omits.
    """
    if n < 4:
        raise VerificationError("preconditions", f"defined for n >= 4, got {n}")
    checks = []

    def stage(name, ok, detail):
        if not ok:
            raise VerificationError(name, detail)
        checks.append(Check(name, detail))

    g = build_lcr(n)
    order = n * (n - 1)
    stage(
        "graph-shape",
        g.vertex_count == order and g.is_regular() == 2 * n - 4,
        f"{order} vertices, regular of degree {2 * n - 4}",
    )

    try:
        pi = lcr_stabilizer_partition(n)
    except ValueError as exc:
        # a wrong orbit count also fails the reorder; report it at its own stage
        count = orbits(lcr_stabilizer_gens(n)).cell_count
        stage("stabilizer-orbits", count == 7, "two-point stabilizer has 7 orbits")
        raise VerificationError("orbit-representatives", str(exc)) from exc
    stage("stabilizer-orbits", pi.cell_count == 7, "two-point stabilizer has 7 orbits")
    sizes = tuple(len(c) for c in pi.cells)
    expected_sizes = (1, n - 2, n - 2, 1, n - 2, n - 2, (n - 2) * (n - 3))
    stage("orbit-sizes", sizes == expected_sizes, f"cell sizes {sizes}")

    try:
        q = quotient_matrix(g, pi)
    except AutomorphismError as exc:
        raise VerificationError("stabilizer-automorphisms", str(exc)) from exc
    expected_q, expected_d = _expected_lcr_spectra(n)
    perron = expected_d[-1][0]
    d = q.source
    stage(
        "distances",
        d.max_entry() == 3 and set(d.row_sums()) == {perron},
        f"diameter 3, constant row sum {perron}",
    )
    gens = len(pi.generators.generators)
    detail = f"{gens} generators map edges to edges, so their orbits are equitable"
    checks.append(Check("stabilizer-automorphisms", detail))

    stage(
        "quotient-closed-form",
        q.matrix == lcr_quotient_closed_form(n),
        "computed quotient equals the closed-form matrix (49 entries)",
    )

    q_roots, q_residual = q.char_roots
    stage(
        "quotient-spectrum",
        q_roots == expected_q and q_residual == IntPolynomial.one(),
        f"quotient eigenvalues {q_roots} with residual 1",
    )

    try:
        report = is_distance_integral(
            g,
            "quotient-assisted",
            description=f"lcr n={n}",
            quotient=q,
            transitive_gens=lcr_automorphism_gens(n),
        )
    except AutomorphismError as exc:
        raise VerificationError("vertex-transitivity", str(exc)) from exc
    spectrum = report.spectrum
    certified = " ".join(f"{v}^{m}" for v, m in spectrum.integer_part)
    expected = " ".join(f"{v}^{m}" for v, m in expected_d)
    stage(
        "distance-spectrum",
        list(spectrum.integer_part) == expected_d,
        f"certified {certified}; closed form {expected}",
    )
    return IntegralityReport(
        report.graph, report.method, spectrum, tuple(checks) + report.checks
    )
