"""Quotient matrices over orbit partitions and exact distance spectra.

The pipeline: the orbits of checked automorphism generators form an
equitable partition of the distance matrix, so each cell's first row
of D gives its row of the cell-sum quotient matrix Q. Q carries
eigenvalues of D, and when the graph is vertex-transitive and the
partition has a singleton cell, the distinct eigenvalue sets of Q and
D coincide. That is checked, not assumed: the product of (Q - lam I)
over the integer roots of det(xI - Q) must send the singleton cell's
unit vector to zero. Then the largest value is simple by
Perron-Frobenius, the three other values of largest |lam| are solved
exactly from the trace moments tr D^k = |V| (Q^k)_ss (k = 0, 1, 2),
only the rest, small |lam| with large multiplicity, get an exact rank,
and k = 3 cross-checks the result. Every split of D is one
exactla.IsotypicSplit, built once per D from the candidates a method
offers: it keeps the involutions that commute pairwise and with D,
checked, and drops the rest. D - lam I keeps each isotypic component
of their group, and one block per character ranks it there, so the
block ranks add up to the rank of D - lam I. quotient-assisted offers
its fixed-point-free transitive generators; on lcr(n) the coordinate
swap and tau_n give 4 blocks. That reduces a |V| x |V| spectrum
problem to the quotient size plus at most a few exact rank
computations. When the product does not send e_s to zero, D has an
eigenvalue outside the integers, and nothing is ranked: det(xI - D)
gives the spectrum, and its integer roots must lie among those of
det(xI - Q). A QuotientMatrix is built from its graph: quotient_matrix
searches from one representative per cell, and D, the quotient's
source, is built by a full BFS only when a stage reads it, as an exact
rank does.

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


def _split_check(split, candidates, t):
    """The involution-split ledger entry of a split of D that kept an
    involution: each kept one's source, the antipodal pairing t or the
    search, and fixed points, then the block orders."""
    kept = [candidates[k] for k in split.kept]
    fixed = [sum(map(eq, s, range(len(s)))) for s in kept]
    named = ", ".join(
        f"{'antipode' if s == t else 'search'} ({f} fixed point{'s' * (f != 1)})"
        for s, f in zip(kept, fixed)
    )
    many = len(kept) > 1
    orders = split.orders()
    detail = (
        f"{len(kept)} involution{'s' * many} commuting with D {'and pairwise ' * many}"
        f"checked: {named}; det(xI - D) and each rank split into {len(orders)} isotypic "
        f"blocks of orders {' '.join(map(str, orders))}"
    )
    return Check("involution-split", detail)


def _ranked_spectrum(split, rho, checks):
    """Spectrum of D, the split's matrix, from det(xI - D) and exact ranks
    (rank-sweep).

    det(xI - D) is expanded once, over the split's blocks, and its
    integer roots in [-rho, rho] are the candidates. When a residual
    factor is left, D has an eigenvalue outside the integers and nothing
    is ranked. Otherwise every root but the last is ranked over the
    blocks, and each rank must give the root's multiplicity in det(xI -
    D), as D is symmetric, so geometric and algebraic multiplicities
    agree; a rank that does not raises ArithmeticError naming both. The
    last root keeps what the degree leaves, and Spectrum checks the
    trace. The spectrum carries the given checks, then a "ranks" check
    naming the route.
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
            rank_mult = eigen_multiplicity(m, lam, split)
            if rank_mult != mult:
                raise ArithmeticError(
                    f"eigenvalue {lam}: rank gives multiplicity {rank_mult}, "
                    f"det(xI - D) gives {mult}"
                )
        detail = (
            f"det(xI - D) has integer roots only; ranked "
            f"{' '.join(str(lam) for lam, _ in ranked) or 'none'}, each rank equal to its "
            f"root's multiplicity; last value {last} keeps the {left} left of |V| = {m.rows}"
        )
    return Spectrum(roots, residual, m.rows, m.trace(), (*checks, Check("ranks", detail)))


def _char_poly_spectrum(split, rho, *checks):
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
    spectrum = _char_poly_spectrum(split, rho, *checks)
    if spectrum.is_integral or not set(spectrum.distinct_values) <= set(values):
        raise ArithmeticError(
            f"det(xI - D) has integer roots {list(spectrum.integer_part)}, residual degree "
            f"{spectrum.residual_degree}; the {checks[-1].name} route needs a residual and "
            f"integer roots among {sorted(values)}"
        )
    return spectrum


def _annihilates(q, values, cell):
    """Whether the product of (Q - lam I) over values sends e_cell to 0.

    Exact integer mat-vecs, one per value. From DP = PQ (P the cell
    indicator matrix) the same product of (D - lam I) then sends e_v to
    0 for the vertex v of a singleton cell. Automorphisms commute with
    D, so under a transitive group every column vanishes, and every
    eigenvalue of D is among the values.
    """
    y = [0] * q.rows
    y[cell] = 1
    for lam in values:
        y = [sum(a * b for a, b in zip(row, y)) - lam * x for row, x in zip(q.entries, y)]
    return not any(y)


def _generator_split(matrix, gens):
    """The IsotypicSplit of D offered the fixed-point-free generators in
    gens, and the generator index of each one it keeps. On lcr(n) it
    keeps the coordinate swap and tau_n, #2 and #3."""
    identity = range(gens.degree)
    free = [k for k, p in enumerate(gens.generators) if not any(map(eq, p.images, identity))]
    split = IsotypicSplit(matrix, [gens.generators[k].images for k in free])
    return split, [free[i] for i in split.kept]


def _moment_spectrum(quotient, cell, rho, values, gens):
    """Spectrum of D, given that the ascending values hold all of spec(D).

    Every value is an eigenvalue of D (Qx = lam x gives D Px = lam Px),
    so each multiplicity is at least 1. D is the distance matrix of a
    connected graph and invariant under transitive automorphisms: its
    off-diagonal entries are positive, so it is irreducible, and its row
    sums are constant, so the all-ones vector is a positive eigenvector
    for rho and rho is the spectral radius. By Perron-Frobenius the
    largest value is rho, with multiplicity 1.

    Every power sum sum_lam m_lam lam^k = tr D^k, k = 0..3, comes from
    Q: transitivity gives tr D^k = |V| (D^k)_vv, and D^k P = P Q^k (from
    DP = PQ, P the cell indicator matrix, P e_s = e_v) gives
    (D^k)_vv = (Q^k)_ss. One loop of mat-vecs Q^k e_s yields them all;
    D, quotient.source, is read only for the exact ranks. When a value is
    ranked, gens, the checked transitive generators, offer their
    fixed-point-free members to one IsotypicSplit of D, which keeps the
    involutions that commute pairwise and with D, and each rank splits
    D - lam I into one block per character of their group.

    Of the other values, the three of largest |lam| (ties: the positive
    one) are solved from the power sums k = 0, 1, 2, less the Perron
    term and the ranked terms. The system is Vandermonde in distinct
    values, so its solution is unique, and m_a = sum_k c_k r_k / p_a(a)
    with p_a = prod_{b != a} (x - b) = sum_k c_k x^k and r_k the power
    sums left to the solved values. Any further values get an exact
    rank. m_lam <= tr D^2 / lam^2, so the large-|lam| values have the
    small multiplicities, and ranking the small-|lam| ones skips the
    near-full, costliest ranks; which values are ranked affects cost,
    never the result.

    Cross-checks, each an ArithmeticError when it fails: an inexact
    division, a solved multiplicity below 1, and every power sum up to
    k = 3 that the solve left unused. With four or more non-top values,
    one wrong ranked multiplicity moves the solved ones so that the
    power sums k = 0..2 still hold. The change lives on four distinct
    values, whose 4 x 4 Vandermonde system is nonsingular, so the power
    sum k = 3 then fails.

    The spectrum carries the route's two ledger entries: "annihilates",
    the degree of the product that sent e_s to 0, and "moments", the
    Perron premise, the ranked values with their number of character
    blocks and the generators that split them, the solved values and the
    cubic moment.
    """
    *rest, top = values
    if top != rho:
        raise ArithmeticError(f"largest candidate {top} is not the constant row sum {rho}")
    by_size = sorted(rest, key=lambda lam: (abs(lam), lam))
    solved, ranked = sorted(by_size[-3:]), sorted(by_size[:-3])
    q, order = quotient.matrix, quotient.graph.vertex_count
    split, kept = _generator_split(quotient.source, gens) if ranked else (None, ())
    mult = {lam: eigen_multiplicity(split.matrix, lam, split) for lam in ranked}
    steps = [
        f"Perron value {top} simple (D irreducible, constant row sums)",
        f"ranked {' '.join(map(str, ranked)) or 'none'}",
    ]
    if kept:
        many = len(kept) > 1
        steps[1] += (
            f" ({2 ** len(kept)} character blocks under involutive"
            f" generator{'s' * many} {', '.join(f'#{k}' for k in kept)}, "
            f"commuting with D {'and pairwise ' * many}checked)"
        )
    mult[top] = 1
    power_sums = []
    y = [0] * q.rows
    y[cell] = 1
    for _ in range(4):
        power_sums.append(order * y[cell])
        y = [sum(map(mul, row, y)) for row in q.entries]
    left = [
        s - sum(m * lam**k for lam, m in mult.items()) for k, s in enumerate(power_sums)
    ]
    for a in solved:
        p = IntPolynomial.from_roots(b for b in solved if b != a)
        num, den = sum(map(mul, p.coefficients, left)), p.evaluate(a)
        m, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"moment solve for {a} is inexact: {num} / {den}")
        if m < 1:
            raise ArithmeticError(f"moment-solved multiplicity of {a} is {m} < 1")
        mult[a] = m
    for k in range(len(solved), 4):
        spare = sum(mult[a] * a**k for a in solved)
        if spare != left[k]:
            raise ArithmeticError(
                f"spare moment k={k}: solved values give {spare}, tr D^{k} leaves {left[k]}"
            )
    used = len(solved)
    solved_text = " ".join(f"{a}^{mult[a]}" for a in solved)
    steps.append(f"solved {solved_text} from tr D^k, k = 0..{used - 1}" if used else "solved none")
    if used < 3:
        steps.append(f"spare moments k = {used}..2 agree")
    steps.append(f"sum m lam^3 = |V| (Q^3)_ss = {power_sums[3]}")
    degree = len(values)
    annihilates = (
        f"degree-{degree} product of (Q - lam I) sends e_s to 0, "
        f"so spec(D) lies among its {degree} roots"
    )
    checks = Check("annihilates", annihilates), Check("moments", "; ".join(steps))
    return Spectrum(sorted(mult.items()), None, order, power_sums[1], checks)


def distance_spectrum(
    g, method="rank-sweep", quotient=None, transitive_gens=None
) -> Spectrum:
    """Complete exact distance spectrum of a connected graph.

    rank-sweep and char-poly both expand chi_D = det(xI - D) and read
    its integer roots in [-rho, rho] (rho = max row sum, a spectral
    radius bound). char-poly stops there. rank-sweep, when no residual
    factor is left, also ranks every root but the last, and each rank
    must give the root's multiplicity in chi_D (_ranked_spectrum). Both
    run BFS and build one IsotypicSplit of D, offered the pairing t of
    _antipodal_involution, then the involutive automorphisms of g that
    perms.involution_candidates finds. The search only proposes: the
    split checks each candidate and keeps the involutions that commute
    with D and pairwise. When it keeps any, char_poly multiplies
    Berkowitz over the isotypic blocks of their group, and each rank
    sums their Bareiss ranks, so the result is the same as on D whole;
    the spectrum's
    ledger then leads with an "involution-split" entry naming each
    kept involution's source, antipode or search, its fixed points and
    the block orders.
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
    quotient.char_roots, which expands it once per quotient. When the
    product of (Q - lam I) over S annihilates the singleton cell's unit
    vector, S holds every eigenvalue of D, and _moment_spectrum
    certifies the multiplicities from the moments |V| (Q^k)_ss with at
    most a few exact ranks (its "annihilates" and "moments" checks
    record how). Its ranks share one IsotypicSplit of D, offered the
    fixed-point-free transitive generators: it keeps the involutions
    that commute pairwise and with D, and each rank takes D - lam I as
    one block per character of the group they generate.

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
        checks = (_split_check(split, candidates, t),) if split.kept else ()
        if method == "rank-sweep":
            return _ranked_spectrum(split, rho, checks)
        return _char_poly_spectrum(split, rho, *checks)

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
    if _annihilates(quotient.matrix, values, singletons[0]):
        return _moment_spectrum(quotient, singletons[0], rho, values, transitive_gens)
    detail = (
        f"product of (Q - lam I) over det(xI - Q)'s {len(values)} integer roots leaves e_s "
        f"nonzero, so D has an eigenvalue outside the integers; det(xI - D)'s integer roots "
        f"lie among those {len(values)}"
    )
    d = quotient.source
    checks = (Check("roots-among-quotient", detail),)
    return _residual_spectrum(IsotypicSplit(d), rho, values, checks)


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
    is_distance_integral on that same quotient, whose exact rank reads
    the same D (one quotient per n), split under the coordinate swap
    and tau_n into 4 character blocks. The certified spectrum must equal
    the paper's closed form
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
