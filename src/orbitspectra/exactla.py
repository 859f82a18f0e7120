"""Arbitrary-precision integer matrix kernel, and Frozen, the base of the
package's immutable values, here because this module imports no other.

Characteristic polynomials are computed with the division-free
Berkowitz recurrence, ranks with fraction-free Bareiss elimination, so
every intermediate value is an exact integer. Bareiss pivots on the
candidate row with the fewest nonzero entries and rescales a row only
when it is updated: each row keeps its own divisor, the pivot at its
last update, because the per-step factors piv_k / piv_(k-1) of a row
with a zero head telescope. A row that reaches zero is never touched
again; on lcr(10)'s D + I (rank 54 of 90) the kernel makes 0.66x the
products of rescaling every row at every step with the first nonzero
row as pivot. IsotypicSplit keeps the candidate involutions that
commute pairwise and with the matrix m, checked once, and splits m
into one block per character chi of the group G they generate; both an
eigenvalue multiplicity and the characteristic polynomial are read off
the blocks: its rows and columns are the orbit representatives whose
stabilizer lies in ker chi, and its entry (u, v) is sum_g chi(g)
m[u][g(v)] / |Stab(v)|, less lam when u = v. The block is m - lam I on
the isotypic component V_chi, in a basis read at those
representatives, so the block ranks sum to rank(m - lam I) and the
blocks' characteristic polynomials multiply to det(xI - m). A free
action of order 2^k trades one rank of n for 2^k of n / 2^k, and one
Berkowitz expansion, about n^4 / 8 products on symmetric input, for
2^k of (n / 2^k)^4 / 8: one fixed-point-free involution cuts it
eightfold. Berkowitz needs R M^k C for each trailing block M with
column C and row R; on symmetric input (every distance matrix) R = C^T
and R M^k C = (M^i C)^T (M^j C) with i = k // 2, j = k - i, so about
half the mat-vecs suffice. Non-symmetric input, such as the quotient
Q, takes (R M^i) from M^T. A mat-vec takes one product per entry. No
step is modular: every value the module returns is an exact integer.
"""

from operator import add, floordiv, itemgetter, mul, sub


class Frozen:
    """Base of the package's immutable values, plain __slots__ classes.

    A subclass lists its attributes in __slots__ and sets them once, in
    __init__, through Frozen.__init__, after its constructor has checked
    them; _fields names those that ==, hash and the default repr read.
    Equal values are of the same class.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class IntMatrix(Frozen):
    """Dense matrix of arbitrary-precision integers, distance matrices included.

    Entries are stored as given, without conversion: callers pass ints.
    """

    __slots__ = ("rows", "cols", "entries")
    _fields = ("entries",)

    def __init__(self, entries):
        entries = tuple(map(tuple, entries))
        width = len(entries[0]) if entries else 0
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        super().__init__(rows=len(entries), cols=width, entries=entries)

    @property
    def is_square(self):
        return self.rows == self.cols

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def row_sums(self):
        return [sum(row) for row in self.entries]

    def max_entry(self):
        """Largest entry (a distance matrix's diameter); 0 when there is none."""
        return max((max(row) for row in self.entries if row), default=0)

    def to_decimal_rows(self):
        """Rows as decimal strings, the JSON-safe serialization."""
        return [[str(x) for x in row] for row in self.entries]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class IntPolynomial(Frozen):
    """Univariate polynomial with integer coefficients, constant term first."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        super().__init__(coefficients=tuple(coeffs))

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def from_roots(cls, roots):
        """Monic product of (x - r) over the given integer roots."""
        poly = cls.one()
        for r in roots:
            poly = poly.multiply(cls([-r, 1]))
        return poly

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def is_zero(self):
        return not self.coefficients

    @property
    def leading_coefficient(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def multiply(self, other):
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def divide_linear(self, r):
        """Synthetic division by (x - r); returns (quotient, remainder)."""
        if self.is_zero:
            return IntPolynomial([]), 0
        quotient = [0] * self.degree
        acc = 0
        for k in range(self.degree, 0, -1):
            acc = acc * r + self.coefficients[k]
            quotient[k - 1] = acc
        remainder = acc * r + self.coefficients[0]
        return IntPolynomial(quotient), remainder

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self})"


def bareiss_echelon(rows):
    """Gaussian elimination without fractions (one-step Bareiss).

    Returns (rank, sign, pivot_cols, echelon) where ``echelon`` is the
    integer row-echelon array after forward elimination and ``sign``
    tracks row swaps, so sign * echelon[n-1][pivot_cols[-1]] is the
    determinant of square full-rank input. All divisions are exact.

    Pivot columns are the first column, in order, with a nonzero entry in
    a row not yet used; that column rank profile does not depend on which
    row is used, so neither do rank and pivot_cols. The pivot row is the
    candidate with the fewest nonzero entries, then the smallest |entry|,
    then the lowest index: the sparsest row limits fill-in (Markowitz).

    A row is scaled only when it is updated. Each row i keeps its divisor
    d_i, the pivot at its last update (1 before any). One-step Bareiss
    maps a row whose pivot-column entry is zero to x * piv_k / piv_(k-1);
    over steps s..t these factors telescope to piv_t / d_i, so a row left
    alone holds its true values times d_i / prev. An update with a
    nonzero head therefore sets (piv * x - head * y) // d_i, the true next
    minor, and d_i = piv; a stale row chosen as pivot row is first brought
    up to date with x * prev // d_i. Rows left below the rank are zero,
    stale or not, so none needs a final pass.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    div = [1] * nrows
    weight = [ncols - row.count(0) for row in a]
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            head = a[i][c]
            if head:
                key = (weight[i], abs(head * prev // div[i]))
                if best is None or key < best:
                    best, k = key, i
        if best is None:
            continue
        if k != r:
            a[k], a[r] = a[r], a[k]
            div[k], div[r] = div[r], div[k]
            weight[k], weight[r] = weight[r], weight[k]
            sign = -sign
        arow = a[r]
        if div[r] != prev:
            d = div[r]
            for j in range(c, ncols):
                arow[j] = arow[j] * prev // d
        piv = arow[c]
        for i in range(r + 1, nrows):
            irow = a[i]
            head = irow[c]
            if head:
                d = div[i]
                for j in range(c + 1, ncols):
                    irow[j] = (piv * irow[j] - head * arow[j]) // d
                irow[c] = 0
                div[i] = piv
                weight[i] = ncols - irow.count(0)
        prev = piv
        pivot_cols.append(c)
        r += 1
    return r, sign, pivot_cols, a


def berkowitz_charpoly(rows):
    """Characteristic polynomial of a square integer matrix, division-free.

    Returns the monic coefficient list, constant term first. Works from
    the trailing 1x1 principal submatrix outward: at each step, with
    trailing block M, column C and row R, the coefficient vector is
    multiplied by a lower-triangular Toeplitz matrix whose first column
    is built from -a, -R C, -R M C, ... Each R M^k C is taken as
    (R M^i)(M^j C) with i = k // 2 and j = k - i, advancing the right
    vector M^j C and the left vector R M^i in turn. When the matrix is
    symmetric (checked exactly, once per call), so is every trailing
    block and R = C^T, hence R M^k C = (M^i C)^T (M^j C): the left
    vector is a right vector already computed, and a step costs
    (m - 1) // 2 mat-vecs instead of m - 2. Otherwise the left vector
    advances by a mat-vec against M^T. Only the current left and right
    vectors are held. A mat-vec takes one product and one add per entry.
    """
    n = len(rows)
    symmetric = all(tuple(row) == col for row, col in zip(rows, zip(*rows)))
    poly = [1]
    for start in range(n - 1, -1, -1):
        m = n - start
        col = [1, -rows[start][start]]
        if m > 1:
            tail = range(start + 1, n)
            block = [rows[i][start + 1:] for i in tail]
            block_t = None if symmetric else list(zip(*block))
            # the mat-vecs stay inline: a call per mat-vec costs a small
            # matrix such as the 7 x 7 quotient about a tenth
            left = rows[start][start + 1:]
            right = [rows[i][start] for i in tail]
            for k in range(m - 1):
                if k % 2:
                    right = [sum(map(mul, mr, right)) for mr in block]
                elif k and symmetric:
                    left = right
                elif k:
                    left = [sum(map(mul, mc, left)) for mc in block_t]
                col.append(-sum(map(mul, left, right)))
        # poly <- T . poly, T the (m+1) x m lower-triangular Toeplitz matrix
        # with first column col in highest-degree-first order; with both
        # vectors stored constant term first, T[k][t] = col[t + 1 - k]
        poly = [sum(map(mul, col[1:], poly))] + [
            sum(map(mul, col, poly[k - 1:])) for k in range(1, m + 1)
        ]
    return poly


def join_involution(rows, group, t):
    """Join the involution t to group, in place; whether it was joined.

    group lists the elements of an elementary abelian 2-group of
    permutations of range(n), n = len(rows), as image tuples led by the
    identity; rows are those of an n x n matrix m. The tuple t joins
    when it is a permutation and an involution, lies outside the group
    and commutes with each element, keeps the group no larger than n,
    which bounds the blocks of IsotypicSplit, and commutes with m:
    m[t(u)][t(v)] = m[u][v], on the rows u <= t(u), as the equations of
    row t(u) are those of row u. The group then gains t times each
    element.
    """
    identity, image = group[0], t.__getitem__
    if not (
        sorted(t) == list(identity)
        and tuple(map(image, t)) == identity
        and t not in group
        and all(tuple(map(image, g)) == tuple(map(g.__getitem__, t)) for g in group)
        and 2 * len(group) <= len(rows)
        and all(itemgetter(*t)(rows[u]) == rows[v] for u, v in enumerate(t) if u <= v)
    ):
        return False
    group += [tuple(map(image, g)) for g in group]
    return True


class IsotypicSplit(Frozen):
    """The involutions among candidates that split m, checked once, and
    m's isotypic blocks under them.

    The candidates are images of maps of range(n), walked in order. Each
    is kept when join_involution joins it to the group of those kept
    before it. Any other candidate is dropped, never raised on, so only
    checked involutions split m; kept holds the kept candidates'
    indices. They generate an elementary abelian 2-group G =
    {g_s}, g_s the product of the kept ts in the bits of s, with
    characters chi_c(g_s) = (-1)^popcount(c & s), and m keeps each
    isotypic component V_c of G (Serre, *Linear Representations of
    Finite Groups*, 2.6).

    blocks(lam) gives one block of m - lam I per chi_c, each an iterator
    of its rows made one at a time. Its rows and columns are the orbit
    representatives u (each the least of its orbit) whose stabilizer lies
    in ker chi_c, and its entry at representative v is sum_g chi_c(g)
    m[u][g(v)] / |Stab(v)| - lam [u = v]; the other representatives' rows
    are zero and are skipped. Column v is m - lam I applied to b_v =
    sum_g chi_c(g) e_g(v) / |Stab(v)|, read at the representatives. The
    b_v are a basis of V_c (b_v is 1 at v and 0 at every other
    representative), which m - lam I maps into itself, so block c is the
    matrix of m - lam I on V_c in that basis: the block ranks sum to
    rank(m - lam I), and the blocks' characteristic polynomials multiply
    to det(xI - m) at lam = 0. An orbit of v lies in |G| / |Stab(v)| =
    |orbit| blocks, so the blocks' orders sum to n. The division is
    exact, as chi_c is 1 on Stab(v). No kept candidate leaves the single
    block m - lam I; one fixed-point-free t leaves the blocks m[u][v] +
    m[u][t(v)] and m[u][v] - m[u][t(v)], less lam on the diagonal, over
    u < t(u).
    """

    __slots__ = ("matrix", "kept", "group", "characters")
    _fields = ("matrix", "group")

    def __init__(self, m: IntMatrix, candidates=()):
        kept, group = [], [tuple(range(m.rows))]
        for k, t in enumerate(candidates):
            if join_involution(m.entries, group, tuple(t)):
                kept.append(k)
        # each orbit's least point -> the indices s of the g_s that fix it
        stabilizers = {
            v: [s for s, w in enumerate(images) if w == v]
            for v, images in enumerate(zip(*group))
            if min(images) == v
        }
        # per chi_c, read once for every blocks call: chi_c(g_s) as add for
        # 1 and sub for -1, the representatives whose stabilizer lies in
        # ker chi_c, and their stabilizer orders
        characters = []
        for c in range(len(group)):
            ops = [sub if (c & s).bit_count() & 1 else add for s in range(len(group))]
            reps = [v for v, stab in stabilizers.items() if all(ops[s] is add for s in stab)]
            characters.append((ops, reps, [len(stabilizers[v]) for v in reps]))
        super().__init__(
            matrix=m, kept=tuple(kept), group=tuple(group), characters=tuple(characters)
        )

    def orders(self):
        """The order of each block, in the order of blocks()."""
        return [len(reps) for _, reps, _ in self.characters]

    def blocks(self, lam=0):
        rows, group = self.matrix.entries, self.group

        def shifted(ops, reps, sizes):
            width = len(reps)
            # led by a dummy index, so that one column still gathers a tuple
            gather = itemgetter(0, *(g[v] for g in group for v in reps))
            for k, u in enumerate(reps):
                entries = gather(rows[u])
                row = entries[1:width + 1]
                for s in range(1, len(group)):
                    row = map(ops[s], row, entries[s * width + 1:(s + 1) * width + 1])
                row = list(map(floordiv, row, sizes))
                row[k] -= lam
                yield row

        return [shifted(*character) for character in self.characters]


def char_poly(m: IntMatrix, split=None) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - m), monic of degree n: the
    product of Berkowitz's over the blocks of split, an IsotypicSplit of
    m, or over m whole when no split is given."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    poly = IntPolynomial.one()
    for rows in (split or IsotypicSplit(m)).blocks():
        poly = poly.multiply(IntPolynomial(berkowitz_charpoly(list(rows))))
    return poly


def eigen_multiplicity(m: IntMatrix, lam, split=None) -> int:
    """Geometric multiplicity of the integer lam: n - rank(m - lam I).

    The ranks are Bareiss's over the rationals, one per block of split,
    an IsotypicSplit of m (m whole when no split is given), whose ranks
    sum to rank(m - lam I). The blocks are ranked one after the other,
    each read by the kernel as a stream of shifted rows made one at a
    time, so the kernel's working copy of one block is the only copy
    alive.
    """
    if not m.is_square:
        raise ValueError("eigenvalue multiplicity of a non-square matrix")
    blocks = (split or IsotypicSplit(m)).blocks(lam)
    return m.rows - sum(bareiss_echelon(rows)[0] for rows in blocks)


def integer_roots(p: IntPolynomial, bound):
    """Extract all integer roots r with |r| <= bound of p, to maximal multiplicity.

    Candidates are the nonzero divisors of the lowest nonzero coefficient
    in [-bound, bound], plus 0 when x divides p. The program asks only
    for the roots of det(xI - D) and det(xI - Q), D a distance matrix and
    Q its cell-sum quotient, and passes the largest row sum of that
    matrix (rho for D). That bounds every root: an eigenvalue of a
    nonnegative matrix has |lam| <= its largest row sum (Brouwer &
    Haemers, *Spectra of Graphs*). Returns (sorted list of
    (root, multiplicity), residual polynomial); the residual has no
    integer root in [-bound, bound] and the factorization is exact: a
    root whose division leaves a remainder raises ArithmeticError.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined root set")
    counts = {}
    residual = p
    zero_mult = 0
    while residual.degree >= 1 and residual.coefficients[0] == 0:
        residual = IntPolynomial(residual.coefficients[1:])
        zero_mult += 1
    if zero_mult:
        counts[0] = zero_mult
    if residual.degree >= 1:
        tail = residual.coefficients[0]
        candidates = [r for r in range(-bound, bound + 1) if r and tail % r == 0]
        for r in candidates:
            while residual.degree >= 1 and residual.evaluate(r) == 0:
                residual, rem = residual.divide_linear(r)
                if rem:
                    raise ArithmeticError(f"dividing out the root {r} left remainder {rem}")
                counts[r] = counts.get(r, 0) + 1
    return sorted(counts.items()), residual
