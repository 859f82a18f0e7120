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
row as pivot. An eigenvalue multiplicity can be split by checked
involutions that commute pairwise and with the matrix m, one block per
character chi of the group G they generate: its rows and columns are
the orbit representatives whose stabilizer lies in ker chi, and its
entry (u, v) is sum_g chi(g) m[u][g(v)] / |Stab(v)|, less lam when u =
v. Its columns are m - lam I applied to a basis of the isotypic
component V_chi, read at those representatives, and a vector of V_chi
is determined by its values there, so the block ranks sum to
rank(m - lam I). A free action of order 2^k trades one rank of n for
2^k of n / 2^k. Berkowitz needs R M^k C for each trailing block M
with column C and row R; on symmetric input (every distance matrix)
R = C^T and R M^k C = (M^i C)^T (M^j C) with i = k // 2, j = k - i,
so about half the mat-vecs suffice.
Non-symmetric input takes (R M^i) from M^T. A mat-vec takes one
product per entry (the direct form) or, on a symmetric block whose
rows hold few values, mostly one w0 per row (a distance matrix's
0..diameter), a few C-level passes over the entries other than w0
(the flat form): one gather and two prefix sums. On lcr(10)'s 90 x 90
D a 60-wide mat-vec takes about 100 us against 160 us for the grouped
rows it replaced. Long cycles, circulants, generic matrices and
non-symmetric input such as the quotient Q keep the direct form.
Each block's column R M^k C depends on the matrix alone, so above a
size the blocks are cut into ranges of about equal estimated work and
all but the range of smallest blocks are computed in forked workers,
one per further usable CPU, which send their columns back over a pipe;
the columns are folded into the polynomial in the same order as in one
process. Below that size, on one usable CPU, without os.fork, beside
other threads or where they cannot be counted, or with SIGCHLD
ignored, one process computes every block.
Hessenberg reduction modulo a prime screens candidate roots: a nonzero
residue proves a value is not a root, and a root's multiplicity mod p
bounds its multiplicity over Z from above; neither decides a result.
Each elimination step applies its row updates first and its column
update in one pass over the rows, as the step's elementary matrices
commute.
"""

import marshal
import os
from bisect import bisect_right
from functools import partial
from itertools import accumulate, compress, repeat
from operator import add, floordiv, itemgetter, mul, sub

# Mersenne prime used for modular screening of eigenvalue candidates
SCREEN_PRIME = (1 << 61) - 1

# Berkowitz's estimated work (see berkowitz_charpoly) that each part of a
# split call must get. Work runs at about 110 ns a unit, and starting and
# collecting a worker costs about 2 ms (2-vCPU VM, Python 3.11): two parts
# took 16.8 ms against 13.8 ms for one on cycle(30)'s 100,920 units, and
# 19.4 ms against 29.4 ms on lcr(7)'s 235,845
PART_MIN_WORK = 100_000


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


def _value_columns(rows):
    """What the flat form needs of an n x n symmetric matrix, read once.

    Returns (w0s, layout, costs). w0s[i] is row i's most frequent entry;
    layout[i] pairs each other value w of row i with w - w0 and its
    columns j in ascending order, written j - n so that they index the
    vector of any trailing block holding them. The block after start
    holds entry (i, j) when min(i, j) > start. costs[s] sums 1 for each
    entry other than its row's w0 with min(i, j) = s, and 3 for each
    (row, value) group whose last entry has min(i, j) = s.
    """
    n = len(rows)
    w0s, layout, costs = [], [], [0] * (n + 1)
    indices = tuple(range(-n, 0))  # one int object per column, shared by the rows
    for i, row in enumerate(rows):
        columns = {}
        for j, x in zip(indices, row):
            columns.setdefault(x, []).append(j)
        w0 = max(columns, key=lambda w: len(columns[w]))
        values = [(w - w0, cols) for w, cols in columns.items() if w != w0]
        for _, cols in values:
            costs[min(i, cols[-1] + n)] += 3
            for j in cols:
                costs[min(i, j + n)] += 1
        w0s.append(w0)
        layout.append(values)
    return w0s, layout, costs


def _block_plan(w0s, layout, start):
    """The flat form of the trailing block after start, for _flat_mat_vec.

    Each row's in-block columns of each value other than its w0 go into
    one index list, grouped by (row, value). The plan is a getter of
    those entries, marks on the leading 0 and group ends of their prefix
    sums, the groups' offsets, a getter of the row ends (led by 0) of
    the groups' prefix sums, and the rows' w0; None when fewer than two
    entries are gathered (a getter of one index returns no tuple).
    """
    flat, marks, row_ends, offsets = [], bytearray(b"\1"), [0], []
    for values in layout[start + 1:]:
        for offset, cols in values:
            k = bisect_right(cols, start - len(layout))
            if k < len(cols):
                flat += cols[k:]
                marks += bytes(len(cols) - k - 1) + b"\1"
                offsets.append(offset)
        row_ends.append(len(offsets))
    if len(flat) < 2:
        return None
    return itemgetter(*flat), marks, offsets, itemgetter(*row_ends), w0s[start + 1:]


def _flat_mat_vec(plan, vec):
    """block . vec in the flat form of _block_plan, in C-level passes.

    One gather and a prefix sum P, kept only where marked, give each
    group's sum of vec as a difference of two P; times its offset, a
    second prefix sum Q gives each row's correction as a difference of
    two Q. Row i is w0_i * sum(vec) plus its correction.
    """
    gather, marks, offsets, row_bounds, w0s = plan
    p = tuple(compress(accumulate(gather(vec), initial=0), marks))
    q = row_bounds(list(accumulate(map(mul, offsets, map(sub, p[1:], p)), initial=0)))
    return list(map(add, map(mul, w0s, repeat(sum(vec))), map(sub, q[1:], q)))


def _block_columns(rows, symmetric, values, flat, starts):
    """Yield the first Toeplitz column [1, -a, -R C, -R M C, ...] of the
    trailing block after each start, in the order given.

    values holds _value_columns's w0s and layout on symmetric input;
    flat[start] says whether that block takes the flat form.
    """
    n = len(rows)
    for start in starts:
        m = n - start
        col = [1, -rows[start][start]]
        if m > 1:
            tail = range(start + 1, n)
            plan = flat[start] and _block_plan(*values, start)
            block = None if plan else [rows[i][start + 1:] for i in tail]
            block_t = None if symmetric else list(zip(*block))
            # the direct mat-vecs stay inline: a call per mat-vec costs a
            # small matrix such as the 7 x 7 quotient about a tenth
            left = rows[start][start + 1:]
            right = [rows[i][start] for i in tail]
            for k in range(m - 1):
                if k % 2:
                    right = (
                        _flat_mat_vec(plan, right) if plan
                        else [sum(map(mul, mr, right)) for mr in block]
                    )
                elif k and symmetric:
                    left = right
                elif k:
                    left = [sum(map(mul, mc, left)) for mc in block_t]
                col.append(-sum(map(mul, left, right)))
        yield col


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _may_fork():
    """Whether a worker may be forked: os.fork exists, this process runs
    no other thread, which could hold a lock the worker would copy
    (Python 3.12 warns), and SIGCHLD is not ignored, which would have
    the system reap a worker before it is waited for. Threads are
    counted as the tasks in /proc; where they cannot be, no worker is
    forked."""
    if not hasattr(os, "fork"):
        return False
    from signal import SIG_IGN, SIGCHLD, getsignal

    try:
        tasks = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return tasks == 1 and getsignal(SIGCHLD) != SIG_IGN


def _parts(work, count):
    """The starts n - 1, ..., 0, cut into count contiguous ranges of about
    equal work, empty ranges dropped.

    Range k ends at the block where the running sum of work, from the
    smallest block up, first reaches (k + 1) / count of the total.
    """
    n, total = len(work), sum(work)
    bounds, done = [n], 0
    for start in range(n - 1, -1, -1):
        done += work[start]
        while len(bounds) < count and done * count >= total * len(bounds):
            bounds.append(start)
    bounds.append(0)
    return [range(hi - 1, lo - 1, -1) for hi, lo in zip(bounds, bounds[1:]) if hi > lo]


def _fork_columns(columns, starts):
    """(pid, read end) of a forked worker that writes the list of
    columns(starts), marshalled, to a pipe and leaves with os._exit,
    status 1 if anything raised; None when os.pipe or os.fork fails."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(list(columns(starts))))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(worker, count):
    """The count columns a worker wrote, once it is reaped and its pipe
    closed; None when it exited nonzero or wrote short data."""
    pid, pipe = worker
    data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    pipe.close()
    if status:
        return None
    try:
        columns = marshal.loads(data)
    except (EOFError, ValueError):
        return None
    return columns if len(columns) == count else None


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
    vectors are held.

    A mat-vec takes one product and one add per entry (the direct form)
    or, on symmetric input, the passes of _flat_mat_vec. Priced in pairs
    of operations, a direct entry costs 1, a gathered entry 1 (a fetch
    and an add) and a group 3 (two fetches, a difference, a product, an
    add and its offset): a block takes the flat form when its summed
    costs (_value_columns) are below its entry count.

    A block's column depends on the matrix alone, not on the polynomial
    so far (Berkowitz, Inf. Process. Lett. 18, 1984); only the fold into
    the polynomial is sequential. So the blocks are cut into contiguous
    ranges (_parts) of about equal work, priced as the block's
    mat-vecs at the cost of its form plus its m - 1 dot products of
    length m - 1: one range per usable CPU, each of at least
    PART_MIN_WORK, and one range where no worker may be forked
    (_may_fork). Each range but the first, which holds the smallest
    blocks, goes to a forked worker (_fork_columns). This process
    computes the first range, folding each column as it comes, then
    folds each worker's columns, so the fold runs over the blocks in the
    same order, from the trailing 1x1 block outward, however they were
    split. A range whose worker could not be started, exited nonzero or
    wrote short data is computed here. On the way out of an exception,
    the workers still running are killed; every worker is reaped before
    the call returns or raises.
    """
    n = len(rows)
    symmetric = all(tuple(row) == col for row, col in zip(rows, zip(*rows)))
    values = None
    if symmetric:
        *values, costs = _value_columns(rows)
    flat, work = [False] * n, [0] * n
    cost = 0
    for start in range(n - 2, -1, -1):
        m = n - start
        direct = (m - 1) ** 2
        if symmetric:
            cost += costs[start + 1]
            flat[start] = cost < direct
            work[start] = (m - 1) // 2 * min(cost, direct) + direct
        else:
            work[start] = (m - 1) * direct
    columns = partial(_block_columns, rows, symmetric, values, flat)
    # a part for each usable CPU, but none that would get less than PART_MIN_WORK
    count = min(_usable_cpus(), sum(work) // PART_MIN_WORK)
    parts = _parts(work, count if count > 1 and _may_fork() else 1)
    poly = [1]
    workers = []
    try:
        for starts in parts[1:]:
            workers.append(_fork_columns(columns, starts))
        for starts, worker in zip(parts, [None, *workers]):
            cols = worker and _collect(worker, len(starts))
            for col in columns(starts) if cols is None else cols:
                # poly <- T . poly, T the (m+1) x m lower-triangular Toeplitz
                # matrix (m + 1 = len(col)) with first column col in
                # highest-degree-first order; with both vectors stored
                # constant term first, T[k][t] = col[t + 1 - k]
                poly = [sum(map(mul, col[1:], poly))] + [
                    sum(map(mul, col, poly[k - 1:])) for k in range(1, len(col))
                ]
    finally:
        for pid, pipe in filter(None, workers):
            if not pipe.closed:  # left running by an exception
                from signal import SIGKILL

                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return poly


def charpoly_mod(rows, p):
    """Characteristic polynomial of a square integer matrix modulo a prime p.

    Returns the monic coefficient list, constant term first. The matrix
    is brought to upper Hessenberg form by similarity mod p (pivot
    search, row/column swap, elimination with the matching column
    update), then the Hessenberg recurrence builds the leading principal
    characteristic polynomials p_1, ..., p_n (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.2.4). O(n^3) word-size
    operations, against Berkowitz's O(n^4) big-integer ones.

    The elementary matrices I - u_i e_i e_m^T of one elimination step
    (i > m, one pivot row m) commute, and their product L leaves row m
    alone. So each step first applies every row update from the
    unchanged pivot row, then the column update of L^-1 in one pass over
    the rows, r[m] += sum_i u_i r[i], with the rows already updated: the
    same matrix L H L^-1 as one update pair per row, in one pass instead
    of one per eliminated row.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        c = m - 1
        piv = next((i for i in range(m, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][c], p - 2, p)
        hm = h[m]
        targets, factors = [m], [1]
        for i in range(m + 1, n):
            u = h[i][c] * inv % p
            if u:
                # row_i -= u row_m; row m itself is left as it was
                h[i] = [(a - u * b) % p for a, b in zip(h[i], hm)]
                targets.append(i)
                factors.append(u)
        if len(targets) > 1:
            # then column_m += sum of u_i column_i, in one pass over the rows
            gather = itemgetter(*targets)
            for row in h:
                row[m] = sum(map(mul, factors, gather(row))) % p
    # polys[k] is the characteristic polynomial of the leading k x k block
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        diag = h[m][m]
        new = [0] + prev
        for k, x in enumerate(prev):
            new[k] = (new[k] - diag * x) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            coef = h[i][m] * t % p
            if coef:
                for k, x in enumerate(polys[i]):
                    new[k] = (new[k] - coef * x) % p
        polys.append(new)
    return polys[n]


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - m), monic of degree n."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    return IntPolynomial(berkowitz_charpoly(m.entries))


def eigen_multiplicity(m: IntMatrix, lam, involutions=()) -> int:
    """Geometric multiplicity of the integer lam: n - rank(m - lam I).

    The ranks are Bareiss's over the rationals. involutions hold the
    images of permutations t of range(n), each checked to be an
    involution, to commute with those before it, and to commute with m:
    m[t(u)][t(v)] = m[u][v], on the rows u <= t(u), as the equations of
    row t(u) are those of row u. A failure raises ValueError. The ts,
    less each one already in the group of those before it, generate an
    elementary abelian 2-group G = {g_s}, g_s the product of the kept
    ts in the bits of s, with characters chi_c(g_s) = (-1)^popcount(c &
    s). m keeps each isotypic component V_c of G (Serre, *Linear
    Representations of Finite Groups*, 2.6). For each chi_c, the block
    rows are the orbit representatives u (each the least of its orbit)
    whose stabilizer lies in ker chi_c, and its entry at representative
    v is sum_g chi_c(g) m[u][g(v)] / |Stab(v)| - lam [u = v]; the other
    representatives' rows are zero and are skipped. Column v is m - lam
    I applied to b_v = sum_g chi_c(g) e_g(v) / |Stab(v)|, read at the
    representatives: the b_v span V_c, which m - lam I maps into
    itself, and a vector of V_c is determined by its values at those
    representatives. So the block ranks sum to rank(m - lam I), and an
    orbit of v lies in |G| / |Stab(v)| = |orbit| blocks, so the blocks'
    orders sum to n. The division is exact, as chi_c is 1 on Stab(v),
    and keeps the entries of one signed sum over the orbit. No
    involution leaves the single block m. The blocks are ranked one
    after the other, each read by the kernel as a stream of shifted
    rows made one at a time, so the kernel's working copy of one block
    is the only copy alive.
    """
    if not m.is_square:
        raise ValueError("eigenvalue multiplicity of a non-square matrix")
    rows, n = m.entries, m.rows
    identity = tuple(range(n))
    given, group = [], [identity]
    for t in map(tuple, involutions):
        if sorted(t) != list(identity) or tuple(map(t.__getitem__, t)) != identity:
            raise ValueError(f"the images are not an involution of range({n})")
        for k, s in enumerate(given):
            if tuple(map(t.__getitem__, s)) != tuple(map(s.__getitem__, t)):
                raise ValueError(f"involutions #{k} and #{len(given)} do not commute")
        # a getter of one index returns no tuple, but on one point t is the identity
        permuted = itemgetter(*t) if n > 1 else tuple
        for u, row in enumerate(rows):
            if u <= t[u] and permuted(row) != rows[t[u]]:
                raise ValueError(f"matrix does not commute with the involution at row {u}")
        given.append(t)
        if t not in group:
            group += [tuple(map(t.__getitem__, g)) for g in group]
    # each orbit's least point -> the indices s of the g_s that fix it
    stabilizers = {
        v: [s for s, w in enumerate(images) if w == v]
        for v, images in enumerate(zip(*group))
        if min(images) == v
    }

    def shifted(c):
        ops = [sub if (c & s).bit_count() & 1 else add for s in range(len(group))]
        reps = [v for v, stab in stabilizers.items() if all(ops[s] is add for s in stab)]
        sizes = [len(stabilizers[v]) for v in reps]
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

    return n - sum(bareiss_echelon(shifted(c))[0] for c in range(len(group)))


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
