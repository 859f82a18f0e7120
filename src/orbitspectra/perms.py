"""Permutations, group actions on vertex sets, and orbit partitions.

Orbits are computed by closure under generators; the group itself is
never enumerated (two-point stabilizers already have (n-2)! elements).
This module also owns the translation between permutations of [1..n]
and the induced permutations of pair vertices, and the search for
commuting involutive automorphisms that split a distance matrix.
"""

import re

from orbitspectra.exactla import Frozen, join_involution
from orbitspectra.graphs import InputError, pair_vertices

# Refinements that involution_candidates may run on one graph, over all
# its tries. One refinement of both colourings takes 0.3 to 0.7 ms on
# graphs of 56 to 168 vertices (2-core Xeon, Python 3.11), so the search
# costs at most about 20 to 45 ms there. On the benchmark's seed-1 inputs
# the last involution kept comes at refinement 13 (lcr(10)) and 42
# (line-johnson(7, 2)); crown(20) takes 18 to reach its first leaf
SEARCH_BUDGET = 64


class Permutation(Frozen):
    """A bijection of {0..m-1}, stored as the image list."""

    __slots__ = _fields = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a permutation")
        super().__init__(images=images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree, base=0):
        """Build from disjoint cycles of points numbered from base (0 or 1);
        fixed points implied. Errors name the points as numbered."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for p in cyc:
                if not base <= p < base + degree:
                    raise InputError(f"point {p} outside {base}..{base + degree - 1}")
                if p in seen:
                    raise InputError(f"point {p} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - base] = b - base
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, v):
        return self.images[v]

    def __mul__(self, other):
        """self after other: (self * other)(v) = self(other(v))."""
        return Permutation(self.images[w] for w in other.images)

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = set()
        for v in range(len(self.images)):
            if v in seen:
                continue
            cyc = [v]
            seen.add(v)
            w = self.images[v]
            while w != v:
                cyc.append(w)
                seen.add(w)
                w = self.images[w]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(identity on {self.degree})"
        text = "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)
        return f"Permutation({text})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse cycle notation with 1-based points, e.g. "(1 2)(3 4 5)".

    Whitespace or commas separate points; "()" and an empty string mean
    the identity.
    """
    stripped = text.strip()
    if stripped and not re.fullmatch(r"\([^()]*\)(?:\s*\([^()]*\))*", stripped):
        raise InputError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        points = [p for p in re.split(r"[\s,]+", body.strip()) if p]
        if not points:
            continue
        try:
            cyc = [int(p) for p in points]
        except ValueError:
            raise InputError(f"non-integer point in cycle: {body!r}") from None
        cycles.append(cyc)
    return Permutation.from_cycles(cycles, degree, base=1)


class GeneratorSet(Frozen):
    """A nonempty list of same-degree permutations generating a group."""

    __slots__ = _fields = ("degree", "generators")

    def __init__(self, degree, generators):
        if not generators:
            raise ValueError("generator set must be nonempty")
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != declared degree {degree}")
        super().__init__(degree=degree, generators=generators)

    @classmethod
    def of(cls, *gens):
        gens = tuple(gens)
        return cls(gens[0].degree, gens)


class OrbitPartition(Frozen):
    """Ordered disjoint cells covering {0..degree-1}, with reverse lookup;
    generators, set by orbits() only and ignored by ==, made the cells."""

    __slots__ = ("cells", "cell_of", "generators")
    _fields = ("cells", "cell_of")

    def __init__(self, cells, cell_of, generators=None):
        super().__init__(cells=cells, cell_of=cell_of, generators=generators)

    @classmethod
    def from_cells(cls, cells, generators=None):
        cells = tuple(tuple(sorted(c)) for c in cells)
        degree = sum(len(c) for c in cells)
        lookup = [-1] * degree
        for k, cell in enumerate(cells):
            if not cell:
                raise ValueError("empty cell")
            for v in cell:
                if not 0 <= v < degree or lookup[v] != -1:
                    raise ValueError("cells must disjointly cover 0..degree-1")
                lookup[v] = k
        return cls(cells, tuple(lookup), generators)

    @property
    def degree(self):
        return len(self.cell_of)

    @property
    def cell_count(self):
        return len(self.cells)

    def singleton_cells(self):
        return [k for k, c in enumerate(self.cells) if len(c) == 1]

    def reorder_by_representatives(self, reps):
        """Same cells and generators, reordered so cell k contains reps[k]."""
        if sorted(self.cell_of[r] for r in reps) != list(range(len(self.cells))):
            raise ValueError("representatives must select each cell exactly once")
        return OrbitPartition.from_cells([self.cells[self.cell_of[r]] for r in reps], self.generators)


def orbits(gens: GeneratorSet) -> OrbitPartition:
    """Orbit partition of the generated group, by closure under generators.

    Cells are sorted internally and ordered by smallest member, so the
    cells are independent of generator order; the partition records gens.
    """
    n = gens.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens.generators:
        for v, w in enumerate(g.images):
            a, b = find(v), find(w)
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    cells = [groups[r] for r in sorted(groups)]
    return OrbitPartition.from_cells(cells, gens)


def pair_action(alpha: Permutation) -> Permutation:
    """Permutation of pair vertices induced by alpha: (i,j) -> (alpha i, alpha j)."""
    n = alpha.degree
    verts = pair_vertices(n)
    index = {p: k for k, p in enumerate(verts)}
    return Permutation(
        index[(alpha.images[i - 1] + 1, alpha.images[j - 1] + 1)] for i, j in verts
    )


def swap_action(n) -> Permutation:
    """The coordinate-swap involution of pair vertices: (i,j) -> (j,i)."""
    if n < 3:
        raise ValueError("pair vertices defined for n >= 3")
    verts = pair_vertices(n)
    index = {p: k for k, p in enumerate(verts)}
    return Permutation(index[(j, i)] for i, j in verts)


class AutomorphismError(InputError):
    """Generators that fail a graph: one is not an automorphism of it, or
    generators required to be transitive on its vertices are not."""


def is_automorphism(g, p: Permutation) -> bool:
    """True iff p maps edges of g onto edges of g bijectively."""
    if p.degree != g.vertex_count:
        raise ValueError(
            f"permutation degree {p.degree} != vertex count {g.vertex_count}"
        )
    im = p.images
    return all(g.has_edge(im[u], im[v]) for u, vs in enumerate(g.adjacency) for v in vs if u < v)


def check_automorphisms(g, gens: GeneratorSet):
    """Raise AutomorphismError at the first generator not an automorphism of g."""
    for k, p in enumerate(gens.generators):
        if not is_automorphism(g, p):
            raise AutomorphismError(f"generator #{k} ({p!r}) is not an automorphism")


def is_vertex_transitive_under(g, gens: GeneratorSet) -> bool:
    """True iff gens, each checked to be an automorphism of g, have one vertex orbit."""
    check_automorphisms(g, gens)
    return orbits(gens).cell_count == 1


def symmetric_group_gens(n) -> GeneratorSet:
    """Generators of Sym([1..n]) on 0-based points: (1 2) and (1 2 ... n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return GeneratorSet.of(Permutation.identity(1))
    transposition = Permutation.from_cycles([[0, 1]], n)
    cycle = Permutation.from_cycles([list(range(n))], n)
    return GeneratorSet.of(transposition, cycle)


def two_point_stabilizer_gens(n) -> GeneratorSet:
    """Generators of the pointwise stabilizer of 1 and 2 inside Sym([1..n]).

    Sym({3..n}) via the transposition (3 4) and the cycle (3 4 ... n);
    degenerates to the identity group for n <= 3.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n == 3:
        return GeneratorSet.of(Permutation.identity(3))
    transposition = Permutation.from_cycles([[2, 3]], n)
    cycle = Permutation.from_cycles([list(range(2, n))], n)
    return GeneratorSet.of(transposition, cycle)


def lcr_stabilizer_gens(n) -> GeneratorSet:
    """The two-point stabilizer acting on the pair vertices of build_lcr(n)."""
    return GeneratorSet.of(*[pair_action(a) for a in two_point_stabilizer_gens(n).generators])


def lcr_automorphism_gens(n) -> GeneratorSet:
    """Pair actions of Sym([1..n]) generators, the coordinate swap, and
    tau_n, the pair action of (1 2)(3 4)...: it fixes at most one point,
    so no pair, and commutes with the swap, so the two split a rank into
    four blocks of about |V| / 4."""
    pairs = [pair_action(a) for a in symmetric_group_gens(n).generators]
    tau = Permutation.from_cycles([[i, i + 1] for i in range(0, n - 1, 2)], n)
    return GeneratorSet.of(*pairs, swap_action(n), pair_action(tau))


def _refined(adj, left, right, table):
    """The two colourings refined in lockstep to a stable pair, or None
    when their colour multisets part.

    Each round recolours every vertex by its signature, its colour and
    the sorted colours of its neighbours, numbered through the one table
    on both sides, so equal signatures get equal colours. A map that
    keeps adjacency and sends each left colour class onto the right one
    of the same colour keeps the classes of every round, so when the
    multisets differ no such map exists.
    """
    cells = len(set(left))
    while True:
        left, right = (
            [
                table.setdefault((c, tuple(sorted(map(colour.__getitem__, nbrs)))), len(table))
                for c, nbrs in zip(colour, adj)
            ]
            for colour in (left, right)
        )
        if sorted(left) != sorted(right):
            return None
        count = len(set(left))
        if count == cells:
            return left, right
        cells = count


def _individualised(group, left, right, v, u):
    """left and right with sigma(h(v)) = h(u) and sigma(h(u)) = h(v)
    prescribed for each h in group, each pair given a new colour on both
    sides; None when no involution commuting with the group and keeping
    the colours meets those pairs."""
    pairs = {x: y for h in group for x, y in ((h[v], h[u]), (h[u], h[v]))}
    if any(pairs[y] != x or left[x] != right[y] for x, y in pairs.items()):
        return None
    left, right = left[:], right[:]
    for k, (x, y) in enumerate(pairs.items()):
        left[x] = right[y] = -1 - k
    return left, right


def _leaves(adj, group, left, right, table):
    """Walk the individualisation-refinement tree below the colourings
    left and right, depth first, and yield once per refinement: the map
    sending each vertex to the right vertex of its colour at a discrete
    leaf, else None.

    A node branches on the least vertex x of the smallest left cell of
    two or more, and maps x to each right vertex y of its colour in
    turn, x itself first, so that the maps found fix many points (McKay
    & Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
    2014): _individualised prescribes x and y swapped, with their images
    under the group, so that every leaf is an involution commuting with
    it unless its refinement parts. Refined colours are never negative,
    so each prescribed pair's colour is new.
    """
    refined = _refined(adj, left, right, table)
    if refined is None:
        yield None
        return
    left, right = refined
    cells = {}
    for v, c in enumerate(left):
        cells.setdefault(c, []).append(v)
    if len(cells) == len(left):
        where = dict(zip(right, range(len(right))))
        yield tuple(where[c] for c in left)
        return
    yield None
    x = min((vs for vs in cells.values() if len(vs) > 1), key=len)[0]
    for y in sorted((y for y, c in enumerate(right) if c == left[x]), key=lambda y: y != x):
        pair = _individualised(group, left, right, x, y)
        if pair:
            yield from _leaves(adj, group, *pair, table)


def involution_candidates(g, rows, first=None):
    """Involutive automorphisms of g that commute pairwise and with its
    distance matrix, whose rows are given: candidates to split it, in the
    order found. Only proposals: IsotypicSplit checks each again.

    first, when given, is offered first. Then colour refinement on the
    adjacency: when it is discrete, g is asymmetric and nothing is
    searched. Otherwise, for v = 0 and each u outside v's orbit under the
    group G of those kept, one try looks for sigma with sigma(v) = u.
    Commuting with G, sigma swaps h(v) and h(u) for each h in G; those
    pairs are individualised, h(v) against h(u) on the left and h(u)
    against h(v) on the right, with a new signature table, and _leaves
    walks the tree below. A leaf joins G (join_involution) when it is an
    involution outside G that commutes with G and with the matrix, and
    ends the try. The search stops when the group cannot double within
    |V| or SEARCH_BUDGET refinements have run.
    """
    n, adj = g.vertex_count, g.adjacency
    group, found = [tuple(range(n))], []
    if first is not None and join_involution(rows, group, first):
        found.append(first)
    base = _refined(adj, [0] * n, [0] * n, {})[0]
    budget = SEARCH_BUDGET if len(set(base)) < n else 0
    for u in range(1, n):
        if not budget or 2 * len(group) > n:
            break
        pair = None if any(h[0] == u for h in group) else _individualised(group, base, base, 0, u)
        for sigma in _leaves(adj, group, *pair, {}) if pair else ():
            budget -= 1
            if sigma and join_involution(rows, group, sigma):
                found.append(sigma)
                break
            if not budget:
                break
    return found
