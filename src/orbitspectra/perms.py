"""Permutations, group actions on vertex sets, and orbit partitions.

Orbits are computed by closure under generators; the group itself is
never enumerated (two-point stabilizers already have (n-2)! elements).
This module also owns the translation between permutations of [1..n]
and the induced permutations of pair vertices.
"""

import re

from orbitspectra.graphs import InputError, pair_vertices


class Frozen:
    """Base of the package's immutable records, plain __slots__ classes.

    A subclass lists its attributes in __slots__ and sets them once, in
    __init__, through Frozen.__init__; _fields names those that ==, hash
    and repr read. Equal records are of the same class.
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


class Permutation:
    """A bijection of {0..m-1}, stored as the image list."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a permutation")
        self.images = images

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree):
        """Build from disjoint cycles of 0-based points; fixed points implied."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for p in cyc:
                if not 0 <= p < degree:
                    raise InputError(f"point {p} outside 0..{degree - 1}")
                if p in seen:
                    raise InputError(f"point {p} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
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

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

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
    if stripped and not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
        raise InputError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        points = [p for p in re.split(r"[\s,]+", body.strip()) if p]
        if not points:
            continue
        try:
            cyc = [int(p) - 1 for p in points]
        except ValueError:
            raise InputError(f"non-integer point in cycle: {body!r}") from None
        cycles.append(cyc)
    return Permutation.from_cycles(cycles, degree)


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
    """Pair actions of Sym([1..n]) generators plus the coordinate swap."""
    pairs = [pair_action(a) for a in symmetric_group_gens(n).generators]
    return GeneratorSet.of(*pairs, swap_action(n))
