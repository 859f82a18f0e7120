"""Graph families, exact BFS distances, and structural tests.

Vertices are integer indices 0..n-1 with printable labels. All builders
expose a stable canonical vertex order (ordered pairs lexicographic,
subsets in colex order) so that matrices derived from them are
reproducible run to run.

Distances come from a bitset BFS (``bfs_all_pairs``): vertex sets are
int masks, so a source costs O(diameter * |V|/8) byte steps plus O(|V|)
mask operations rather than O(|E|) interpreted steps. That suits the
dense, diameter-3 lcr graphs; a level with few members, such as a long
sparse cycle's two, is read member by member instead of byte by byte.
A large level finds its successor bottom-up, from the few vertices not
yet seen, and each row starts filled with the previous source's
commonest distance. On lcr(n) the (n-1)(n-2) vertices at distance 2
from a source then cost one mask AND, for the one vertex left unseen,
instead of one OR and one write each.
"""

from bisect import bisect_left
from typing import NamedTuple

from orbitspectra.exactla import IntMatrix


class InputError(ValueError):
    """A fault in what the caller asked for, not in the program: a family
    parameter out of range, an empty or disconnected graph where distances
    are needed, malformed or failing group data, or an input a method's
    premises exclude. The command line reports it as a usage or input
    error (exit 2); any other ValueError is a fault of the program."""


class DisconnectedGraphError(InputError):
    """Raised when a distance computation meets two unreachable vertices."""

    def __init__(self, u, v, label_u, label_v):
        self.u, self.v = u, v
        super().__init__(
            f"graph is disconnected: no path between vertex {label_u} and {label_v}"
        )


class Graph:
    """Immutable undirected simple graph with labeled vertices."""

    __slots__ = ("vertex_count", "vertex_labels", "_adj")

    def __init__(self, vertex_count, edges, labels=None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if labels is None:
            labels = [str(v) for v in range(vertex_count)]
        labels = tuple(str(x) for x in labels)
        if len(labels) != vertex_count:
            raise ValueError("need exactly one label per vertex")
        if len(set(labels)) != vertex_count:
            raise ValueError("vertex labels must be pairwise distinct")
        # one pass over the edges, which may be a stream, fills the rows;
        # each row is then sorted and checked once. A self-loop (u, u)
        # puts u twice in row u, and a duplicate edge (u, v), in either
        # orientation, puts v twice in row u. An endpoint past the last
        # row fails its own append; a negative one is checked per edge,
        # since as an index it would file the edge under another row
        nbrs = [[] for _ in range(vertex_count)]
        for u, v in edges:
            if u < 0 or v < 0:
                raise ValueError(f"edge ({u},{v}) out of range")
            try:
                nbrs[u].append(v)
                nbrs[v].append(u)
            except IndexError:
                raise ValueError(f"edge ({u},{v}) out of range") from None
        for u, row in enumerate(nbrs):
            row.sort()
            if len(set(row)) < len(row):
                if u in row:
                    raise ValueError(f"self-loop at vertex {u}")
                v = next(a for a, b in zip(row, row[1:]) if a == b)
                raise ValueError(f"duplicate edge ({u},{v})")
        self.vertex_count = vertex_count
        self.vertex_labels = labels
        self._adj = tuple(map(tuple, nbrs))

    @property
    def adjacency(self):
        return self._adj

    def edges(self):
        """Edge list as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in self._adj[u] if u < v]

    def is_regular(self):
        """The common degree if the graph is regular, else None."""
        degs = {len(a) for a in self._adj}
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    def label(self, v):
        return self.vertex_labels[v]

    def has_edge(self, u, v):
        nbrs = self._adj[u]
        k = bisect_left(nbrs, v)
        return k < len(nbrs) and nbrs[k] == v

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.vertex_labels == other.vertex_labels
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.vertex_count, self.vertex_labels, self._adj))

    def __repr__(self):
        edges = sum(map(len, self._adj)) // 2
        return f"Graph({self.vertex_count} vertices, {edges} edges)"


def pair_vertices(n):
    """All ordered pairs over [1..n] with distinct coordinates, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def build_crown(n):
    """K_{n,n} minus a perfect matching: sides [1..n] and x1..xn, i ~ xj iff i != j."""
    if n < 3:
        raise InputError("crown graph defined for n >= 3")
    labels = [str(i) for i in range(1, n + 1)] + [f"x{j}" for j in range(1, n + 1)]
    edges = [
        (i, n + j)
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return Graph(2 * n, edges, labels)


def build_cycle(n):
    if n < 3:
        raise InputError("cycle graph defined for n >= 3")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def build_circulant(n, connections):
    """Circulant graph on Z_n with the given connection set (1 <= c <= n//2)."""
    if n < 3:
        raise InputError("circulant graph defined for n >= 3")
    conns = sorted(set(connections))
    if not conns:
        raise InputError("connection set must be nonempty")
    for c in conns:
        if not (1 <= c <= n // 2):
            raise InputError(f"connection {c} outside 1..{n // 2}")
    edges = set()
    for v in range(n):
        for c in conns:
            edges.add(tuple(sorted((v, (v + c) % n))))
    return Graph(n, sorted(edges))


def build_complete(n):
    if n < 1:
        raise InputError("complete graph needs at least one vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def build_lcr(n):
    """Line graph of the crown graph, built directly on ordered-pair vertices.

    Vertices are the pairs (i, j), i != j, in lexicographic order; (i, j)
    and (r, s) are adjacent iff i = r or j = s.
    """
    if n < 3:
        raise InputError("pair-model line graph defined for n >= 3")
    verts = pair_vertices(n)
    index = {p: k for k, p in enumerate(verts)}

    def edges():
        # streamed: Graph reads each edge once, so no edge list is held
        for k, (i, j) in enumerate(verts):
            # same first coordinate
            for s in range(j + 1, n + 1):
                if s != i:
                    yield k, index[(i, s)]
            # same second coordinate
            for r in range(i + 1, n + 1):
                if r != j:
                    yield k, index[(r, j)]

    labels = [f"({i},{j})" for i, j in verts]
    return Graph(len(verts), edges(), labels)


def build_johnson(n, k):
    """Johnson graph: k-subsets of [1..n], adjacent iff they share k-1 elements."""
    if not (1 <= k <= n - 1):
        raise InputError("Johnson graph needs 1 <= k <= n-1")
    from itertools import combinations

    verts = sorted(combinations(range(1, n + 1), k), key=lambda s: tuple(reversed(s)))
    index = {s: t for t, s in enumerate(verts)}
    edges = []
    for t, s in enumerate(verts):
        inside = set(s)
        for drop in s:
            for add in range(1, n + 1):
                if add not in inside:
                    other = tuple(sorted(inside - {drop} | {add}))
                    t2 = index[other]
                    if t2 > t:
                        edges.append((t, t2))
    labels = ["{" + ",".join(str(x) for x in s) + "}" for s in verts]
    return Graph(len(verts), sorted(set(edges)), labels)


def build_line_graph(g):
    """Line graph: one vertex per edge of g, adjacent iff the edges share an endpoint."""
    base_edges = g.edges()
    index = {e: k for k, e in enumerate(base_edges)}
    edges = []
    for k, (u, v) in enumerate(base_edges):
        for w in (u, v):
            for x in g.adjacency[w]:
                other = (w, x) if w < x else (x, w)
                k2 = index[other]
                if k2 > k:
                    edges.append((k, k2))
    labels = ["{" + g.label(u) + "," + g.label(v) + "}" for u, v in base_edges]
    return Graph(len(base_edges), sorted(set(edges)), labels)


def bfs_all_pairs(n, adj, sources=None):
    """Shortest path lengths by BFS, one tuple per source.

    ``sources`` lists the vertices to search from, and the rows come back
    in its order; the default is every vertex, 0..n-1. ``adj`` is a
    sequence of neighbor iterables; each is read once, into an int mask.
    Unreachable vertices are reported as -1; the caller decides whether
    that is an error.

    Each level of a source's search is a mask too, and its members are
    read off its bytes through a table of bit positions, or, when it has
    fewer than a quarter as many members as the mask has bytes, peeled
    off one lowest set bit at a time. A level's successor is found in
    one of two directions (Beamer, Asanovic & Patterson, SC 2012):

    - top-down: the OR of the members' neighbor masks minus the vertices
      already seen, one |V|-bit OR per member;
    - bottom-up: the unseen vertices whose neighbor mask meets the level,
      one |V|-bit AND per unseen vertex.

    A scanned level takes whichever direction has fewer members to visit.
    A peeled level, with fewer than |V|/32 members, always goes top-down
    and never counts the unseen vertices: the count costs two |V|-bit
    operations, as much as a long cycle's two-member level, and such a
    level outnumbers the unseen vertices only at the end of a search.

    Each row starts filled with a guess, the distance of the previous
    source's most populous level (the farther one on a tie; -1 for the
    first source). A level expanded bottom-up at that distance is not
    written; every other level is. Each vertex is the source, in a
    written level, in a level at the guessed distance, or unreached, and
    the unreached are set to -1 at the end, so the guess decides only how
    much is written, never a distance. On a vertex-transitive graph it
    always holds: on lcr(34) the 1056 vertices at distance 2 from each
    source are neither ORed nor written.

    Per source that costs O(diameter * |V|/8) byte steps at most plus
    O(|V|) mask operations of |V| bits, where a queue costs O(|E|)
    interpreted steps; it wins on dense and small-diameter graphs.
    """
    # bits_of[x]: the positions of the bits set in byte x, ascending
    bits_of = [()]
    for b in range(8):
        bits_of += [t + (b,) for t in bits_of]
    nbr = []
    for u in range(n):
        mask = 0
        for w in adj[u]:
            mask |= 1 << w
        nbr.append(mask)
    width = (n + 7) // 8
    full = (1 << n) - 1

    def members(mask, count):
        """The positions of the count bits set in mask, ascending."""
        if 4 * count < width:
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return out
        return [
            8 * k + b
            for k, byte in enumerate(mask.to_bytes(width, "little"))
            if byte
            for b in bits_of[byte]
        ]

    dist = []
    fill = -1
    for src in range(n) if sources is None else sources:
        row = [fill] * n
        row[src] = 0
        seen = 1 << src
        level = nbr[src] & ~seen
        d = 1
        most, common = 0, -1
        while level:
            seen |= level
            count = level.bit_count()
            if count >= most:
                most, common = count, d
            reach = 0
            # peeling costs about four byte steps per member; the scan, one
            # per byte of the mask
            if 4 * count < width:
                while level:
                    low = level & -level
                    w = low.bit_length() - 1
                    row[w] = d
                    reach |= nbr[w]
                    level ^= low
                level = reach & ~seen
            else:
                unseen = full ^ seen
                left = unseen.bit_count()
                if count > left:
                    if d != fill:
                        for w in members(level, count):
                            row[w] = d
                    for u in members(unseen, left):
                        if nbr[u] & level:
                            reach |= 1 << u
                    level = reach
                else:
                    for w in members(level, count):
                        row[w] = d
                        reach |= nbr[w]
                    level = reach & ~seen
            d += 1
        if fill >= 0 and seen != full:
            for w in members(full ^ seen, n - seen.bit_count()):
                row[w] = -1
        fill = common
        dist.append(tuple(row))
    return dist


def all_pairs_distances(g, sources=None):
    """Exact distances, as an IntMatrix, by BFS: the rows of the given
    sources in their order, or the whole distance matrix by default.

    Raises DisconnectedGraphError naming the first source and a vertex it
    does not reach if the graph is not connected; one row shows that.
    """
    if g.vertex_count == 0:
        raise InputError("distance matrix of the empty graph is undefined")
    dist = bfs_all_pairs(g.vertex_count, g.adjacency, sources)
    src = 0 if sources is None else sources[0]
    for v, d in enumerate(dist[0]):
        if d < 0:
            raise DisconnectedGraphError(src, v, g.label(src), g.label(v))
    return IntMatrix(dist)


class DistanceRegularity(NamedTuple):
    """Outcome of the distance-regularity test.

    ``intersection_array`` is ((b_0..b_{d-1}), (c_1..c_d)) when the graph
    is distance-regular; otherwise ``witness`` holds
    (distance, (v, w), counts, (v2, w2), counts2) with counts =
    (c, a, b) = neighbors of w at distance i-1, i, i+1 from v.
    """

    is_distance_regular: bool
    intersection_array: tuple | None
    witness: tuple | None


def is_distance_regular(g):
    """Test distance-regularity by checking all intersection numbers.

    For every ordered pair (v, w) at distance i the neighbor counts of w
    at distances i-1, i, i+1 from v must depend on i alone. The i = 0
    case forces regularity automatically.
    """
    d = all_pairs_distances(g)
    seen = {}  # distance -> ((v, w), (c, a, b))
    diam = d.max_entry()
    for v in range(g.vertex_count):
        dv = d.entries[v]
        for w in range(g.vertex_count):
            i = dv[w]
            c = a = b = 0
            for x in g.adjacency[w]:
                dx = dv[x]
                if dx == i - 1:
                    c += 1
                elif dx == i:
                    a += 1
                else:
                    b += 1
            counts = (c, a, b)
            if i not in seen:
                seen[i] = ((v, w), counts)
            elif seen[i][1] != counts:
                witness = (i, seen[i][0], seen[i][1], (v, w), counts)
                return DistanceRegularity(False, None, witness)
    b_arr = tuple(seen[i][1][2] for i in range(diam))
    c_arr = tuple(seen[i][1][0] for i in range(1, diam + 1))
    return DistanceRegularity(True, (b_arr, c_arr), None)
