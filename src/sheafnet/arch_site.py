"""Network architectures as classical directed graphs, fork surgery, and the
canonical finite poset site with its lower Alexandrov topology.

An architecture is a finite directed graph without oriented cycles, at most
one edge per ordered vertex pair and no self-loops.  `SiteGraph.build`
rejects any other graph, so every `SiteGraph` is classical directed by
construction.  Every vertex where two or more layers converge is rewritten
by *fork surgery*: the in-edges of a join vertex ``a`` are rerouted through
a fresh star ``a*`` and tang ``a^`` (data flow ``tips -> a* -> a^ -> a``),
so that downstream machinery can put a product of the tip values on the
tang.  When an input vertex feeds a join directly it is duplicated first:
the input ``u`` keeps its identity, a tip ``u'`` is inserted (``u -> u'``)
and takes over all of u's edges into joins.  Each fork is recorded once, as
a `Fork` in `ForkGraph.forks`.

The resulting poset on the non-star vertices (`site_relations`) orders
elements so that data flows from maximal to minimal: the maximal elements
are exactly the inputs and the tangs; every vertex without an out-edge (an
output, or an isolated input) is minimal, and every minimal element is such
a vertex or a tip (a tip that also feeds a vertex other than a star is not
minimal).  The lower Alexandrov opens (downward closed subsets) are exactly
the "already determined" stages of a forward pass.

Every order question is answered by one pass over Kahn's levels of a
digraph (`_kahn_levels`): the oriented cycle that `SiteGraph.build`
refuses, and, for `FinitePoset`, the cycle of given relations that breaks
antisymmetry, the closure of its up- and down-sets and its linear
extension.  The gradcheck network (`dynamics.network_from_architecture`)
takes its layer order from the same levels.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .errors import ArchitectureError, BoundExceeded, PosetError
from .unionfind import UnionFind

#: Default ceiling, in poset elements, for whole-topology enumeration.
DEFAULT_ENUM_BOUND = 20


# ---------------------------------------------------------------------------
# SiteGraph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteGraph:
    """A classical directed graph with per-vertex role tags."""

    vertices: tuple
    edges: tuple
    roles: dict = field(compare=False)

    @staticmethod
    def build(vertices, edges, roles=None):
        """Validate an architecture and tag each vertex with the role its
        edges give: ``input`` without an in-edge, else ``output`` without an
        out-edge, else ``ordinary``.  A role stated in ``roles`` (None means
        not stated) must be that one, else `ArchitectureError`."""
        vertices = tuple(vertices)
        edges = tuple((str(s), str(d)) for s, d in edges)
        seen = set()
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise ArchitectureError(f"vertex id must be a non-empty string: {v!r}")
            if "*" in v or "^" in v:
                raise ArchitectureError(f"vertex id may not contain '*' or '^': {v!r}")
            if v in seen:
                raise ArchitectureError(f"duplicate vertex id: {v!r}")
            seen.add(v)
        for s, d in edges:
            if s not in seen or d not in seen:
                raise ArchitectureError(f"edge ({s!r}, {d!r}) references unknown vertex")
            if s == d:
                raise ArchitectureError(f"self-loop at {s!r} is forbidden")
        if len(set(edges)) != len(edges):
            dup = [e for e in set(edges) if edges.count(e) > 1]
            raise ArchitectureError(f"parallel edges are forbidden: {dup}")

        index = {v: i for i, v in enumerate(vertices)}
        preds = [[] for _ in vertices]
        for s, d in edges:
            preds[index[d]].append(index[s])
        _, cycle = _kahn_levels(preds)
        if cycle:
            raise ArchitectureError("oriented cycle is forbidden: " +
                                    " -> ".join(repr(vertices[i]) for i in cycle))
        has_out = {s for s, _ in edges}
        stated = roles or {}
        final = {}
        for v, ps in zip(vertices, preds):
            role = "input" if not ps else ("output" if v not in has_out else "ordinary")
            if stated.get(v) not in (None, role):
                raise ArchitectureError(f"vertex {v!r} is {role!r} by its edges, "
                                        f"not {stated[v]!r} as stated")
            final[v] = role
        return SiteGraph(vertices, edges, final)

    def inputs(self):
        return tuple(v for v in self.vertices if self.roles[v] == "input")


def _kahn_levels(preds):
    """Kahn's levels of the digraph on ``range(len(preds))`` whose arrows
    into v come from ``preds[v]``, in arrow order: the sources first, then
    each vertex in the level after its last predecessor's, each level in
    index order (Kahn, CACM 1962).  Returns ``(levels, cycle)``.  ``cycle``
    is None when every vertex is peeled.  Otherwise a vertex that is never
    peeled keeps a predecessor that is never peeled either, so walking back
    from the first such vertex through the first such predecessor repeats a
    vertex; the walk from that vertex back to itself, read forwards, is
    ``cycle``, its first vertex repeated at the end."""
    succ = [[] for _ in preds]
    for v, ps in enumerate(preds):
        for p in ps:
            succ[p].append(v)
    pending = [len(ps) for ps in preds]
    levels = []
    level = [v for v, k in enumerate(pending) if not k]
    while level:
        levels.append(level)
        after = []
        for v in level:
            for d in succ[v]:
                pending[d] -= 1
                if not pending[d]:
                    after.append(d)
        level = sorted(after)
    if not any(pending):
        return levels, None
    v = next(v for v, k in enumerate(pending) if k)
    walk = {}
    while v not in walk:
        walk[v] = len(walk)
        v = next(p for p in preds[v] if pending[p])
    cycle = list(walk)[walk[v]:] + [v]
    return levels, cycle[::-1]


def parse_architecture(document):
    """Parse a decoded architecture document into a validated
    :class:`SiteGraph`.

    ``document`` is a dict (decoded JSON, not its text) with keys ``nodes``
    (list of ids or of ``{"id":..., "role":...}`` objects) and ``edges``
    (list of ``[src, dst]`` pairs).  A vertex is named by a JSON string or
    number, read as its ``str``; any other value is an `ArchitectureError`.
    A stated role must be the one the vertex's edges give (see
    `SiteGraph.build`).
    """
    if not isinstance(document, dict):
        raise ArchitectureError("architecture document must be a JSON object")
    if "nodes" not in document or "edges" not in document:
        raise ArchitectureError("architecture document needs 'nodes' and 'edges'")
    if not isinstance(document["nodes"], list) or not isinstance(document["edges"], list):
        raise ArchitectureError("architecture 'nodes' and 'edges' must be lists")
    vertices, roles = [], {}
    for node in document["nodes"]:
        if isinstance(node, dict):
            if "id" not in node:
                raise ArchitectureError(f"node object without 'id': {node!r}")
            vertices.append(_vertex_name(node["id"]))
            if node.get("role") is not None:
                roles[vertices[-1]] = node["role"]
        else:
            vertices.append(_vertex_name(node))
    edges = []
    for e in document["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ArchitectureError(f"edge must be a [src, dst] pair: {e!r}")
        edges.append((_vertex_name(e[0]), _vertex_name(e[1])))
    return SiteGraph.build(vertices, edges, roles)


def _vertex_name(value):
    """The ``str`` of a JSON string or number naming a vertex (JSON true and
    false are neither, though Python's bool is an int)."""
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ArchitectureError(f"vertex name must be a string or a number: {value!r}")
    return str(value)


# ---------------------------------------------------------------------------
# Fork surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fork:
    star: str
    tang: str
    handle: str
    tips: tuple


@dataclass(frozen=True)
class ForkGraph:
    """A surgered graph: data-flow arrows plus one `Fork` per join.

    Arrows are stored in data-flow orientation (``tips -> star -> tang ->
    handle``).  ``forks`` is the only record of which vertices are stars,
    tangs, tips and handles; `site_relations` states the site orientation.
    """

    vertices: tuple
    arrows: tuple
    forks: tuple        # one Fork per join, in creation order
    origin: SiteGraph   # the architecture before surgery

    def predecessors(self, v):
        return tuple(s for s, d in self.arrows if d == v)

    def stars(self):
        return tuple(f.star for f in self.forks)

    def tangs(self):
        return tuple(f.tang for f in self.forks)

    def tips_of(self, tang):
        for f in self.forks:
            if f.tang == tang:
                return f.tips
        raise ArchitectureError(f"{tang!r} is not a tang")

    def role_sets(self):
        """Full role set per vertex: subset of
        {input, output, tip, tang, star, handle, ordinary}."""
        indeg = {v: 0 for v in self.vertices}
        outdeg = {v: 0 for v in self.vertices}
        for s, d in self.arrows:
            outdeg[s] += 1
            indeg[d] += 1
        stars, tangs = set(self.stars()), set(self.tangs())
        tips = {t for f in self.forks for t in f.tips}
        handles = {f.handle for f in self.forks}
        out = {}
        for v in self.vertices:
            roles = set()
            if v in stars:
                roles.add("star")
            elif v in tangs:
                roles.add("tang")
            else:
                if indeg[v] == 0:
                    roles.add("input")
                if outdeg[v] == 0:
                    roles.add("output")
                if v in tips:
                    roles.add("tip")
                if v in handles:
                    roles.add("handle")
                if not roles:
                    roles.add("ordinary")
            out[v] = frozenset(roles)
        return out


def fork_surgery(g):
    """Insert a fork at every vertex of the `SiteGraph` ``g`` with two or
    more in-edges.

    One pass builds each vertex's senders (the sources of its in-edges, in
    edge order); the joins are the vertices with two or more.  Each input
    that feeds a join gets one primed tip, in vertex order, which takes over
    its edges into joins.  A join's tips are its senders that are not
    inputs, in edge order, then the tips of its inputs, in vertex order.
    Names are minted tips first, then a star and a tang per join, each
    primed until it is new.
    """
    senders = {v: [] for v in g.vertices}
    for s, d in g.edges:
        senders[d].append(s)
    vertices, taken = list(g.vertices), set(g.vertices)

    def mint(name):
        while name in taken:
            name += "'"
        taken.add(name)
        vertices.append(name)
        return name

    tips = {a: [] for a in g.vertices if len(senders[a]) >= 2}
    fed = {}                            # input -> the joins it feeds
    for a, ts in tips.items():
        for s in senders[a]:
            if senders[s]:
                ts.append(s)
            else:
                fed.setdefault(s, []).append(a)
    arrows = [(s, d) for s, d in g.edges if d not in tips]
    for u in g.vertices:
        if u in fed:
            tip = mint(u + "'")
            arrows.append((u, tip))
            for a in fed[u]:
                tips[a].append(tip)
    forks = []
    for a, ts in tips.items():
        star, tang = mint(a + "*"), mint(a + "^")
        arrows += [(t, star) for t in ts] + [(star, tang), (tang, a)]
        forks.append(Fork(star, tang, a, tuple(ts)))
    return ForkGraph(tuple(vertices), tuple(arrows), tuple(forks), g)


# ---------------------------------------------------------------------------
# FinitePoset
# ---------------------------------------------------------------------------

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask):
    """The binary digits of a mask (a Python or numpy integer), least
    significant first, as 0/1 bytes: the selectors of `itertools.compress`,
    which stops at the shorter of its two arguments."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


class FinitePoset:
    """A finite poset with O(1) order queries via cached down-set bit masks.

    ``__init__`` peels the digraph of the given relations into Kahn's levels
    (minimal elements first) once.  That one pass finds a cycle if there is
    one, and orders the closure: one pass over the reversed levels closes
    the up-sets, one pass over the levels builds the down-sets, and the
    flattened levels are `linear_extension()`, and the given relations are
    kept for `covering()`.  Relations with a cycle
    (other than reflexive pairs) raise `PosetError`, naming the elements
    of one cycle of the given relations in order.

    A poset does not change after ``__init__``, so it also keeps what is
    derived from its order, each computed on first use and held immutable:
    its open masks (one read-only numpy array, handed out by `open_masks`,
    which checks the caller's enumeration bound on every call), `covering()`
    (a tuple of pairs), `lower_covers()` (a read-only mapping to tuples),
    the masks of its non-minimal elements (for the openness test of
    `heyting.mask_of_open`) and of its non-maximal ones (for
    `heyting.implies_mask`) and, for the batched form, its up-closure tables
    per byte of a mask, in its `mask_dtype`.

    A subset of the elements is a mask with bit i for ``elements[i]``:
    `mask_of` encodes it (a repeated element sets its bit once) and `set_of`
    decodes a mask, through its binary digits (`_bits`), which is also how
    `seminfo` reads the states of a mask.
    """

    def __init__(self, elements, relations, fork_graph=None):
        """``relations`` is an iterable of pairs (x, y) meaning x <= y, with
        repeats and reflexive pairs allowed; the reflexive-transitive closure
        is taken and antisymmetry verified."""
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise PosetError("duplicate elements")
        self._bit = {x: 1 << i for x, i in self.index.items()}
        preds = [[] for _ in self.elements]     # preds[j]: i for each x_i <= x_j given
        for x, y in relations:
            if x not in self.index or y not in self.index:
                raise PosetError(f"relation ({x!r}, {y!r}) references unknown element")
            i, j = self.index[x], self.index[y]
            if i != j:
                preds[j].append(i)
        levels, cycle = _kahn_levels(preds)
        if cycle:
            raise PosetError("antisymmetry violation: " +
                             " <= ".join(repr(self.elements[i]) for i in cycle))
        order = [i for level in levels for i in level]
        n = len(self.elements)
        self._up = [1 << i for i in range(n)]       # _up[i] bit j set <=> x_i <= x_j
        for j in reversed(order):
            for i in preds[j]:
                self._up[i] |= self._up[j]
        self._down = [1 << i for i in range(n)]
        for j in order:
            for i in preds[j]:
                self._down[j] |= self._down[i]
        self._preds = preds
        self._linear_extension = tuple(self.elements[i] for i in order)
        self.fork_graph = fork_graph

    # -- order queries ------------------------------------------------------

    def leq(self, x, y):
        return (self._up[self.index[x]] >> self.index[y]) & 1 == 1

    def down_mask(self, x):
        return self._down[self.index[x]]

    def mask_of(self, subset):
        bit = self._bit
        m = 0
        for x in subset:
            m |= bit[x]
        return m

    def set_of(self, mask):
        """The frozenset of the elements whose bits are set in ``mask``, a
        Python or numpy integer; bits past the last element are ignored."""
        return frozenset(compress(self.elements, _bits(mask)))

    def minimal(self):
        return tuple(x for i, x in enumerate(self.elements) if self._down[i] == (1 << i))

    def maximal(self):
        return tuple(x for i, x in enumerate(self.elements) if self._up[i] == (1 << i))

    @cached_property
    def _nonminimal(self):
        """The mask of the elements that are not minimal."""
        return sum(1 << i for i, down in enumerate(self._down) if down != 1 << i)

    @cached_property
    def _nonmaximal(self):
        """The mask of the elements that are not maximal."""
        return sum(1 << i for i, up in enumerate(self._up) if up != 1 << i)

    def covering(self):
        """Transitive reduction as a tuple of (lower, upper) pairs, sorted by
        the elements' indices; found among the given relations."""
        return self._covering

    @cached_property
    def _covering(self):
        # x < y covers only if it is given: else the given relations lead
        # from x to y through an element strictly between
        pairs = sorted({(i, j) for j, ps in enumerate(self._preds) for i in ps
                        if self._up[i] & self._down[j] == (1 << i) | (1 << j)})
        return tuple((self.elements[i], self.elements[j]) for i, j in pairs)

    def lower_covers(self):
        """Each element's lower covers as a tuple, in element order, in a
        read-only mapping."""
        return self._lower_covers

    @cached_property
    def _lower_covers(self):
        covers = {y: [] for y in self.elements}
        for x, y in self.covering():
            covers[y].append(x)
        return MappingProxyType({y: tuple(xs) for y, xs in covers.items()})

    def extend_covering(self, data, check, identity, compose, error, noun, clash):
        """Check ``data``, keyed by exactly the covering pairs, and extend it
        to every x <= y.  A missing pair (named as a ``noun``) or an extra
        one raises ``error``; ``check(pair, datum)`` validates one entry and
        returns what is kept of it.  The composite for x <= y is
        ``compose(lower, step)`` for ``step`` kept on a cover z < y and
        ``lower`` the composite for x <= z (``identity(x)`` when x = z); it
        must not depend on z, else ``error(clash.format(x=x, y=y))``.
        Returns the kept data and the composites, keyed by (x, y)."""
        covering = self.covering()
        for pair in covering:
            if pair not in data:
                raise error(f"missing {noun} for covering pair {pair!r}")
        known = set(covering)
        kept = {}
        for pair, datum in data.items():
            if pair not in known:
                raise error(f"{pair!r} is not a covering pair")
            kept[pair] = check(pair, datum)
        covers = self.lower_covers()
        full = {(x, x): identity(x) for x in self.elements}
        for y in self.linear_extension():
            j = self.index[y]
            steps = [(z, self._down[self.index[z]], kept[(z, y)]) for z in covers[y]]
            below = self._down[j] & ~(1 << j)
            while below:
                i = (below & -below).bit_length() - 1
                below &= below - 1
                x = self.elements[i]
                composite = None
                for z, down, step in steps:
                    if (down >> i) & 1:
                        path = compose(full[(x, z)], step)
                        if composite is None:
                            composite = path
                        elif path != composite:
                            raise error(clash.format(x=x, y=y))
                full[(x, y)] = composite
        return kept, full

    def linear_extension(self):
        """Elements ordered so that smaller elements come first: by level,
        ties by position in ``elements`` (elements are never compared with
        each other)."""
        return self._linear_extension

    @cached_property
    def _open_masks(self):
        """Every open as a bit mask, smallest first (see `open_masks`).
        Along the linear extension, each element x extends every open built
        so far that holds x's strict down-set."""
        dtype = self.mask_dtype if len(self.elements) <= 64 else np.dtype(object)
        opens = np.zeros(1, dtype)
        for x in self.linear_extension():
            i = self.index[x]
            bit = 1 << i
            need = self._down[i] ^ bit
            opens = np.concatenate((opens, opens[(opens & need) == need] | bit))
        opens.sort()
        opens.flags.writeable = False
        return opens

    @property
    def mask_dtype(self):
        """The numpy dtype of this poset's mask arrays: uint32 up to 32
        elements, uint64 up to 64; a larger poset raises PosetError."""
        n = len(self.elements)
        if n > 64:
            raise PosetError(f"{n} elements: mask arrays hold at most 64")
        return np.dtype(np.uint32 if n <= 32 else np.uint64)

    @cached_property
    def _up_byte_tables(self):
        """A (bytes, 256) array of `mask_dtype`: entry b of row k is the union
        of the up-sets of the elements 8k + j over the bits j of b, so the
        up-closure of a mask is the union of its bytes' entries.  Built with
        numpy on first use; masks (and so the poset) fit in 64 bits."""
        dtype = self.mask_dtype
        up = np.array(self._up + [0] * (-len(self._up) % 8), dtype=dtype).reshape(-1, 8)
        bits = (np.arange(256, dtype=dtype)[:, None] >> np.arange(8, dtype=dtype)) & 1
        return np.bitwise_or.reduce(bits * up[:, None, :], axis=2)

    def as_dict(self):
        leq = [[x, y] for x in self.elements for y in self.elements if x != y and self.leq(x, y)]
        return {"elements": list(self.elements), "leq": sorted(leq)}

    @staticmethod
    def from_dict(doc):
        return FinitePoset(doc["elements"], [tuple(p) for p in doc.get("leq", [])])

    @staticmethod
    def chain(n):
        """The total order 0 <= 1 <= ... <= n."""
        return FinitePoset(range(n + 1), [(i, i + 1) for i in range(n)])


def site_relations(fg):
    """Site-orientation relations x <= y on the non-star vertices.

    Every arrow that does not touch a star is reversed (receiver <= sender,
    handle <= tang), so outputs end up minimal; each fork adds
    tip <= tang in place of its arrows through the star.
    """
    stars = set(fg.stars())
    rel = [(d, s) for s, d in fg.arrows if s not in stars and d not in stars]
    rel += [(t, f.tang) for f in fg.forks for t in f.tips]
    return rel


def build_poset(fg):
    """The canonical poset on the non-star vertices of a fork graph."""
    stars = set(fg.stars())
    elements = [v for v in fg.vertices if v not in stars]
    try:
        return FinitePoset(elements, site_relations(fg), fork_graph=fg)
    except PosetError as exc:
        raise PosetError(f"hidden oriented cycle in the architecture: {exc}") from exc


# ---------------------------------------------------------------------------
# Vertex classification
# ---------------------------------------------------------------------------

_PRIMARY_ORDER = ("tang", "input", "output", "handle", "tip", "ordinary")


@dataclass(frozen=True)
class Classification:
    primary: dict
    roles: dict
    minimal_ok: bool
    maximal_ok: bool
    forest_ok: bool

    @property
    def ok(self):
        return self.minimal_ok and self.maximal_ok and self.forest_ok

    def as_dict(self):
        return {
            "tags": dict(sorted(self.primary.items())),
            "roles": {k: sorted(v) for k, v in sorted(self.roles.items())},
            "minimal_ok": self.minimal_ok,
            "maximal_ok": self.maximal_ok,
            "forest_ok": self.forest_ok,
        }


def classify_vertices(poset):
    """Tag every poset element and check the structural theorem:

    minimal elements are outputs or tips, maximal ones inputs or tangs, and
    deleting tangs (and stars) from the surgered graph leaves a forest.
    Each of the three is reported as a flag of the `Classification`, false
    where it fails, and ``ok`` is their conjunction; a failed one does not
    raise.
    """
    fg = poset.fork_graph
    if fg is None:
        raise PosetError("classification needs a poset built from a fork graph")
    role_sets = fg.role_sets()
    primary = {}
    for v in poset.elements:
        roles = role_sets[v]
        for tag in _PRIMARY_ORDER:
            if tag in roles:
                primary[v] = tag
                break
    minimal_ok = all(role_sets[v] & {"output", "tip"} for v in poset.minimal())
    maximal_ok = all(role_sets[v] & {"input", "tang"} for v in poset.maximal())
    removed = set(fg.stars()) | set(fg.tangs())
    kept = [v for v in fg.vertices if v not in removed]
    kept_edges = [(s, d) for s, d in fg.arrows if s not in removed and d not in removed]
    forest_ok = _is_forest(kept, kept_edges)
    return Classification(primary, role_sets, minimal_ok, maximal_ok, forest_ok)


def _is_forest(vertices, edges):
    uf = UnionFind(vertices)
    return all(uf.union(s, d) for s, d in edges)


# ---------------------------------------------------------------------------
# Alexandrov opens
# ---------------------------------------------------------------------------

def open_masks(poset, bound=None):
    """All downward-closed subsets as bit masks, smallest mask first, in one
    read-only numpy array: of the poset's `mask_dtype` up to 64 elements,
    of Python ints (dtype ``object``) above that.  The enumeration bound
    (``bound`` elements, else `DEFAULT_ENUM_BOUND`) is checked on every
    call; the poset enumerates its opens on the first call that passes it
    and returns the same array after that."""
    n = len(poset.elements)
    limit = DEFAULT_ENUM_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceeded(f"{n} elements exceeds enumeration bound {limit}")
    return poset._open_masks


def lower_open_sets(poset, bound=None):
    """The lower Alexandrov topology: every downward-closed subset."""
    return [poset.set_of(m) for m in open_masks(poset, bound).tolist()]


def basis(poset, x):
    """U_x = {y : y <= x}; unbounded, works for any poset size."""
    return poset.set_of(poset.down_mask(x))


# ---------------------------------------------------------------------------
# Loop rank
# ---------------------------------------------------------------------------

def loop_rank(g):
    """First Betti number |E| - |V| + #components of the underlying
    undirected graph of the `SiteGraph` ``g``."""
    uf = UnionFind(g.vertices)
    # |V| - #components is the number of edges that merge two components
    return len(g.edges) - sum(uf.union(s, d) for s, d in g.edges)


def site_report(g):
    """The full JSON-able analysis of one architecture."""
    fg = fork_surgery(g)
    poset = build_poset(fg)
    cls = classify_vertices(poset)
    return {
        "poset": poset.as_dict(),
        "classification": cls.as_dict(),
        "loop_rank": loop_rank(g),
        "tangs": sorted(fg.tangs()),
        "minimal": sorted(poset.minimal()),
        "maximal": sorted(poset.maximal()),
    }
