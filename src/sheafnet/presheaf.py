"""Finite-set-valued presheaves over finite posets.

A presheaf assigns a finite carrier to every poset element and a
restriction map F(y) -> F(x) to every covering pair x < y; composites along
order paths must agree (built and checked at construction by
`FinitePoset.extend_covering`, as for groupoid stacks).  Inside, a state is
its index in its carrier and a restriction is one tuple of indices; the
states themselves are labels, read only by `restrict` and in the sections
handed out.  Global sections (the limit H0) are listed exactly by
`sections`, one join over the maximal elements, so the work follows the
partial sections joined, not the product of the carriers.
`sheafify_at_forks` extends a presheaf on the star-free poset to the full
fork site, putting the product of the tip carriers on each star.  A cat's
manifold is the preimage of an output predicate along the projection H0 ->
prod F(outputs): `cats_manifold` keeps the sections whose output states
are accepted.  The paper's construction, sections of the site extended by
a terminal fork, is the reference the tests check it against.

A subobject (a stable family of subsets) is an open of the poset of
elements `elements_poset(F)`, so subobjects are computed with the one
Heyting calculus of `heyting` and checked against its one supremum oracle.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from .arch_site import FinitePoset, build_poset, site_relations
from .errors import BoundExceeded, PresheafError

DEFAULT_SECTION_BOUND = 10**6


class Presheaf:
    def __init__(self, poset, carriers, maps):
        """``carriers``: element -> iterable of states (the labels).  ``maps``:
        for every covering pair (x, y) with x < y a dict sending each state
        of F(y) to a state of F(x).  Kept: ``index[x]``, each state's index
        in F(x), and for every x <= y the tuple ``index_maps[(x, y)]``, whose
        entry j is the index in F(x) of the image of state j of F(y)."""
        self.poset = poset
        self.carriers = {x: tuple(carriers[x]) for x in poset.elements}
        self.index = {x: {s: k for k, s in enumerate(c)} for x, c in self.carriers.items()}
        for x, states in self.carriers.items():
            if len(self.index[x]) != len(states):
                raise PresheafError(f"carrier at {x!r} has repeated states")
        _, self.index_maps = poset.extend_covering(
            maps, self._checked_map,
            identity=lambda x: tuple(range(len(self.carriers[x]))),
            compose=lambda lower, step: tuple(map(lower.__getitem__, step)),
            error=PresheafError, noun="restriction map",
            clash="functoriality failure between {x!r} and {y!r}: "
                  "two order paths compose to different maps")

    def _checked_map(self, pair, m):
        """The index tuple of the map of a covering pair x < y."""
        x, y = pair
        m = dict(m)
        missing = self.index[y].keys() - m.keys()
        if missing:
            raise PresheafError(f"map {pair!r} undefined on {sorted(map(str, missing))}")
        lower = self.index[x]
        if not lower.keys() >= set(m.values()):
            raise PresheafError(f"map {pair!r} lands outside F({x!r})")
        return tuple([lower[m[s]] for s in self.carriers[y]])

    def restrict(self, x, y, state):
        """Image of ``state`` in F(x) along x <= y, decoded to its label."""
        return self.carriers[x][self.index_maps[(x, y)][self.index[y][state]]]


@dataclass(frozen=True)
class SectionSet:
    elements: tuple
    tuples: tuple

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)


def sections(presheaf, bound=None):
    """Exact enumeration of the limit over the poset: one join over the
    maximal elements on state indices, each one's states bucketed by
    their restrictions to the elements that earlier ones assigned.
    ``bound`` (else `DEFAULT_SECTION_BOUND`) counts the joined
    candidates (a partial row and a state of its bucket); BoundExceeded
    is raised once there are more.  Each row is decoded once, into a
    dict in assignment order, sorted by `str`."""
    bound = DEFAULT_SECTION_BOUND if bound is None else bound
    poset, rows, slot, joined = presheaf.poset, [()], {}, 0
    for m in poset.maximal():
        down = poset.down_mask(m)
        below = [x for i, x in enumerate(poset.elements) if down >> i & 1]
        shared = [x for x in below if x in slot]
        fresh = [x for x in below if x not in slot]      # holds m: zip runs over F(m)
        buckets, cut = {}, len(shared)
        for image in zip(*[presheaf.index_maps[(x, m)] for x in shared + fresh]):
            buckets.setdefault(image[:cut], []).append(image[cut:])
        shared_at = [slot[x] for x in shared]
        extended = []
        for row in rows:
            bucket = buckets.get(tuple([row[p] for p in shared_at]), ())
            joined += len(bucket)
            if joined > bound:
                raise BoundExceeded(
                    f"section search explored more than {bound} candidates")
            extended += [row + new for new in bucket]
        rows = extended
        slot.update({x: len(slot) + j for j, x in enumerate(fresh)})
    labels = [presheaf.carriers[x] for x in slot]
    decoded = [dict(zip(slot, map(tuple.__getitem__, labels, row))) for row in rows]
    decoded.sort(key=lambda s: tuple([str(s[x]) for x in poset.elements]))
    return SectionSet(tuple(poset.elements), tuple(decoded))


def elements_poset(presheaf):
    """The poset of elements of F: the pairs (x, s) with s in F(x), where
    (y, r) <= (x, s) iff y <= x and r = s|y.  Its opens are exactly the
    subobjects of F.  Elements are listed poset element by poset element,
    each one's states in carrier order."""
    poset, carriers = presheaf.poset, presheaf.carriers
    elements = [(x, s) for x in poset.elements for s in carriers[x]]
    relations = [((y, carriers[y][k]), (x, s)) for y, x in poset.covering()
                 for s, k in zip(carriers[x], presheaf.index_maps[(y, x)])]
    return FinitePoset(elements, relations)


# ---------------------------------------------------------------------------
# Fork-site machinery
# ---------------------------------------------------------------------------

def star_site_poset(fg):
    """The poset on all fork-graph vertices, stars included: the site
    relations plus tip <= star <= tang at each fork."""
    rel = site_relations(fg)
    for f in fg.forks:
        rel += [(t, f.star) for t in f.tips] + [(f.star, f.tang)]
    return FinitePoset(fg.vertices, rel, fork_graph=fg)


def sheafify_at_forks(presheaf, fg):
    """Extend a presheaf on the star-free poset to the full fork site.

    The star value is the product of the tip values; the tang-to-star map
    is the product of the tang-to-tip restrictions; everything else is
    untouched.  A constant presheaf picks up the diagonal map at each fork.
    """
    base = presheaf.poset
    star_of = {f.star: f for f in fg.forks}
    if set(base.elements) != set(fg.vertices) - star_of.keys():
        raise PresheafError("presheaf poset does not match the fork graph")
    big = star_site_poset(fg)
    carriers = dict(presheaf.carriers)
    for star, f in star_of.items():
        carriers[star] = tuple(iproduct(*(presheaf.carriers[t] for t in f.tips)))

    def images(x, y):                                # of F(y)'s states in F(x)
        return [carriers[x][k] for k in presheaf.index_maps[(x, y)]]

    maps = {}
    # by covering pairs: a tip below another tip of its fork is not covered by the star
    for x, y in big.covering():
        if x in star_of:                             # star < tang: the product map
            tips = star_of[x].tips
            maps[(x, y)] = dict(zip(carriers[y], zip(*(images(t, y) for t in tips))))
        elif y in star_of:                           # tip < star: the projection
            pos = star_of[y].tips.index(x)
            maps[(x, y)] = {tup: tup[pos] for tup in carriers[y]}
        else:
            maps[(x, y)] = dict(zip(carriers[y], images(x, y)))
    return Presheaf(big, carriers, maps)


def standard_feedforward_presheaf(fg, carriers, edge_maps, handle_maps):
    """The sheaf of a functioning network: product carriers on the tangs,
    projections to the tips, supplied dynamics everywhere else.

    ``carriers``: states per non-star, non-tang vertex.  ``edge_maps``: per
    ordinary data-flow edge (u, v) a dict F(u) -> F(v).  ``handle_maps``:
    per tang a dict from tip-state tuples (in ``fg.tips_of`` order) to
    handle states.  Tips minted by input duplication (the vertices that
    surgery added) inherit the input's carrier with the identity map when
    left unspecified.  Any other vertex without a carrier, and any missing
    edge map, handle map or state of one, raises PresheafError.
    """
    poset = build_poset(fg)
    tangs = set(fg.tangs())
    architecture = set(fg.origin.vertices)
    carriers = dict(carriers)
    edge_maps = dict(edge_maps)
    for v in poset.elements:
        if v in tangs or v in carriers:
            continue
        if v in architecture:
            raise PresheafError(f"no carrier for vertex {v!r}")
        (u,) = fg.predecessors(v)                    # the duplicated input
        carriers[v] = tuple(carriers[u])
        edge_maps.setdefault((u, v), {s: s for s in carriers[v]})
    full = {}
    for v in poset.elements:
        if v in tangs:
            full[v] = tuple(iproduct(*(carriers[t] for t in fg.tips_of(v))))
        else:
            full[v] = tuple(carriers[v])
    maps = {}
    for x, y in poset.covering():
        if y in tangs:
            tips = fg.tips_of(y)
            if x in tips:
                pos = tips.index(x)
                maps[(x, y)] = {tup: tup[pos] for tup in full[y]}
            else:                                    # x is the handle
                maps[(x, y)] = _supplied(handle_maps, y, "handle map for tang")
        else:                                        # data-flow edge y -> x
            maps[(x, y)] = _supplied(edge_maps, (y, x), "edge map for")
    return Presheaf(poset, full, maps)


def _supplied(table, key, what):
    if key not in table:
        raise PresheafError(f"no {what} {key!r}")
    return table[key]


# ---------------------------------------------------------------------------
# Cat's manifolds
# ---------------------------------------------------------------------------

def _output_elements(presheaf):
    fg = presheaf.poset.fork_graph
    if fg is not None:
        roles = fg.role_sets()
        outs = [v for v in presheaf.poset.elements if "output" in roles.get(v, ())]
        if outs:
            return outs
    return list(presheaf.poset.minimal())


def cats_manifold(presheaf, out_predicate, bound=None):
    """Sections whose output components satisfy a predicate.

    ``out_predicate`` maps output elements to the accepted subset of their
    carrier; omitted outputs accept everything.  The result is the preimage
    of the accepted output tuples along the projection of
    ``sections(presheaf, bound)`` onto the outputs, which the paper builds
    as the sections of the site extended by a terminal fork.
    """
    outputs = _output_elements(presheaf)
    for el in out_predicate:
        if el not in outputs:
            raise PresheafError(f"predicate on non-output element {el!r}")
    accepted = [frozenset(out_predicate.get(el, presheaf.carriers[el])) for el in outputs]
    for el, acc in zip(outputs, accepted):
        bad = acc - set(presheaf.carriers[el])
        if bad:
            raise PresheafError(f"predicate states {sorted(map(str, bad))} not in F({el!r})")
    secs = sections(presheaf, bound)
    kept = tuple(s for s in secs if all(s[el] in acc for el, acc in zip(outputs, accepted)))
    return SectionSet(secs.elements, kept)
