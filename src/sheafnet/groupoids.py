"""Finite groupoids, gluing functors, and two-way logic transport.

Up to isomorphism a finite groupoid is its components with one vertex group
each (Brown, *Topology and Groupoids*, ch. 6), and `FiniteGroupoid` is
stored so.  A component's base is its `str`-least object b, and its vertex
group is a permutation group closed by `_close_group`.  A morphism x -> y
is a triple (x, y, g) with g in that group, standing for t_y g t_x^-1,
where t_x = (b, x, e) is the arrow from the base.  Composition is the
group's multiplication: (y, z, h) after (x, y, g) is (x, z, g then h).  So
the groupoid laws hold by construction and no composition table is kept.
A functor is its object map, the images of the arrows t_x and one
homomorphism per source vertex group.

The subobject classifier of a finite groupoid (at the level of subobjects
of the terminal object) is the Boolean algebra of subsets of its set of
connected components.  A functor F: G' -> G moves component sets by one
image/preimage pair of bit masks along its map pi0(G') -> pi0(G): forward
by image (`lambda_transport`), backward by preimage (`tau_transport`).  The
two are adjoint, the backward transport is a section of the forward one
exactly when F is surjective on components, and both checks run
exhaustively.  Transport on general subobject algebras Omega^X is out of
scope; the component level is finitely checkable.

A `StackOverPoset` is closed like a presheaf, by `FinitePoset.extend_covering`.
`check_fibrant_injective` tests diagrams of sets or of groupoids over a
network poset for fibrancy in the injective sense, in one walk over the
lower covers with one test per kind of diagram: the pairing of the
restrictions into the product of the lower covers' fibers must be
surjective, resp. a multi-fibration.  Along a single covering arrow this
is surjectivity, resp. the isofibration condition.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundExceeded, GroupoidError
from .presheaf import Presheaf

DEFAULT_GROUP_BOUND = 10_000
DEFAULT_COMPONENT_BOUND = 8


# ---------------------------------------------------------------------------
# Vertex groups
# ---------------------------------------------------------------------------

# Most bytes of generator products that `_close_group` holds at once: one
# (rows, generators, states) buffer, allocated once per closure and refilled
# for each chunk of rows.  Chunks are taken in order, so the elements, their
# order and the point where the bound is passed do not depend on the size.
_CLOSE_CHUNK_BYTES = 1 << 20


def _close_group(n, gens, bound):
    """The group generated by the index arrays ``gens`` over range(n), of
    the smallest unsigned dtype that holds n - 1 (``gens`` possibly empty),
    as an (order, n) matrix of index arrays: row 0 is the identity ``e``, then the
    elements ``g1``, ``g2``, ... in breadth-first order, multiplying each
    found element by every generator in turn.  The product "p, then q" is
    ``q[p]``, and a new element is one hash lookup of its bytes.  Every
    element counts against ``bound``, the identity too.

    The found elements, in order, are the breadth-first queue, which starts
    as the identity alone.  They are multiplied out a chunk of rows at a
    time, each chunk into the same buffer of `_CLOSE_CHUNK_BYTES`, so the
    working memory is the found elements plus one chunk, never a whole
    layer times the generators, until the found elements are joined into
    the returned matrix."""
    ident = np.arange(n, dtype=np.min_scalar_type(n - 1))
    width = ident.nbytes
    rows = max(1, _CLOSE_CHUNK_BYTES // (width * max(1, len(gens))))
    buffer = np.empty((rows, len(gens), len(ident)), dtype=ident.dtype)
    order, found, done = [], set(), 0
    raw = ident.tobytes()
    while raw:
        for at in range(0, len(raw), width):
            key = raw[at:at + width]
            if key not in found:
                found.add(key)
                order.append(key)
                if len(found) > bound:
                    raise BoundExceeded(f"group closure exceeds bound {bound}")
        chunk = np.frombuffer(b"".join(order[done:done + rows]), dtype=ident.dtype)
        chunk = chunk.reshape(-1, len(ident))
        done += len(chunk)
        # row r * len(gens) + j of the products is chunk row r times generator j
        products = buffer[:len(chunk)]
        for j, q in enumerate(gens):
            np.take(q, chunk, out=products[:, j])
        raw = products.tobytes()
    return np.frombuffer(b"".join(order), dtype=ident.dtype).reshape(len(order), len(ident))


def _then(g, h):
    """The permutation tuple "g, then h"."""
    return tuple([h[i] for i in g])


def _inverse(g):
    """The inverse of the permutation tuple ``g``."""
    return tuple(sorted(range(len(g)), key=g.__getitem__))


def _unit(group):
    """The identity of a group of permutation tuples."""
    return tuple(range(len(next(iter(group)))))


def _vertex_group(generators):
    """The group of permutation tuples closed from ``generators``, all over
    one range(n); with none, the trivial group {()}."""
    if not generators:
        return frozenset({()})
    n = len(generators[0])
    if any(sorted(g) != list(range(n)) for g in generators):
        raise GroupoidError(f"vertex group generators must permute one range(n): {generators}")
    gens = [np.array(g, dtype=np.min_scalar_type(n - 1)) for g in generators]
    return frozenset(map(tuple, _close_group(n, gens, DEFAULT_GROUP_BOUND).tolist()))


# ---------------------------------------------------------------------------
# FiniteGroupoid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupoid:
    """``parts``: the components, each sorted by `str` so that its base
    comes first, in order of their bases' `str`.  ``groups``: the vertex
    group at each base, a frozenset of permutation tuples."""
    parts: tuple
    groups: tuple

    @staticmethod
    def of(parts):
        """The groupoid with one component per (objects, generators) pair,
        its vertex group generated by ``generators`` (`_vertex_group`)."""
        parts = [(tuple(sorted(objs, key=str)), tuple(gens)) for objs, gens in parts]
        objects = [o for objs, _ in parts for o in objs]
        if not all(objs for objs, _ in parts) or len(set(objects)) != len(objects):
            raise GroupoidError("components must be non-empty and disjoint")
        parts.sort(key=lambda part: str(part[0][0]))
        return FiniteGroupoid(tuple(objs for objs, _ in parts),
                              tuple(_vertex_group(gens) for _, gens in parts))

    @cached_property
    def objects(self):
        return tuple(o for part in self.parts for o in part)

    @cached_property
    def component_of(self):
        """Each object's component index."""
        return {o: i for i, part in enumerate(self.parts) for o in part}


def discrete_groupoid(objects):
    return FiniteGroupoid.of(((o,), ()) for o in objects)


# ---------------------------------------------------------------------------
# Functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupoidFunctor:
    """F: source -> target.  ``arrows[x]`` is the group element of F(t_x) =
    (F b, F x, arrows[x]), and ``homs[b]`` maps the vertex group at the base
    b into the one at the base of F(b)'s component.  Equal data, equal
    functors."""
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: dict
    arrows: dict
    homs: dict

    @staticmethod
    def of(source, target, object_map, arrows, homs):
        f = GroupoidFunctor(source, target, dict(object_map), dict(arrows), dict(homs))
        f.validate()
        return f

    @staticmethod
    def of_object_map(source, target, object_map):
        """The functor sending each object ``o`` to ``object_map[o]``,
        between groupoids whose vertex groups are all trivial: every arrow
        image is (), and each homomorphism sends () to ().  A non-trivial
        vertex group on either side fails `validate`."""
        return GroupoidFunctor.of(source, target, object_map,
                                  dict.fromkeys(source.objects, ()),
                                  {part[0]: {(): ()} for part in source.parts})

    def validate(self):
        """Each source component lands in one target component, with arrows
        in its vertex group, t_b sent to the identity, and a homomorphism
        on each vertex group: O(objects + |V|^2)."""
        om, index = self.object_map, self.target.component_of
        for part, group in zip(self.source.parts, self.source.groups):
            b = part[0]
            j = index.get(om.get(b))
            for x in part:
                if om.get(x) not in index:
                    raise GroupoidError(f"object map undefined or foreign at {x!r}")
                if index[om[x]] != j:
                    raise GroupoidError(f"object map splits the component of {b!r}: "
                                        f"{om[b]!r} and {om[x]!r} are not connected")
                if self.arrows.get(x) not in self.target.groups[j]:
                    raise GroupoidError(f"arrow image undefined or foreign at {x!r}")
            hom = self.homs.get(b)
            if self.arrows[b] != _unit(self.target.groups[j]) or not isinstance(hom, dict) \
                    or hom.keys() != group or not self.target.groups[j].issuperset(hom.values()):
                raise GroupoidError(f"functor breaks identity or is undefined at {b!r}")
            if any(hom[_then(g, h)] != _then(hom[g], hom[h]) for g in group for h in group):
                raise GroupoidError(f"functor breaks composition at {b!r}")
        return self

    def __call__(self, x, y, g):
        """The image of the morphism (x, y, g)."""
        b = self.source.parts[self.source.component_of[x]][0]
        return (self.object_map[x], self.object_map[y],
                _then(_then(_inverse(self.arrows[x]), self.homs[b][g]), self.arrows[y]))

    def then(self, other):
        """The functor ``other`` after this one."""
        om = self.object_map
        return GroupoidFunctor(
            self.source, other.target, {x: other.object_map[om[x]] for x in om},
            {x: other(om[part[0]], om[x], self.arrows[x])[2]
             for part in self.source.parts for x in part},
            {b: {g: other(om[b], om[b], h)[2] for g, h in hom.items()}
             for b, hom in self.homs.items()})

    @cached_property
    def pi0(self):
        """The map on components, as the index of each source component's image."""
        return tuple(self.target.component_of[self.object_map[part[0]]]
                     for part in self.source.parts)


def identity_functor(g):
    pairs = list(zip(g.parts, g.groups))
    return GroupoidFunctor(g, g, {o: o for o in g.objects},
                           {o: _unit(group) for part, group in pairs for o in part},
                           {part[0]: {h: h for h in group} for part, group in pairs})


# ---------------------------------------------------------------------------
# Logic transport on component algebras
# ---------------------------------------------------------------------------

def _image(m, mask):
    """Image of the subset ``mask`` of range(len(m)) under i -> m[i], as a mask."""
    return sum(1 << j for j in {j for i, j in enumerate(m) if mask >> i & 1})


def _preimage(m, mask):
    """Preimage of the subset ``mask`` under i -> m[i], as a mask."""
    return sum(1 << i for i, j in enumerate(m) if mask >> j & 1)


def _members(components, mask):
    return tuple(c for i, c in enumerate(components) if mask >> i & 1)


def _transport(move, functor, domain, codomain, comps, name):
    """The components of ``codomain`` that ``move`` sends ``comps`` to."""
    bit = {c: 1 << i for i, c in enumerate(domain.parts)}
    comps = frozenset(comps)
    if not comps <= bit.keys():
        raise GroupoidError(f"unknown component in {name}")
    mask = move(functor.pi0, sum(bit[c] for c in comps))
    return frozenset(_members(codomain.parts, mask))


def lambda_transport(functor, comps):
    """Feed-forward transport: the image of a component set."""
    return _transport(_image, functor, functor.source, functor.target, comps, "lambda_transport")


def tau_transport(functor, comps):
    """Feedback transport: the saturated preimage of a component set."""
    return _transport(_preimage, functor, functor.target, functor.source, comps, "tau_transport")


@dataclass(frozen=True)
class AdjunctionReport:
    adjunction_ok: bool
    unit_ok: bool
    surjective_on_components: bool
    section_ok: bool            # lambda o tau = Id on the target algebra
    failures: tuple = ()

    @property
    def ok(self):
        return self.adjunction_ok and self.unit_ok and \
            (self.section_ok or not self.surjective_on_components)


def check_adjunction_and_section(functor, bound=None):
    """Exhaustively verify lambda -| tau, the unit, and whether the forward
    transport retracts the backward one (it must iff the functor is
    surjective on components), over all bit masks of components: at most
    ``bound`` (else `DEFAULT_COMPONENT_BOUND`) on each side.  The first
    eight failures are kept, with components in ``parts`` order."""
    bound = DEFAULT_COMPONENT_BOUND if bound is None else bound
    src_comps = functor.source.parts
    dst_comps = functor.target.parts
    if len(src_comps) > bound or len(dst_comps) > bound:
        raise BoundExceeded("too many components for the exhaustive check")
    m = functor.pi0
    lam = [_image(m, p) for p in range(1 << len(src_comps))]
    tau = [_preimage(m, q) for q in range(1 << len(dst_comps))]
    failures = []
    adj = unit = True
    for p, lp in enumerate(lam):
        if p & ~tau[lp]:
            unit = False
            failures.append(("unit", _members(src_comps, p)))
        for q, tq in enumerate(tau):
            if (lp & ~q == 0) != (p & ~tq == 0):
                adj = False
                failures.append(("adjunction", _members(src_comps, p),
                                 _members(dst_comps, q)))
    surjective = lam[-1] == len(tau) - 1      # the image of every component is all of them
    section = True
    for q, tq in enumerate(tau):
        if lam[tq] != q:
            section = False
            failures.append(("section", _members(dst_comps, q)))
    return AdjunctionReport(adj, unit, surjective, section, tuple(failures[:8]))


# ---------------------------------------------------------------------------
# Fibrations
# ---------------------------------------------------------------------------

def is_multifibration(functors):
    """A family of functors F_i with common source G is a multi-fibration
    when its pairing G -> prod_i target(F_i) is a fibration: at every object
    x, the tuples (F_i(m))_i over the morphisms m out of x are all the
    tuples (phi_i)_i of target morphisms out of F_i(x).  They always lie
    among them, so counting the distinct ones suffices, and only at each
    component's base b: composing with F_i(t_x) permutes the tuples at x
    onto those at b.  Out of F_i(b) there are as many target morphisms as
    its component has objects times its vertex group's order.  For one
    functor this is the isofibration condition: every target morphism out
    of F(x) lifts to a morphism out of x."""
    functors = list(functors)
    g = functors[0].source
    if any(f.source is not g and f.source != g for f in functors):
        raise GroupoidError("pairing needs a common source")
    for part, group in zip(g.parts, g.groups):
        b = part[0]
        lifts = {tuple(f(b, y, h) for f in functors) for y in part for h in group}
        images = [f.target.component_of[f.object_map[b]] for f in functors]
        if len(lifts) != math.prod(len(f.target.parts[j]) * len(f.target.groups[j])
                                   for f, j in zip(functors, images)):
            return False
    return True


# ---------------------------------------------------------------------------
# Stacks over posets and the fibrancy checker
# ---------------------------------------------------------------------------

class StackOverPoset:
    """A contravariant assignment of groupoids to poset elements: a fiber per
    element, a gluing functor fiber(y) -> fiber(x) per covering pair x < y.
    The composites along the order are built only to check that they agree."""

    def __init__(self, poset, fibers, glue):
        self.poset = poset
        self.fibers = dict(fibers)
        self.glue, _ = poset.extend_covering(
            glue, self._checked_glue,
            identity=lambda x: identity_functor(self.fibers[x]),
            compose=lambda lower, step: step.then(lower),
            error=GroupoidError, noun="gluing functor",
            clash="gluing functors do not compose functorially between {x!r} and {y!r}")

    def _checked_glue(self, pair, f):
        x, y = pair
        if f.source != self.fibers[y] or f.target != self.fibers[x]:
            raise GroupoidError(f"gluing functor for {pair!r} has wrong endpoints")
        return f


@dataclass(frozen=True)
class FibrancyReport:
    fibrant: bool
    verdicts: dict = field(compare=False)

    def as_dict(self):
        return {"fibrant": self.fibrant,
                "verdicts": {str(k): v for k, v in sorted(self.verdicts.items(), key=str)}}


def check_fibrant_injective(diagram):
    """Fibrancy of a set- or groupoid-valued diagram over a network poset.

    At every element with covered predecessors, the pairing of their
    restrictions into the product must be surjective (sets), resp. a
    multi-fibration (groupoids).  With one predecessor this is surjectivity,
    resp. an isofibration; only the ``why`` text says which case applies.
    Verdicts are reported per element.
    """
    sets = isinstance(diagram, Presheaf)
    if not sets and not isinstance(diagram, StackOverPoset):
        raise GroupoidError("diagram must be a Presheaf or a StackOverPoset")
    test, poset = _onto_product if sets else _multifibration, diagram.poset
    covers, verdicts = poset.lower_covers(), {}
    for y in poset.elements:
        preds = covers[y]
        entry = {"confluence": len(preds) >= 2}
        if sets:
            entry["nonempty"] = len(diagram.carriers[y]) > 0
        if not preds:
            entry["ok"] = True
        else:
            entry["ok"], entry["why"] = test(diagram, preds, y)
        verdicts[y] = entry
    return FibrancyReport(all(e["ok"] for e in verdicts.values()), verdicts)


def _onto_product(p, preds, y):
    # index maps land in carriers without repeats: the image lies in the product
    image = set(zip(*(p.index_maps[(x, y)] for x in preds)))
    size = math.prod(len(p.carriers[x]) for x in preds)
    ok = len(image) == size
    if len(preds) >= 2:
        return ok, "onto the product" if ok else f"misses {size - len(image)} tuples of the product"
    x = preds[0]
    missed = [s for k, s in enumerate(p.carriers[x]) if (k,) not in image]
    return ok, "restriction surjective" if ok else \
        f"restriction to {x!r} misses {sorted(map(str, missed))}"


def _multifibration(stack, preds, y):
    ok = is_multifibration([stack.glue[(x, y)] for x in preds])
    if len(preds) == 1:
        return ok, "isofibration" if ok else "lift missing"
    return ok, "multi-fibration onto the product" if ok else \
        "pairing into the product is not a fibration"
