"""Finite groupoids, gluing functors, and two-way logic transport.

The subobject classifier of a finite groupoid (at the level of subobjects
of the terminal object) is the Boolean algebra of subsets of its set of
connected components, computed once per groupoid.  A functor F: G' -> G
moves component sets by one image/preimage pair of bit masks along its map
pi0(G') -> pi0(G): forward by image (`lambda_transport`), backward by
preimage (`tau_transport`).  The two are adjoint, the backward transport is
a section of the forward one exactly when F is surjective on components,
and both checks run exhaustively.  Transport on general subobject algebras
Omega^X is out of scope; the component level is finitely checkable.

A `StackOverPoset` is closed like a presheaf, by `FinitePoset.extend_covering`.
`check_fibrant_injective` tests diagrams of sets or of groupoids over a
network poset for fibrancy in the injective sense, in one walk over the
lower covers with one test per kind of diagram: the pairing of the
restrictions into the product of the lower covers' fibers must be
surjective, resp. a multi-fibration.  Along a single covering arrow this
is surjectivity, resp. the isofibration condition.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BoundExceeded, GroupoidError
from .presheaf import Presheaf
from .unionfind import UnionFind


# ---------------------------------------------------------------------------
# FiniteGroupoid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupoid:
    objects: tuple
    morphisms: tuple                    # ids
    src: dict = field(compare=False)
    dst: dict = field(compare=False)
    comp: dict = field(compare=False)   # (g, f) -> g after f, when dst(f) == src(g)
    inv: dict = field(compare=False)
    ident: dict = field(compare=False)  # object -> identity morphism id

    def validate(self):
        for o in self.objects:
            e = self.ident.get(o)
            if e is None or self.src[e] != o or self.dst[e] != o:
                raise GroupoidError(f"missing or ill-typed identity at {o!r}")
        for f in self.morphisms:
            if self.src[f] not in self.objects or self.dst[f] not in self.objects:
                raise GroupoidError(f"morphism {f!r} has unknown endpoints")
            fi = self.inv.get(f)
            if fi is None:
                raise GroupoidError(f"morphism {f!r} has no inverse")
            if self.comp[(fi, f)] != self.ident[self.src[f]]:
                raise GroupoidError(f"inverse law fails at {f!r}")
            if self.comp[(f, fi)] != self.ident[self.dst[f]]:
                raise GroupoidError(f"inverse law fails at {f!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.dst[f] == self.src[g]:
                    h = self.comp.get((g, f))
                    if h is None or self.src[h] != self.src[f] or self.dst[h] != self.dst[g]:
                        raise GroupoidError(f"composition missing or ill-typed for ({g!r}, {f!r})")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.dst[f] != self.src[g]:
                    continue
                for h in self.morphisms:
                    if self.dst[g] != self.src[h]:
                        continue
                    if self.comp[(h, self.comp[(g, f)])] != self.comp[(self.comp[(h, g)], f)]:
                        raise GroupoidError("associativity failure")
        return self

    # -- components ---------------------------------------------------------

    def components(self):
        """Partition of the objects under "there exists a morphism", built once."""
        return self._components

    @cached_property
    def _components(self):
        uf = UnionFind(self.objects)
        for f in self.morphisms:
            uf.union(self.src[f], self.dst[f])
        return tuple(tuple(sorted(g, key=str)) for g in
                     sorted(uf.groups(), key=lambda c: str(min(c, key=str))))


# -- constructors -------------------------------------------------------------

def discrete_groupoid(objects):
    objects = tuple(objects)
    ident = {o: ("id", o) for o in objects}
    morphisms = tuple(ident.values())
    src = {m: m[1] for m in morphisms}
    dst = dict(src)
    comp = {(m, m): m for m in morphisms}
    inv = {m: m for m in morphisms}
    return FiniteGroupoid(objects, morphisms, src, dst, comp, inv, ident)


def pair_groupoid(objects):
    """The codiscrete groupoid: exactly one morphism between any two objects."""
    objects = tuple(objects)
    morphisms = tuple((a, b) for a in objects for b in objects)
    src = {m: m[0] for m in morphisms}
    dst = {m: m[1] for m in morphisms}
    comp = {((b, c), (a, b)): (a, c) for a in objects for b in objects for c in objects}
    inv = {(a, b): (b, a) for a, b in morphisms}
    ident = {o: (o, o) for o in objects}
    return FiniteGroupoid(objects, morphisms, src, dst, comp, inv, ident)


# ---------------------------------------------------------------------------
# Functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupoidFunctor:
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: dict = field(compare=False)
    morphism_map: dict = field(compare=False)

    @staticmethod
    def of(source, target, object_map, morphism_map):
        f = GroupoidFunctor(source, target, dict(object_map), dict(morphism_map))
        f.validate()
        return f

    def validate(self):
        om, mm = self.object_map, self.morphism_map
        for o in self.source.objects:
            if om.get(o) not in self.target.objects:
                raise GroupoidError(f"object map undefined or foreign at {o!r}")
        for m in self.source.morphisms:
            fm = mm.get(m)
            if fm not in self.target.morphisms:
                raise GroupoidError(f"morphism map undefined or foreign at {m!r}")
            if self.target.src[fm] != om[self.source.src[m]] or \
               self.target.dst[fm] != om[self.source.dst[m]]:
                raise GroupoidError(f"functor breaks source/target at {m!r}")
        for o in self.source.objects:
            if mm[self.source.ident[o]] != self.target.ident[om[o]]:
                raise GroupoidError(f"functor breaks identity at {o!r}")
        for (g, f), h in self.source.comp.items():
            if self.target.comp[(mm[g], mm[f])] != mm[h]:
                raise GroupoidError(f"functor breaks composition at ({g!r}, {f!r})")
        return self

    @cached_property
    def pi0(self):
        """The map on components, as the index of each source component's image."""
        index = {o: i for i, comp in enumerate(self.target.components()) for o in comp}
        return tuple(index[self.object_map[comp[0]]] for comp in self.source.components())


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
    bit = {c: 1 << i for i, c in enumerate(domain.components())}
    comps = frozenset(comps)
    if not comps <= bit.keys():
        raise GroupoidError(f"unknown component in {name}")
    mask = move(functor.pi0, sum(bit[c] for c in comps))
    return frozenset(_members(codomain.components(), mask))


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


def check_adjunction_and_section(functor, component_bound=8):
    """Exhaustively verify lambda -| tau, the unit, and whether the forward
    transport retracts the backward one (it must iff the functor is
    surjective on components), over all bit masks of components.  The first
    eight failures are kept, with components in ``components()`` order."""
    src_comps = functor.source.components()
    dst_comps = functor.target.components()
    if len(src_comps) > component_bound or len(dst_comps) > component_bound:
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
    tuples (phi_i)_i of target morphisms with src(phi_i) = F_i(x).  They
    always lie among them, so counting the distinct ones suffices.  For one
    functor this is the isofibration condition: every target morphism out
    of F(x) lifts to a morphism out of x."""
    functors = list(functors)
    g = functors[0].source
    if any(f.source is not g and f.source != g for f in functors):
        raise GroupoidError("pairing needs a common source")
    out_of = [Counter(f.target.src[phi] for phi in f.target.morphisms) for f in functors]
    lifts = {x: set() for x in g.objects}
    for m in g.morphisms:
        lifts[g.src[m]].add(tuple(f.morphism_map[m] for f in functors))
    return all(len(lifts[x]) == math.prod(n[f.object_map[x]] for f, n in zip(functors, out_of))
               for x in g.objects)


# ---------------------------------------------------------------------------
# Stacks over posets and the fibrancy checker
# ---------------------------------------------------------------------------

def _compose_maps(lower, f):
    """The (object_map, morphism_map) of ``lower`` after the functor ``f``."""
    objects, morphisms = lower
    return ({o: objects[f.object_map[o]] for o in f.source.objects},
            {m: morphisms[f.morphism_map[m]] for m in f.source.morphisms})


class StackOverPoset:
    """A contravariant assignment of groupoids to poset elements: a fiber per
    element, a gluing functor fiber(y) -> fiber(x) per covering pair x < y."""

    def __init__(self, poset, fibers, glue):
        self.poset = poset
        self.fibers = dict(fibers)
        self.glue, full = poset.extend_covering(
            glue, self._checked_glue,
            identity=lambda x: ({o: o for o in self.fibers[x].objects},
                                {m: m for m in self.fibers[x].morphisms}),
            compose=_compose_maps,
            error=GroupoidError, noun="gluing functor",
            clash="gluing functors do not compose functorially between {x!r} and {y!r}")
        # compared as (object_map, morphism_map) pairs above: functor
        # equality ignores both maps
        self._full = {(x, y): GroupoidFunctor.of(self.fibers[y], self.fibers[x], *maps)
                      for (x, y), maps in full.items()}

    def _checked_glue(self, pair, f):
        x, y = pair
        if f.source != self.fibers[y] or f.target != self.fibers[x]:
            raise GroupoidError(f"gluing functor for {pair!r} has wrong endpoints")
        return f

    def restriction(self, x, y):
        return self._full[(x, y)]


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
