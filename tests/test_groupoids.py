import dataclasses
import functools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct

import numpy as np
import pytest

from sheafnet import carnap, groupoids
from sheafnet.arch_site import FinitePoset
from sheafnet.carnap import build_language, build_symmetry_group
from sheafnet.errors import BoundExceeded, GroupoidError
from sheafnet.groupoids import (
    AdjunctionReport,
    FiniteGroupoid,
    GroupoidFunctor,
    StackOverPoset,
    _close_group,
    check_adjunction_and_section,
    check_fibrant_injective,
    discrete_groupoid,
    identity_functor,
    is_multifibration,
    lambda_transport,
    tau_transport,
)
from sheafnet.presheaf import Presheaf
from sheafnet.unionfind import UnionFind


def cyclic_perm(points):
    return {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}


# -- the table form: the oracle ------------------------------------------------------
# A groupoid as five parallel dicts, with a composition entry for every
# composable pair, and a functor as a map on objects and one on morphisms.
# This was the library's form; the library now keeps components and vertex
# groups, and these tables check it.

@dataclass(frozen=True)
class TableGroupoid:
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

    def components(self):
        """Partition of the objects under "there exists a morphism"."""
        return self._components

    @cached_property
    def _components(self):
        uf = UnionFind(self.objects)
        for f in self.morphisms:
            uf.union(self.src[f], self.dst[f])
        return tuple(tuple(sorted(g, key=str)) for g in
                     sorted(uf.groups(), key=lambda c: str(min(c, key=str))))


def discrete_table(objects):
    objects = tuple(objects)
    ident = {o: ("id", o) for o in objects}
    morphisms = tuple(ident.values())
    src = {m: m[1] for m in morphisms}
    dst = dict(src)
    comp = {(m, m): m for m in morphisms}
    inv = {m: m for m in morphisms}
    return TableGroupoid(objects, morphisms, src, dst, comp, inv, ident)


def pair_groupoid(objects):
    """The codiscrete groupoid: exactly one morphism between any two objects."""
    objects = tuple(objects)
    morphisms = tuple((a, b) for a in objects for b in objects)
    src = {m: m[0] for m in morphisms}
    dst = {m: m[1] for m in morphisms}
    comp = {((b, c), (a, b)): (a, c) for a in objects for b in objects for c in objects}
    inv = {(a, b): (b, a) for a, b in morphisms}
    ident = {o: (o, o) for o in objects}
    return TableGroupoid(objects, morphisms, src, dst, comp, inv, ident)


@dataclass(frozen=True)
class TableFunctor:
    source: TableGroupoid
    target: TableGroupoid
    object_map: dict = field(compare=False)
    morphism_map: dict = field(compare=False)

    @staticmethod
    def of(source, target, object_map, morphism_map):
        f = TableFunctor(source, target, dict(object_map), dict(morphism_map))
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
        index = {o: i for i, comp in enumerate(self.target.components()) for o in comp}
        return tuple(index[self.object_map[comp[0]]] for comp in self.source.components())


def reference_is_multifibration(functors):
    """At every object x, the distinct tuples (F_i(m))_i over the morphisms
    m out of x, counted against the product of the target morphisms out of
    the F_i(x)."""
    g = functors[0].source
    out_of = [Counter(f.target.src[phi] for phi in f.target.morphisms) for f in functors]
    lifts = {x: set() for x in g.objects}
    for m in g.morphisms:
        lifts[g.src[m]].add(tuple(f.morphism_map[m] for f in functors))
    return all(len(lifts[x]) == math.prod(n[f.object_map[x]] for f, n in zip(functors, out_of))
               for x in g.objects)


def is_fibration(functor):
    """Reference isofibration test, searched lift by lift: every target
    morphism starting at the image of an object lifts to a morphism
    starting at that object."""
    g, h = functor.source, functor.target
    for x in g.objects:
        fx = functor.object_map[x]
        for phi in h.morphisms:
            if h.src[phi] != fx:
                continue
            if not any(g.src[m] == x and functor.morphism_map[m] == phi
                       for m in g.morphisms):
                return False
    return True


# -- from the table form to the library's ---------------------------------------------

@dataclass(frozen=True)
class Framed:
    """The library form ``lib`` of the table groupoid ``table``, with the
    frame that relates them: ``arrow[x]`` is the table morphism t_x from
    the base of x's component, and ``perm[m]`` the permutation tuple of a
    loop m at a base."""
    lib: FiniteGroupoid
    table: TableGroupoid
    arrow: dict
    perm: dict

    def element(self, m):
        """The vertex group element g of the table morphism m: x -> y,
        that is t_y^-1 m t_x."""
        t = self.table
        return self.perm[t.comp[(t.inv[self.arrow[t.dst[m]]], t.comp[(m, self.arrow[t.src[m]])])]]


def to_library(t):
    """The library form of ``t``.  Each vertex group acts on its own loops
    by composition (the regular representation); the components go in
    unsorted, in the union-find's order, so that the library sorts them."""
    uf = UnionFind(t.objects)
    for m in t.morphisms:
        uf.union(t.src[m], t.dst[m])
    arrow, perm, parts = {}, {}, []
    for members in uf.groups():
        b = min(members, key=str)
        for m in t.morphisms:
            if t.src[m] == b:
                arrow.setdefault(t.dst[m], m)
        arrow[b] = t.ident[b]
        loops = [m for m in t.morphisms if t.src[m] == t.dst[m] == b]
        position = {m: i for i, m in enumerate(loops)}
        for m in loops:
            perm[m] = tuple(position[t.comp[(m, k)]] for k in loops)
        parts.append((members, [perm[m] for m in loops]))
    return Framed(FiniteGroupoid.of(parts), t, arrow, perm)


def to_library_functor(f, source, target):
    """The library form of the table functor ``f`` between the framed
    ``source`` and ``target``."""
    s, mm = f.source, f.morphism_map
    arrows = {x: target.element(mm[source.arrow[x]]) for x in s.objects}
    homs = {part[0]: {source.perm[m]: target.element(mm[m]) for m in s.morphisms
                      if s.src[m] == s.dst[m] == part[0]}
            for part in source.lib.parts}
    return GroupoidFunctor.of(source.lib, target.lib, f.object_map, arrows, homs)


def lib_functor(f):
    """The library form of ``f``, its source and target framed afresh."""
    return to_library_functor(f, to_library(f.source), to_library(f.target))


# -- groupoids and functors built for the tests ------------------------------------

def group_as_groupoid(generators):
    """One-object groupoid on the closure of permutation generators.

    ``generators``: dict name -> permutation dict on a common finite set.
    """
    elements = {k: dict(p) for k, p in reference_close_permutation_group(generators).items()}
    name_of = {tuple(p.items()): k for k, p in elements.items()}
    obj = "*"
    morphisms = tuple(sorted(elements))
    src = {m: obj for m in morphisms}
    dst = {m: obj for m in morphisms}
    # elements share one domain order, so g after f is found by mapping the
    # images of f through g
    comp = {(g, f): name_of[tuple((x, elements[g][y]) for x, y in elements[f].items())]
            for g in morphisms for f in morphisms}
    inv = {}
    for m in morphisms:
        back = {y: x for x, y in elements[m].items()}
        inv[m] = name_of[tuple((x, back[x]) for x in elements[m])]
    return TableGroupoid((obj,), morphisms, src, dst, comp, inv, {obj: "e"})


def disjoint_union(g1, g2, tags=("L", "R")):
    """Both groupoids side by side, each object and morphism tagged by the
    tag of its side."""
    objects, morphisms = [], []
    src, dst, inv, ident, comp = {}, {}, {}, {}, {}
    for t, g in zip(tags, (g1, g2)):
        objects += [(t, o) for o in g.objects]
        morphisms += [(t, m) for m in g.morphisms]
        for m in g.morphisms:
            src[(t, m)] = (t, g.src[m])
            dst[(t, m)] = (t, g.dst[m])
            inv[(t, m)] = (t, g.inv[m])
        for o in g.objects:
            ident[(t, o)] = (t, g.ident[o])
        for (a, b), c in g.comp.items():
            comp[((t, a), (t, b))] = (t, c)
    return TableGroupoid(tuple(objects), tuple(morphisms), src, dst, comp, inv, ident)


def product_groupoid(g1, g2):
    """The product groupoid, with a composition entry for every composable
    pair of morphism pairs."""
    objects = tuple(iproduct(g1.objects, g2.objects))
    morphisms = tuple(iproduct(g1.morphisms, g2.morphisms))
    src = {(m, n): (g1.src[m], g2.src[n]) for m, n in morphisms}
    dst = {(m, n): (g1.dst[m], g2.dst[n]) for m, n in morphisms}
    inv = {(m, n): (g1.inv[m], g2.inv[n]) for m, n in morphisms}
    ident = {(a, b): (g1.ident[a], g2.ident[b]) for a, b in objects}
    comp = {}
    for m, n in morphisms:
        for m2, n2 in morphisms:
            if g1.dst[m2] == g1.src[m] and g2.dst[n2] == g2.src[n]:
                comp[((m, n), (m2, n2))] = (g1.comp[(m, m2)], g2.comp[(n, n2)])
    return TableGroupoid(objects, morphisms, src, dst, comp, inv, ident)


def pairing_functor(functors):
    """G -> product of the targets, from a family of functors on one source,
    validated as a functor."""
    src = functors[0].source
    if any(f.source is not src and f.source != src for f in functors):
        raise GroupoidError("pairing needs a common source")
    prod = functors[0].target
    for f in functors[1:]:
        prod = product_groupoid(prod, f.target)

    def nest(values):
        out = values[0]
        for v in values[1:]:
            out = (out, v)
        return out

    omap = {o: nest([f.object_map[o] for f in functors]) for o in src.objects}
    mmap = {m: nest([f.morphism_map[m] for f in functors]) for m in src.morphisms}
    return TableFunctor.of(src, prod, omap, mmap)


def table_identity(g):
    return TableFunctor.of(g, g, {o: o for o in g.objects}, {m: m for m in g.morphisms})


def constant_functor(source, target, obj):
    return TableFunctor.of(
        source, target,
        {o: obj for o in source.objects},
        {m: target.ident[obj] for m in source.morphisms})


def reachability_components_oracle(g):
    comps = []
    seen = set()
    for o in g.objects:
        if o in seen:
            continue
        comp = {o}
        frontier = [o]
        while frontier:
            x = frontier.pop()
            for m in g.morphisms:
                for a, b in ((g.src[m], g.dst[m]), (g.dst[m], g.src[m])):
                    if a == x and b not in comp:
                        comp.add(b)
                        frontier.append(b)
        seen |= comp
        comps.append(tuple(sorted(comp, key=str)))
    return tuple(sorted(comps, key=lambda c: str(c[0])))


def codiscrete(*parts):
    """The library groupoid with one codiscrete component per argument."""
    return FiniteGroupoid.of((part, ()) for part in parts)


# -- components ------------------------------------------------------------

def test_discrete_groupoid_components():
    g = discrete_groupoid(["a", "b", "c"])
    assert g.parts == (("a",), ("b",), ("c",))
    assert g.groups == (frozenset({()}),) * 3


def test_one_object_group_single_component():
    t = group_as_groupoid({"r": cyclic_perm([0, 1, 2])})
    g = to_library(t).lib
    assert g.parts == t.components() == (("*",),)
    assert len(g.groups[0]) == len(t.morphisms) == 3  # C3


def test_pair_groupoid_composes_each_composable_pair_once():
    objects = ["a", "b", "c", "d", "e"]
    g = pair_groupoid(objects)
    expect = [(((b, c), (a, b2)), (a, c)) for a in objects for b2 in objects
              for b in objects for c in objects if b2 == b]
    assert list(g.comp.items()) == expect
    g.validate()


def test_components_match_reachability_oracle():
    rng = random.Random(5)
    for _ in range(10):
        pieces = [pair_groupoid([f"{k}_{i}" for i in range(rng.randint(1, 3))])
                  for k in range(rng.randint(1, 3))]
        g = pieces[0]
        for piece in pieces[1:]:
            g = disjoint_union(g, piece, tags=(f"t{id(piece) % 97}", f"u{id(piece) % 89}"))
        assert g.components() == reachability_components_oracle(g)
        assert to_library(g).lib.parts == g.components()


def test_components_are_sorted_by_str_with_the_least_object_as_base():
    g = codiscrete([3, "b", 10], ["z"], ["a", 2])
    assert g.parts == ((10, 3, "b"), (2, "a"), ("z",))
    assert g.objects == (10, 3, "b", 2, "a", "z")
    assert g.component_of == {10: 0, 3: 0, "b": 0, 2: 1, "a": 1, "z": 2}


def test_vertex_group_generators_must_be_permutations_of_one_range():
    with pytest.raises(GroupoidError, match="permute one range"):
        FiniteGroupoid.of([(("*",), [(0, 0)])])
    with pytest.raises(GroupoidError, match="permute one range"):
        FiniteGroupoid.of([(("*",), [(1, 0), (0, 2, 1)])])
    assert FiniteGroupoid.of([(("*",), [(1, 2, 0)])]).groups == \
        (frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}),)


def test_components_must_be_non_empty_and_disjoint():
    for parts in ([["a"], []], [["a", "b"], ["b"]], [["a", "a"]]):
        with pytest.raises(GroupoidError, match="non-empty and disjoint"):
            codiscrete(*parts)


def test_vertex_group_closure_is_bounded():
    with pytest.raises(BoundExceeded, match="group closure exceeds bound"):
        FiniteGroupoid.of([(("*",), [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])])


# -- functors ------------------------------------------------------------------

def composable_pair(rng, g):
    """Two random morphisms (x, y, g) and (y, z, h) of the library groupoid ``g``."""
    i = rng.randrange(len(g.parts))
    part, group = g.parts[i], sorted(g.groups[i])
    x, y, z = (rng.choice(part) for _ in range(3))
    return (x, y, rng.choice(group)), (y, z, rng.choice(group))


def random_cocycle_functor(rng, pair, group):
    """A table functor from a pair groupoid into a one-object group: (a, b)
    goes to c_b after c_a^-1 for random elements c."""
    c = {o: rng.choice(group.morphisms) for o in pair.objects}
    return TableFunctor.of(pair, group, dict.fromkeys(pair.objects, "*"),
                           {(a, b): group.comp[(c[b], group.inv[c[a]])]
                            for a, b in pair.morphisms})


def conjugation_functor(group, c):
    """The table automorphism m -> c m c^-1 of a one-object group."""
    return TableFunctor.of(group, group, {o: o for o in group.objects},
                           {m: group.comp[(group.comp[(c, m)], group.inv[c])]
                            for m in group.morphisms})


def table_then(f, g):
    """The table functor ``g`` after ``f``."""
    return TableFunctor.of(f.source, g.target,
                           {o: g.object_map[f.object_map[o]] for o in f.source.objects},
                           {m: g.morphism_map[f.morphism_map[m]] for m in f.source.morphisms})


def test_functors_preserve_composition_and_compose_as_the_tables():
    """Laws by construction: (y, z, h) after (x, y, g) is (x, z, g then h),
    and converted functors preserve it.  `then` gives the functor of the
    table composite and is the pointwise composite.  On functors between
    pair groupoids and groups, with non-trivial arrows and homomorphisms."""
    rng = random.Random(41)
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    s3 = group_as_groupoid({"s": {0: 1, 1: 0, 2: 2}, "t": {0: 0, 1: 2, 2: 1}})
    then = groupoids._then
    for _ in range(20):
        pair = pair_groupoid([f"p{i}" for i in range(rng.randint(1, 3))])
        group = rng.choice([c2, s3])
        frames = {id(pair): to_library(pair), id(group): to_library(group)}

        def lib(t):
            return to_library_functor(t, frames[id(t.source)], frames[id(t.target)])

        into = random_cocycle_functor(rng, pair, group)
        conj = conjugation_functor(group, rng.choice(group.morphisms))
        back = constant_functor(group, pair, rng.choice(pair.objects))
        for a, b in [(into, conj), (conj, conj), (conj, back), (back, into), (into, back)]:
            composite = lib(a).then(lib(b))
            assert composite == lib(table_then(a, b))
            for f in (lib(a), composite):
                for _ in range(5):
                    (x, y, g), (_, z, h) = composable_pair(rng, f.source)
                    fx, fy, fg = f(x, y, g)
                    _, fz, fh = f(y, z, h)
                    assert f(x, z, then(g, h)) == (fx, fz, then(fg, fh))
                    assert f.then(identity_functor(f.target))(x, y, g) == f(x, y, g)
            assert composite(x, y, g) == lib(b)(*lib(a)(x, y, g))


def test_library_composes_and_maps_morphisms_as_the_tables():
    """Each table morphism m: x -> y is (x, y, g) in the library form.  The
    table composite of m1 and m2 is (x, z, g1 then g2), and a converted
    functor sends (x, y, g) to the library form of the table image of m:
    on S3, a pair groupoid, cocycles into S3 and conjugations of S3."""
    rng = random.Random(47)
    s3 = group_as_groupoid({"s": {0: 1, 1: 0, 2: 2}, "t": {0: 0, 1: 2, 2: 1}})
    pair = pair_groupoid(["a", "b", "c"])
    frames = {id(s3): to_library(s3), id(pair): to_library(pair)}
    for t, framed in ((s3, frames[id(s3)]), (pair, frames[id(pair)])):
        for m1, m2 in iproduct(t.morphisms, repeat=2):
            if t.dst[m1] == t.src[m2]:
                assert framed.element(t.comp[(m2, m1)]) == \
                    groupoids._then(framed.element(m1), framed.element(m2))
    functors = [conjugation_functor(s3, c) for c in s3.morphisms]
    functors += [random_cocycle_functor(rng, pair, s3) for _ in range(5)]
    for f in functors:
        source, target = frames[id(f.source)], frames[id(f.target)]
        lib = to_library_functor(f, source, target)
        for m in f.source.morphisms:
            image = f.morphism_map[m]
            assert lib(f.source.src[m], f.source.dst[m], source.element(m)) == \
                (f.target.src[image], f.target.dst[image], target.element(image))


def test_validate_refuses_what_is_not_a_functor():
    src, dst = codiscrete(["a", "b"]), codiscrete(["x"], ["y"])
    with pytest.raises(GroupoidError, match="object map undefined or foreign at 'b'"):
        GroupoidFunctor.of_object_map(src, dst, {"a": "x", "b": "w"})
    with pytest.raises(GroupoidError, match="splits the component of 'a'"):
        GroupoidFunctor.of_object_map(src, dst, {"a": "x", "b": "y"})
    assert GroupoidFunctor.of_object_map(src, dst, {"a": "y", "b": "y"}).pi0 == (1,)
    c2 = to_library(group_as_groupoid({"r": cyclic_perm([0, 1])})).lib
    point = discrete_groupoid(["p"])
    # the object map alone is a functor only between trivial vertex groups
    with pytest.raises(GroupoidError, match="breaks identity or is undefined at '\\*'"):
        GroupoidFunctor.of_object_map(c2, point, {"*": "p"})
    with pytest.raises(GroupoidError, match="arrow image undefined or foreign at 'p'"):
        GroupoidFunctor.of_object_map(point, c2, {"p": "*"})
    e, r = (0, 1), (1, 0)
    assert c2.groups == (frozenset({e, r}),)
    GroupoidFunctor.of(c2, c2, {"*": "*"}, {"*": e}, {"*": {e: e, r: r}})
    GroupoidFunctor.of(c2, c2, {"*": "*"}, {"*": e}, {"*": {e: e, r: e}})
    for arrows, hom, message in [
            ({"*": r}, {e: e, r: r}, "breaks identity"),
            ({"*": (0,)}, {e: e, r: r}, "arrow image undefined or foreign"),
            ({"*": e}, {e: e}, "undefined"),
            ({"*": e}, {e: r, r: e}, "breaks"),
            ({"*": e}, {e: e, r: (2, 0, 1)}, "undefined")]:
        with pytest.raises(GroupoidError, match=message):
            GroupoidFunctor.of(c2, c2, {"*": "*"}, arrows, {"*": hom})
    with pytest.raises(GroupoidError, match="breaks composition"):
        z3 = FiniteGroupoid.of([(("*",), [(1, 2, 0)])])
        g = (1, 2, 0)
        GroupoidFunctor.of(z3, z3, {"*": "*"}, {"*": (0, 1, 2)},
                           {"*": {(0, 1, 2): (0, 1, 2), g: g, groupoids._then(g, g): g}})


# -- transports --------------------------------------------------------------

def powerset(items):
    items = list(items)
    for mask in range(2 ** len(items)):
        yield frozenset(x for i, x in enumerate(items) if (mask >> i) & 1)


def two_over_one_functor():
    return GroupoidFunctor.of_object_map(discrete_groupoid(["x", "y"]),
                                         discrete_groupoid(["z"]), {"x": "z", "y": "z"})


def test_lambda_identity_and_collapse():
    g = discrete_groupoid(["a", "b"])
    ident = identity_functor(g)
    comps = g.parts
    for p in powerset(comps):
        assert lambda_transport(ident, p) == p
        assert tau_transport(ident, p) == p
    f = two_over_one_functor()
    cx, cy = f.source.parts
    assert lambda_transport(f, {cx}) == lambda_transport(f, {cy})


def test_tau_preimage_and_empty():
    f = two_over_one_functor()
    cz = f.target.parts[0]
    assert tau_transport(f, {cz}) == frozenset(f.source.parts)
    assert tau_transport(f, frozenset()) == frozenset()


def test_adjunction_exhaustive_and_section():
    f = two_over_one_functor()
    report = check_adjunction_and_section(f)
    assert report.adjunction_ok and report.unit_ok
    assert report.surjective_on_components and report.section_ok


def test_non_surjective_functor_breaks_section_with_witness():
    f = GroupoidFunctor.of_object_map(discrete_groupoid(["x"]), discrete_groupoid(["u", "v"]),
                                      {"x": "u"})
    report = check_adjunction_and_section(f)
    assert report.adjunction_ok and report.unit_ok
    assert not report.surjective_on_components
    assert not report.section_ok
    assert any(kind == "section" for kind, *_ in report.failures)


def test_lambda_tau_preserve_boolean_operations():
    f = two_over_one_functor()
    src_comps = f.source.parts
    dst_comps = f.target.parts
    for p in powerset(src_comps):
        for q in powerset(src_comps):
            assert lambda_transport(f, p | q) == lambda_transport(f, p) | lambda_transport(f, q)
    full = frozenset(dst_comps)
    for p in powerset(dst_comps):
        for q in powerset(dst_comps):
            assert tau_transport(f, p & q) == tau_transport(f, p) & tau_transport(f, q)
            assert tau_transport(f, p | q) == tau_transport(f, p) | tau_transport(f, q)
        assert tau_transport(f, full - p) == \
            frozenset(src_comps) - tau_transport(f, p)


def test_lambda_meet_preservation_fails_for_collapsing_functors():
    """Direct images preserve joins but not meets: collapsing two components
    onto one is the witness, so only the join law is asserted above."""
    f = two_over_one_functor()
    cx, cy = f.source.parts
    lhs = lambda_transport(f, frozenset({cx}) & frozenset({cy}))
    rhs = lambda_transport(f, {cx}) & lambda_transport(f, {cy})
    assert lhs == frozenset() and rhs != frozenset()


def test_lambda_meet_preserved_for_component_injective_functors():
    f = GroupoidFunctor.of_object_map(discrete_groupoid(["x", "y"]),
                                      discrete_groupoid(["u", "v", "w"]), {"x": "u", "y": "w"})
    comps = f.source.parts
    for p in powerset(comps):
        for q in powerset(comps):
            assert lambda_transport(f, p & q) == \
                lambda_transport(f, p) & lambda_transport(f, q)


# -- reference transport on frozensets of components ---------------------------

def reference_component_image(functor, comp):
    obj = functor.object_map[comp[0]]
    return next(c for c in functor.target.components() if obj in c)


def reference_lambda_transport(functor, comps):
    comps = frozenset(comps)
    known = set(functor.source.components())
    if not comps <= known:
        raise GroupoidError("unknown component in lambda_transport")
    return frozenset(reference_component_image(functor, c) for c in comps)


def reference_tau_transport(functor, comps):
    comps = frozenset(comps)
    known = set(functor.target.components())
    if not comps <= known:
        raise GroupoidError("unknown component in tau_transport")
    return frozenset(c for c in functor.source.components()
                     if reference_component_image(functor, c) in comps)


def reference_check_adjunction_and_section(functor, bound=8):
    """Every pair of component sets as frozensets; failures hold frozensets."""
    lam, tau = reference_lambda_transport, reference_tau_transport
    src_comps = functor.source.components()
    dst_comps = functor.target.components()
    if len(src_comps) > bound or len(dst_comps) > bound:
        raise BoundExceeded("too many components for the exhaustive check")
    failures = []
    adj = unit = True
    for p in powerset(src_comps):
        lp = lam(functor, p)
        if not p <= tau(functor, lp):
            unit = False
            failures.append(("unit", p))
        for q in powerset(dst_comps):
            if (lp <= q) != (p <= tau(functor, q)):
                adj = False
                failures.append(("adjunction", p, q))
    image = {reference_component_image(functor, c) for c in src_comps}
    surjective = image == set(dst_comps)
    section = True
    for q in powerset(dst_comps):
        if lam(functor, tau(functor, q)) != q:
            section = False
            failures.append(("section", q))
    return AdjunctionReport(adj, unit, surjective, section, tuple(failures[:8]))


def assert_agrees_with_tables(table, lib):
    """The library functor ``lib`` against the table functor ``table`` it
    was built from: components, pi0, both transports, the adjunction check
    and the one-functor lift count.  Returns the adjunction report."""
    assert lib.source.parts == table.source.components()
    assert lib.target.parts == table.target.components()
    assert lib.pi0 == table.pi0
    for p in powerset(table.source.components()):
        assert lambda_transport(lib, p) == reference_lambda_transport(table, p)
    for q in powerset(table.target.components()):
        assert tau_transport(lib, q) == reference_tau_transport(table, q)
    report = check_adjunction_and_section(lib)
    failures = tuple((kind, *map(frozenset, subsets)) for kind, *subsets in report.failures)
    assert dataclasses.replace(report, failures=failures) == \
        reference_check_adjunction_and_section(table)
    assert is_multifibration([lib]) == reference_is_multifibration([table]) == is_fibration(table)
    return report


def random_component_groupoid(rng, name, max_components):
    """Pair groupoids of one to three objects, joined by disjoint unions."""
    pieces = [pair_groupoid([f"{name}{k}_{i}" for i in range(rng.randint(1, 3))])
              for k in range(rng.randint(1, max_components))]
    g = pieces[0]
    for k, piece in enumerate(pieces[1:]):
        g = disjoint_union(g, piece, tags=(f"L{k}", f"R{k}"))
    return g


def random_functor(rng, max_components=5):
    """Each source component goes into one random target component, its
    objects onto random objects there."""
    src = random_component_groupoid(rng, "s", max_components)
    dst = random_component_groupoid(rng, "d", max_components)
    return random_functor_between(rng, src, dst, False)


def test_transports_match_frozenset_reference_on_random_functors():
    rng = random.Random(31)
    surjective = set()
    for _ in range(40):
        f = random_functor(rng)
        surjective.add(assert_agrees_with_tables(f, lib_functor(f))
                       .surjective_on_components)
    assert surjective == {True, False}


def test_criterion_15_functors_match_the_tables():
    """Criterion 15's 25 functors between discrete groupoids (seed 0),
    built as the criterion builds them, against the table form."""
    rng = random.Random(0)
    for _ in range(25):
        n_src = rng.randint(1, 6)
        n_dst = rng.randint(1, 6)
        omap = {f"s{i}": f"d{rng.randrange(n_dst)}" for i in range(n_src)}
        src = discrete_table([f"s{i}" for i in range(n_src)])
        dst = discrete_table([f"d{i}" for i in range(n_dst)])
        table = TableFunctor.of(src, dst, omap, {("id", o): ("id", omap[o]) for o in omap})
        lib = GroupoidFunctor.of(discrete_groupoid(src.objects), discrete_groupoid(dst.objects),
                                 omap, dict.fromkeys(omap, ()), dict.fromkeys(omap, {(): ()}))
        assert_agrees_with_tables(table, lib)


def test_failures_list_components_in_components_order():
    f = GroupoidFunctor.of_object_map(discrete_groupoid(["x"]),
                                      discrete_groupoid(["w", "v", "u"]), {"x": "u"})
    failures = check_adjunction_and_section(f).failures
    assert failures[:3] == (("section", (("v",),)), ("section", (("u",), ("v",))),
                            ("section", (("w",),)))
    assert len(failures) == 6


def test_transports_reject_unknown_components():
    f = two_over_one_functor()
    with pytest.raises(GroupoidError, match="lambda_transport"):
        lambda_transport(f, {("z",)})
    with pytest.raises(GroupoidError, match="tau_transport"):
        tau_transport(f, {("x",)})


def test_components_computed_once_per_groupoid():
    """Components are stored, and each groupoid builds its object index
    once, however often the checks run."""
    f = lib_functor(random_functor(random.Random(2)))
    parts = f.source.parts
    for _ in range(3):
        check_adjunction_and_section(f)
        lambda_transport(f, f.source.parts)
        tau_transport(f, f.target.parts)
    index = f.target.component_of
    assert f.source.parts is parts and f.target.component_of is index


def test_adjunction_check_bound():
    f = lib_functor(random_functor(random.Random(0)))
    with pytest.raises(BoundExceeded):
        check_adjunction_and_section(f, bound=0)


# -- fibrations ---------------------------------------------------------------

def test_one_functor_multifibration_is_the_isofibration_test():
    """Counting the lifts of one functor at each base is the isofibration
    test: on random functors between unions of pair groupoids, and into and
    out of groups."""
    rng = random.Random(31)
    functors = [random_functor(rng) for _ in range(150)]
    for _ in range(150):
        src = random_component_groupoid(rng, "s", 3)
        functors.append(random_functor_from(rng, src, "t", 3))
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    disc = discrete_table(["*"])
    functors += [table_identity(c2), constant_functor(disc, c2, "*"),
                 TableFunctor.of(c2, disc, {"*": "*"}, {m: ("id", "*") for m in c2.morphisms})]
    functors += [random_cocycle_functor(rng, pair_groupoid(["a", "b"]), c2) for _ in range(4)]
    verdicts = [is_fibration(f) for f in functors]
    assert [reference_is_multifibration([f]) for f in functors] == verdicts
    assert [is_multifibration([lib_functor(f)]) for f in functors] == verdicts
    assert 0 < sum(verdicts) < len(verdicts)


def test_identity_is_fibration():
    t = group_as_groupoid({"r": cyclic_perm([0, 1, 2])})
    assert is_fibration(table_identity(t))
    g = to_library(t).lib
    assert is_multifibration([identity_functor(g)])
    assert identity_functor(g) == lib_functor(table_identity(t))


def subgroup_inclusion():
    """The table inclusion of the squares C2 = {e, (02)(13)} into C4."""
    big = group_as_groupoid({"r": cyclic_perm([0, 1, 2, 3])})
    sub = group_as_groupoid({"r": {0: 2, 2: 0, 1: 3, 3: 1}})
    name_of = {}
    big_elems = {k: dict(p) for k, p in reference_close_permutation_group(
        {"r": cyclic_perm([0, 1, 2, 3])}).items()}
    sub_elems = {k: dict(p) for k, p in reference_close_permutation_group(
        {"r": {0: 2, 2: 0, 1: 3, 3: 1}}).items()}
    for sk, sp in sub_elems.items():
        name_of[sk] = next(bk for bk, bp in big_elems.items() if bp == sp)
    return TableFunctor.of(sub, big, {"*": "*"}, name_of)


def projection(prod, factor, k):
    """The table projection of a product groupoid onto its factor ``k``."""
    return TableFunctor.of(prod, factor, {o: o[k] for o in prod.objects},
                           {m: m[k] for m in prod.morphisms})


def test_proper_subgroup_inclusion_is_not_fibration():
    f = subgroup_inclusion()
    assert not is_fibration(f)
    assert_agrees_with_tables(f, lib_functor(f))


def test_product_projection_is_fibration_and_multifibration():
    g1 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    g2 = group_as_groupoid({"r": cyclic_perm(["a", "b", "c"])})
    prod = product_groupoid(g1, g2)
    proj1, proj2 = projection(prod, g1, 0), projection(prod, g2, 1)
    assert is_fibration(proj1) and is_fibration(proj2)
    assert reference_is_multifibration([proj1, proj2])
    framed = to_library(prod)
    lib1, lib2 = (to_library_functor(p, framed, to_library(p.target)) for p in (proj1, proj2))
    assert lib1.source is lib2.source
    assert_agrees_with_tables(proj1, lib1)
    assert_agrees_with_tables(proj2, lib2)
    assert is_multifibration([lib1, lib2])
    # two copies of one projection miss the pairs with different entries
    assert not reference_is_multifibration([proj1, proj1])
    assert not is_multifibration([lib1, lib1])


def random_functor_from(rng, src, name, max_components):
    """A functor from ``src`` into a random groupoid of pair groupoids: each
    source component goes into one target component, half the time onto all
    of its objects when it has enough of them."""
    dst = random_component_groupoid(rng, name, max_components)
    return random_functor_between(rng, src, dst, True)


def random_functor_between(rng, src, dst, onto):
    """A functor from ``src`` into the union of pair groupoids ``dst``, as
    `random_functor_from` draws it when ``onto``; without, each source
    object goes to a random object of its component's target."""
    targets = dst.components()
    omap = {}
    for comp in src.components():
        into = rng.choice(targets)
        images = [rng.choice(into) for _ in comp]
        if onto and rng.random() < 0.5 and len(comp) >= len(into):
            images[:len(into)] = into
            rng.shuffle(images)
        omap.update(zip(comp, images))
    # a pair groupoid per component: one morphism between any two of its objects
    hom = {(dst.src[f], dst.dst[f]): f for f in dst.morphisms}
    mmap = {m: hom[(omap[src.src[m]], omap[src.dst[m]])] for m in src.morphisms}
    return TableFunctor.of(src, dst, omap, mmap)


def test_multifibration_matches_pairing_into_the_product_groupoid():
    """The lift count equals the fibration check of the pairing functor into
    the product groupoid, on random families of two or three functors.  The
    reference composes every pair of product morphisms, so a family of three
    has one-component targets."""
    rng = random.Random(23)
    verdicts = []
    for _ in range(200):
        src = random_component_groupoid(rng, "s", 3)
        width = rng.randint(2, 3)
        functors = [random_functor_from(rng, src, f"t{k}", 4 - width) for k in range(width)]
        framed = to_library(src)
        verdicts.append(is_multifibration([to_library_functor(f, framed, to_library(f.target))
                                           for f in functors]))
        assert verdicts[-1] == reference_is_multifibration(functors)
        assert verdicts[-1] == is_fibration(pairing_functor(functors))
    assert 0 < sum(verdicts) < len(verdicts)


def test_multifibration_of_groups_matches_pairing():
    """Families out of the group C2 x C3 = C6: its projections, its identity
    and a collapse onto the trivial group, against the
    pairing's own fibration check."""
    rng = random.Random(29)
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    c3 = group_as_groupoid({"r": cyclic_perm(["a", "b", "c"])})
    c6, disc = product_groupoid(c2, c3), discrete_table(["*"])
    choices = [projection(c6, c2, 0), projection(c6, c3, 1), table_identity(c6),
               constant_functor(c6, disc, "*")]
    framed = to_library(c6)
    verdicts = []
    for _ in range(30):
        functors = [rng.choice(choices) for _ in range(rng.randint(1, 3))]
        verdicts.append(is_multifibration([to_library_functor(f, framed, to_library(f.target))
                                           for f in functors]))
        assert verdicts[-1] == reference_is_multifibration(functors)
        assert verdicts[-1] == is_fibration(pairing_functor(functors))
    assert 0 < sum(verdicts) < len(verdicts)


def test_multifibration_needs_a_common_source():
    f = identity_functor(discrete_groupoid(["a"]))
    g = identity_functor(discrete_groupoid(["b"]))
    with pytest.raises(GroupoidError, match="pairing needs a common source"):
        is_multifibration([f, g])


def test_composition_of_fibrations_is_fibration():
    g1 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    g2 = group_as_groupoid({"r": cyclic_perm(["a", "b"])})
    g3 = group_as_groupoid({"r": cyclic_perm(["p", "q", "s"])})
    inner = product_groupoid(g2, g3)
    outer = product_groupoid(g1, inner)
    proj_inner, proj_g2 = projection(outer, inner, 1), projection(inner, g2, 0)
    assert is_fibration(proj_inner) and is_fibration(proj_g2)
    composed = table_then(proj_inner, proj_g2)
    assert is_fibration(composed)
    framed = to_library(inner)
    lib_inner = to_library_functor(proj_inner, to_library(outer), framed)
    lib_g2 = to_library_functor(proj_g2, framed, to_library(g2))
    assert lib_inner.then(lib_g2) == \
        to_library_functor(composed, to_library(outer), to_library(g2))
    assert is_multifibration([lib_inner.then(lib_g2)])


# -- fibrancy of diagrams --------------------------------------------------------

def set_diagram(poset, carriers, maps):
    return Presheaf(poset, carriers, maps)


def test_shadok_two_chain_fibrant_iff_surjective():
    poset = FinitePoset.chain(1)
    good = set_diagram(poset, {0: ("a", "b"), 1: ("u", "v")},
                       {(0, 1): {"u": "a", "v": "b"}})
    assert check_fibrant_injective(good).fibrant
    bad = set_diagram(poset, {0: ("a", "b"), 1: ("u", "v")},
                      {(0, 1): {"u": "a", "v": "a"}})
    report = check_fibrant_injective(bad)
    assert not report.fibrant
    assert not report.verdicts[1]["ok"]


def test_confluence_needs_joint_surjectivity():
    poset = FinitePoset(["one", "two", "top"], [("one", "top"), ("two", "top")])
    carriers = {"one": ("u",), "two": ("v", "w"), "top": ("a", "b")}
    pairing_bad = set_diagram(poset, carriers, {
        ("one", "top"): {"a": "u", "b": "u"},
        ("two", "top"): {"a": "v", "b": "v"},   # misses ("u","w")
    })
    report = check_fibrant_injective(pairing_bad)
    assert not report.fibrant and report.verdicts["top"]["confluence"]
    pairing_good = set_diagram(poset, carriers, {
        ("one", "top"): {"a": "u", "b": "u"},
        ("two", "top"): {"a": "v", "b": "w"},
    })
    assert check_fibrant_injective(pairing_good).fibrant


def test_confluence_verdict_counts_the_missed_product_tuples():
    """The product of the lower carriers, built in full, is the oracle."""
    rng = random.Random(8)
    poset = FinitePoset(["one", "two", "top"], [("one", "top"), ("two", "top")])
    seen = set()
    for _ in range(40):
        carriers = {x: tuple(f"{x}{k}" for k in range(rng.randint(1, 3))) for x in poset.elements}
        maps = {(x, "top"): {s: rng.choice(carriers[x]) for s in carriers["top"]}
                for x in ("one", "two")}
        p = set_diagram(poset, carriers, maps)
        image = {(maps[("one", "top")][s], maps[("two", "top")][s]) for s in carriers["top"]}
        missed = len(set(iproduct(carriers["one"], carriers["two"])) - image)
        verdict = check_fibrant_injective(p).verdicts["top"]
        assert verdict["ok"] == (missed == 0)
        assert verdict["why"] == ("onto the product" if missed == 0
                                  else f"misses {missed} tuples of the product")
        seen.add(missed == 0)
    assert seen == {True, False}


def test_divergence_needs_separate_surjectivity():
    poset = FinitePoset(["bot", "one", "two"], [("bot", "one"), ("bot", "two")])
    carriers = {"bot": ("x", "y"), "one": ("a", "b"), "two": ("c", "d")}
    both = set_diagram(poset, carriers, {
        ("bot", "one"): {"a": "x", "b": "y"},
        ("bot", "two"): {"c": "y", "d": "x"},
    })
    assert check_fibrant_injective(both).fibrant
    one_bad = set_diagram(poset, carriers, {
        ("bot", "one"): {"a": "x", "b": "x"},
        ("bot", "two"): {"c": "y", "d": "x"},
    })
    report = check_fibrant_injective(one_bad)
    assert not report.fibrant
    assert not report.verdicts["one"]["ok"] and report.verdicts["two"]["ok"]


def test_stack_fibrancy_groupoid_case():
    poset = FinitePoset.chain(1)
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    disc = discrete_table(["*"])
    g1, triv = to_library(c2), to_library(disc)
    good = StackOverPoset(poset, {0: g1.lib, 1: g1.lib}, {(0, 1): identity_functor(g1.lib)})
    assert check_fibrant_injective(good).fibrant
    # collapse C2 onto the trivial groupoid: morphisms cannot lift
    to_triv = TableFunctor.of(c2, disc, {"*": "*"}, {m: ("id", "*") for m in c2.morphisms})
    up = StackOverPoset(poset, {0: triv.lib, 1: g1.lib},
                        {(0, 1): to_library_functor(to_triv, g1, triv)})
    assert check_fibrant_injective(up).fibrant  # surjective on lifts: all collapse fine
    down = StackOverPoset(poset, {0: g1.lib, 1: triv.lib},
                          {(0, 1): to_library_functor(constant_functor(disc, c2, "*"), triv, g1)})
    assert not check_fibrant_injective(down).fibrant  # nontrivial loop has no lift


def reference_stack_verdicts(poset, glue):
    """`check_fibrant_injective`'s verdicts on a stack of table groupoids,
    by the table lift count."""
    covers, verdicts = poset.lower_covers(), {}
    for y in poset.elements:
        preds = covers[y]
        entry = verdicts[y] = {"confluence": len(preds) >= 2, "ok": True}
        if preds:
            ok = entry["ok"] = reference_is_multifibration([glue[(x, y)] for x in preds])
            entry["why"] = ("isofibration" if ok else "lift missing") if len(preds) == 1 else \
                ("multi-fibration onto the product" if ok else
                 "pairing into the product is not a fibration")
    return verdicts


def test_stack_verdicts_match_the_tables():
    """Random stacks of unions of pair groupoids on a chain, a confluence
    and a divergence, against the table lift count."""
    rng = random.Random(37)
    posets = [FinitePoset.chain(2), FinitePoset(["l", "r", "t"], [("l", "t"), ("r", "t")]),
              FinitePoset(["b", "x", "y"], [("b", "x"), ("b", "y")])]
    seen = set()
    for _ in range(60):
        poset = rng.choice(posets)
        fibers = {x: random_component_groupoid(rng, f"{x}.", 3) for x in poset.elements}
        glue = {(x, y): random_functor_between(rng, fibers[y], fibers[x], True)
                for x, y in poset.covering()}
        framed = {x: to_library(g) for x, g in fibers.items()}
        stack = StackOverPoset(poset, {x: f.lib for x, f in framed.items()},
                               {(x, y): to_library_functor(f, framed[y], framed[x])
                                for (x, y), f in glue.items()})
        report = check_fibrant_injective(stack)
        assert report.verdicts == reference_stack_verdicts(poset, glue)
        seen.add(report.fibrant)
    assert seen == {True, False}


def test_stack_verdicts_on_groups_match_the_tables():
    """Stacks of one-object groups: a confluence glued by the two
    projections of C2 x C3 (fibrant), by one projection twice (not), and a
    chain glued by the inclusion of C2 into C4 (not)."""
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    c3 = group_as_groupoid({"r": cyclic_perm(["a", "b", "c"])})
    prod = product_groupoid(c2, c3)
    conf = FinitePoset(["l", "r", "t"], [("l", "t"), ("r", "t")])
    inclusion = subgroup_inclusion()
    cases = [
        (conf, {"l": c2, "r": c3, "t": prod},
         {("l", "t"): projection(prod, c2, 0), ("r", "t"): projection(prod, c3, 1)}, True),
        (conf, {"l": c2, "r": c2, "t": prod},
         {("l", "t"): projection(prod, c2, 0), ("r", "t"): projection(prod, c2, 0)}, False),
        (FinitePoset.chain(1), {0: inclusion.target, 1: inclusion.source},
         {(0, 1): inclusion}, False)]
    for poset, fibers, glue, fibrant in cases:
        framed = {x: to_library(g) for x, g in fibers.items()}
        stack = StackOverPoset(poset, {x: f.lib for x, f in framed.items()},
                               {(x, y): to_library_functor(f, framed[y], framed[x])
                                for (x, y), f in glue.items()})
        report = check_fibrant_injective(stack)
        assert report.fibrant == fibrant
        assert report.verdicts == reference_stack_verdicts(poset, glue)


def test_stack_functoriality_clash_matches_the_tables():
    """On a diamond 0 < 1, 2 < 3 of one-object groups and pair groupoids,
    `StackOverPoset` refuses the gluing exactly when the two table
    composites 3 -> 0 differ."""
    rng = random.Random(43)
    poset = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    c3 = group_as_groupoid({"r": cyclic_perm(["a", "b", "c"])})
    seen = set()
    for _ in range(60):
        fibers = {x: rng.choice([c2, c3, pair_groupoid(["u", "v"])]) for x in range(4)}
        glue = {}
        for x, y in poset.covering():
            src, dst = fibers[y], fibers[x]
            if len(dst.objects) == 2:
                glue[(x, y)] = random_functor_between(rng, src, dst, True)
            elif len(src.objects) == 2:
                glue[(x, y)] = random_cocycle_functor(rng, src, dst)
            else:
                glue[(x, y)] = rng.choice([constant_functor(src, dst, "*")] + (
                    [conjugation_functor(src, c) for c in src.morphisms] if src is dst else []))
        clash = table_then(glue[(1, 3)], glue[(0, 1)]).morphism_map != \
            table_then(glue[(2, 3)], glue[(0, 2)]).morphism_map
        framed = {x: to_library(g) for x, g in fibers.items()}
        lib_glue = {(x, y): to_library_functor(f, framed[y], framed[x])
                    for (x, y), f in glue.items()}
        lib_fibers = {x: f.lib for x, f in framed.items()}
        if clash:
            with pytest.raises(GroupoidError, match="between 0 and 3"):
                StackOverPoset(poset, lib_fibers, lib_glue)
        else:
            StackOverPoset(poset, lib_fibers, lib_glue)
        seen.add(clash)
    assert seen == {True, False}


def test_stack_rejects_missing_gluing_functor():
    g = discrete_groupoid(["*"])
    with pytest.raises(GroupoidError, match="missing gluing functor for covering pair"):
        StackOverPoset(FinitePoset.chain(1), {0: g, 1: g}, {})


def test_stack_rejects_functor_on_non_covering_pair():
    g = discrete_groupoid(["*"])
    ident = identity_functor(g)
    glue = {(0, 1): ident, (1, 2): ident, (0, 2): ident}
    with pytest.raises(GroupoidError, match=r"\(0, 2\) is not a covering pair"):
        StackOverPoset(FinitePoset.chain(2), {0: g, 1: g, 2: g}, glue)


def test_stack_rejects_functor_with_wrong_endpoints():
    small, big = discrete_groupoid(["*"]), codiscrete(["a", "b"])
    # fiber(1) -> fiber(0) is required; this one runs fiber(0) -> fiber(1)
    backwards = GroupoidFunctor.of_object_map(small, big, {"*": "a"})
    with pytest.raises(GroupoidError, match="has wrong endpoints"):
        StackOverPoset(FinitePoset.chain(1), {0: small, 1: big}, {(0, 1): backwards})


def test_stack_functoriality_clash_on_diamond():
    # two cover paths 0 < 1 < 3 and 0 < 2 < 3 sending t to different objects
    poset = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    fibers = {0: discrete_groupoid(["x", "y"]), 1: discrete_groupoid(["u"]),
              2: discrete_groupoid(["v"]), 3: discrete_groupoid(["t"])}

    def glue(y, x, obj):
        return GroupoidFunctor.of_object_map(fibers[y], fibers[x],
                                             dict.fromkeys(fibers[y].objects, obj))

    agreeing = {(0, 1): glue(1, 0, "x"), (0, 2): glue(2, 0, "x"),
                (1, 3): glue(3, 1, "u"), (2, 3): glue(3, 2, "v")}
    stack = StackOverPoset(poset, fibers, agreeing)
    assert stack.glue == agreeing
    clashing = {**agreeing, (0, 2): glue(2, 0, "y")}
    with pytest.raises(GroupoidError, match="between 0 and 3"):
        StackOverPoset(poset, fibers, clashing)


# -- group closure ----------------------------------------------------------------

def reference_close_permutation_group(generators, bound=10_000):
    """The closure as first written: every permutation a tuple of (x, image)
    pairs sorted by str, re-sorted after every product.  Every element
    counts against ``bound``, the identity too."""
    domain = None
    gens = {}
    for name, p in generators.items():
        p = dict(p)
        if domain is None:
            domain = sorted(p, key=str)
        if sorted(p, key=str) != domain or sorted(p.values(), key=str) != domain:
            raise GroupoidError(f"generator {name!r} is not a bijection of the domain")
        gens[name] = tuple(sorted(p.items(), key=lambda kv: str(kv[0])))
    ident = tuple(sorted(((x, x) for x in domain), key=lambda kv: str(kv[0])))
    found = {ident: "e"}
    if len(found) > bound:
        raise BoundExceeded(f"group closure exceeds bound {bound}")
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            pd = dict(p)
            for name, q in gens.items():
                qd = dict(q)
                comp = tuple(sorted(((x, qd[pd[x]]) for x in pd), key=lambda kv: str(kv[0])))
                if comp not in found:
                    found[comp] = f"g{len(found)}"
                    nxt.append(comp)
                    if len(found) > bound:
                        raise BoundExceeded(f"group closure exceeds bound {bound}")
        frontier = nxt
    return {name: perm for perm, name in found.items()}


def reference_group_tables(generators):
    """Composition, inverse and identity of group_as_groupoid, each product
    found by a linear scan over the reference closure."""
    elements = reference_close_permutation_group(generators)

    def compose(g, f):
        pg, pf = dict(elements[g]), dict(elements[f])
        gf = tuple(sorted((x, pg[pf[x]]) for x in pf))
        return next(k for k, p in elements.items() if p == gf)

    morphisms = tuple(sorted(elements))
    comp = {(g, f): compose(g, f) for g in morphisms for f in morphisms}
    inv = {}
    for m in morphisms:
        target = {v: k for k, v in dict(elements[m]).items()}
        inv[m] = next(k for k, p in elements.items() if dict(p) == target)
    ident = min(k for k, p in elements.items() if all(a == b for a, b in p))
    return morphisms, comp, inv, ident


def closure_outcome(close, generators, bound):
    try:
        return close(generators, bound)
    except BoundExceeded as exc:
        return type(exc)


def close_indices(gens, bound):
    """`_close_group` of the index arrays ``gens`` over their range."""
    return _close_group(len(gens[0]), gens, bound)


# how the reference names the points 0..n-1 of the index-array generators
DOMAINS = {
    "int": list(range(7)),
    "str": [f"s{i}" for i in range(6)],
}


@functools.cache
def random_closure_cases(kind):
    """25 (generators, bound, reference outcome) cases over range(n), the
    generators index arrays of 1 to 3 random permutations, the bound 60 or
    10,000."""
    rng = random.Random(sorted(DOMAINS).index(kind))
    points = DOMAINS[kind]
    n = len(points)
    cases = []
    for _ in range(25):
        gens = [np.array(rng.sample(range(n), n), dtype=np.min_scalar_type(n - 1))
                for _ in range(rng.randint(1, 3))]
        bound = rng.choice([60, 10_000])
        want = closure_outcome(reference_close_permutation_group,
                               {f"q{k}": dict(zip(points, (points[i] for i in g.tolist())))
                                for k, g in enumerate(gens)}, bound)
        cases.append((gens, bound, want))
    return cases


def assert_closure_is(got, want, gens, points):
    """``got``, an outcome of `_close_group`, is ``want``, one of the
    reference: the same elements, named in the same breadth-first order, or
    `BoundExceeded` on both sides."""
    if isinstance(got, np.ndarray):
        assert got.dtype == gens[0].dtype and got.shape == (len(got), len(points))
        got = {f"g{r}" if r else "e": tuple(sorted(
                   ((points[i], points[j]) for i, j in enumerate(row)),
                   key=lambda kv: str(kv[0])))
               for r, row in enumerate(got.tolist())}
        assert list(got) == list(want)      # names in breadth-first order
    assert got == want


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_closure_matches_reference_on_random_generators(kind):
    """`groupoids._close_group` on random index-array generators over range(n)
    against the dict closure on the same permutations of named points: the
    same elements, named in the same breadth-first order, or the same
    `BoundExceeded`."""
    for gens, bound, want in random_closure_cases(kind):
        assert_closure_is(closure_outcome(close_indices, gens, bound), want, gens, DOMAINS[kind])


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("images,order", [([0, 1], 1), ([1, 0], 2)],
                         ids=["trivial", "two-element"])
def test_closure_counts_the_identity_against_the_bound_as_the_reference_does(
        images, order, bound):
    """The trivial group, from one identity generator, and a two-element
    group: the reference and `_close_group` both count the identity as an
    element, so both refuse every bound below the order and close from it on."""
    points = DOMAINS["int"][:2]
    gens = [np.array(images, dtype=np.uint8)]
    want = closure_outcome(reference_close_permutation_group,
                           {"q0": dict(zip(points, images))}, bound)
    assert (want is BoundExceeded) == (bound < order)
    assert_closure_is(closure_outcome(close_indices, gens, bound), want, gens, points)


# (subjects, attribute arities) of the ``symmetry`` benchmark workload
BENCHMARK_LANGUAGES = [(3, (2, 2)), (2, (2, 2, 2)), (3, (3, 2)), (4, (2, 2)), (3, (2, 2, 2))]


@functools.cache
def language_closure_cases(subjects, counts):
    """A language's generators over its state indices and the reference
    closure as an element matrix, rows in its breadth-first order."""
    gens = list(carnap._generator_indices(build_language(subjects, counts)).values())
    want = reference_close_permutation_group({k: dict(enumerate(g.tolist()))
                                              for k, g in enumerate(gens)})
    return gens, np.array([[image for _, image in sorted(perm)] for perm in want.values()])


def close_in_chunks(monkeypatch, gens, bound, rows):
    """`_close_group` with its product buffer cut down to ``rows`` rows of
    the breadth-first queue, so that a layer spans chunks and a chunk may
    end in the next layer."""
    monkeypatch.setattr(groupoids, "_CLOSE_CHUNK_BYTES", rows * len(gens) * gens[0].nbytes)
    return closure_outcome(close_indices, gens, bound)


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_closure_across_chunk_boundaries_matches_reference(monkeypatch, rows):
    """Chunks of a few queue rows give the reference's elements in its
    breadth-first order, and pass the bound where it does: on the random
    generators above, and on the five languages of the ``symmetry``
    benchmark, closed in full and cut at half their order and one below it
    (where the reference, which counts the same elements, raises too)."""
    for kind, points in DOMAINS.items():
        for gens, bound, want in random_closure_cases(kind):
            assert_closure_is(close_in_chunks(monkeypatch, gens, bound, rows), want, gens, points)
    for subjects, counts in BENCHMARK_LANGUAGES:
        gens, want = language_closure_cases(subjects, counts)
        order = len(want)
        got = close_in_chunks(monkeypatch, gens, order, rows)
        assert got.dtype == gens[0].dtype and np.array_equal(got, want)
        assert close_in_chunks(monkeypatch, gens, order // 2, rows) is BoundExceeded
        assert close_in_chunks(monkeypatch, gens, order - 1, rows) is BoundExceeded


@pytest.mark.parametrize("generators", [
    {"r": cyclic_perm([0, 1, 2])},
    {"r": cyclic_perm(["a", "b", "c", "d"])},
    {"s": {0: 1, 1: 0, 2: 2}, "t": {0: 0, 1: 2, 2: 1}},
], ids=["C3", "C4", "S3"])
def test_group_as_groupoid_tables_match_reference(generators):
    g = group_as_groupoid(generators)
    morphisms, comp, inv, ident = reference_group_tables(generators)
    assert g.morphisms == morphisms
    assert g.comp == comp
    assert g.inv == inv
    assert g.ident == {"*": ident}
    g.validate()
    assert len(to_library(g).lib.groups[0]) == len(morphisms)


def test_group_as_groupoid_where_str_and_natural_order_differ():
    g = group_as_groupoid({"r": cyclic_perm(list(range(11)))})    # "10" sorts before "2"
    assert len(g.morphisms) == 11
    g.validate()
    assert is_multifibration([lib_functor(table_identity(g))])


def closed_form_order(subjects, counts):
    """s! * prod(c!) * prod(run!) over runs of adjacent equal arities."""
    order = math.factorial(subjects) * math.prod(math.factorial(c) for c in counts)
    run = 1
    for a, b in zip(counts, counts[1:] + [None]):
        if a == b:
            run += 1
        else:
            order *= math.factorial(run)
            run = 1
    return order


@pytest.mark.parametrize("subjects,counts,order", [
    (3, [2, 2], 48), (2, [2, 2, 2], 96), (3, [3, 2], 72), (4, [2, 2], 192),
    (3, [2, 2, 2], 288), (1, [2, 3], 12)])
def test_symmetry_group_order_closed_form(subjects, counts, order):
    group = build_symmetry_group(build_language(subjects, counts))
    assert group.order == len(group.elements) == closed_form_order(subjects, counts) == order
