import dataclasses
import math
import random
from itertools import product as iproduct

import numpy as np
import pytest

from sheafnet import groupoids
from sheafnet.arch_site import FinitePoset
from sheafnet.carnap import _close_group, build_language, build_symmetry_group
from sheafnet.errors import BoundExceeded, GroupoidError
from sheafnet.groupoids import (
    AdjunctionReport,
    FiniteGroupoid,
    GroupoidFunctor,
    StackOverPoset,
    check_adjunction_and_section,
    check_fibrant_injective,
    discrete_groupoid,
    is_multifibration,
    lambda_transport,
    pair_groupoid,
    tau_transport,
)
from sheafnet.presheaf import Presheaf
from sheafnet.unionfind import UnionFind


def cyclic_perm(points):
    return {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}


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
    return FiniteGroupoid((obj,), morphisms, src, dst, comp, inv, {obj: "e"})


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
    return FiniteGroupoid(tuple(objects), tuple(morphisms), src, dst, comp, inv, ident)


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
    return FiniteGroupoid(objects, morphisms, src, dst, comp, inv, ident)


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
    return GroupoidFunctor.of(src, prod, omap, mmap)


def identity_functor(g):
    return GroupoidFunctor.of(g, g, {o: o for o in g.objects},
                              {m: m for m in g.morphisms})


def constant_functor(source, target, obj):
    return GroupoidFunctor.of(
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


# -- components ------------------------------------------------------------

def test_discrete_groupoid_components():
    g = discrete_groupoid(["a", "b", "c"])
    assert len(g.components()) == 3


def test_one_object_group_single_component():
    g = group_as_groupoid({"r": cyclic_perm([0, 1, 2])})
    assert len(g.components()) == 1
    assert len(g.morphisms) == 3  # C3


def test_pair_groupoid_composes_each_composable_pair_once():
    objects = ["a", "b", "c", "d", "e"]
    g = pair_groupoid(objects)
    expect = [(((b, c), (a, b2)), (a, c)) for a in objects for b2 in objects
              for b in objects for c in objects if b2 == b]
    assert list(g.comp.items()) == expect


def test_components_match_reachability_oracle():
    rng = random.Random(5)
    for _ in range(10):
        pieces = [pair_groupoid([f"{k}_{i}" for i in range(rng.randint(1, 3))])
                  for k in range(rng.randint(1, 3))]
        g = pieces[0]
        for piece in pieces[1:]:
            g = disjoint_union(g, piece, tags=(f"t{id(piece) % 97}", f"u{id(piece) % 89}"))
        assert g.components() == reachability_components_oracle(g)


# -- transports --------------------------------------------------------------

def powerset(items):
    items = list(items)
    for mask in range(2 ** len(items)):
        yield frozenset(x for i, x in enumerate(items) if (mask >> i) & 1)


def two_over_one_functor():
    src = discrete_groupoid(["x", "y"])
    dst = discrete_groupoid(["z"])
    return GroupoidFunctor.of(src, dst, {"x": "z", "y": "z"},
                              {("id", "x"): ("id", "z"), ("id", "y"): ("id", "z")})


def test_lambda_identity_and_collapse():
    g = discrete_groupoid(["a", "b"])
    ident = identity_functor(g)
    comps = g.components()
    for p in powerset(comps):
        assert lambda_transport(ident, p) == p
        assert tau_transport(ident, p) == p
    f = two_over_one_functor()
    cx, cy = f.source.components()
    assert lambda_transport(f, {cx}) == lambda_transport(f, {cy})


def test_tau_preimage_and_empty():
    f = two_over_one_functor()
    cz = f.target.components()[0]
    assert tau_transport(f, {cz}) == frozenset(f.source.components())
    assert tau_transport(f, frozenset()) == frozenset()


def test_adjunction_exhaustive_and_section():
    f = two_over_one_functor()
    report = check_adjunction_and_section(f)
    assert report.adjunction_ok and report.unit_ok
    assert report.surjective_on_components and report.section_ok


def test_non_surjective_functor_breaks_section_with_witness():
    src = discrete_groupoid(["x"])
    dst = discrete_groupoid(["u", "v"])
    f = GroupoidFunctor.of(src, dst, {"x": "u"}, {("id", "x"): ("id", "u")})
    report = check_adjunction_and_section(f)
    assert report.adjunction_ok and report.unit_ok
    assert not report.surjective_on_components
    assert not report.section_ok
    assert any(kind == "section" for kind, *_ in report.failures)


def test_lambda_tau_preserve_boolean_operations():
    f = two_over_one_functor()
    src_comps = f.source.components()
    dst_comps = f.target.components()
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
    cx, cy = f.source.components()
    lhs = lambda_transport(f, frozenset({cx}) & frozenset({cy}))
    rhs = lambda_transport(f, {cx}) & lambda_transport(f, {cy})
    assert lhs == frozenset() and rhs != frozenset()


def test_lambda_meet_preserved_for_component_injective_functors():
    src = discrete_groupoid(["x", "y"])
    dst = discrete_groupoid(["u", "v", "w"])
    f = GroupoidFunctor.of(src, dst, {"x": "u", "y": "w"},
                           {("id", "x"): ("id", "u"), ("id", "y"): ("id", "w")})
    comps = src.components()
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


def reference_check_adjunction_and_section(functor, component_bound=8):
    """Every pair of component sets as frozensets; failures hold frozensets."""
    lam, tau = reference_lambda_transport, reference_tau_transport
    src_comps = functor.source.components()
    dst_comps = functor.target.components()
    if len(src_comps) > component_bound or len(dst_comps) > component_bound:
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
    targets = dst.components()
    omap = {}
    for comp in src.components():
        into = rng.choice(targets)
        omap.update({o: rng.choice(into) for o in comp})
    # a pair groupoid per component: one morphism between any two of its objects
    hom = {(dst.src[f], dst.dst[f]): f for f in dst.morphisms}
    mmap = {m: hom[(omap[src.src[m]], omap[src.dst[m]])] for m in src.morphisms}
    return GroupoidFunctor.of(src, dst, omap, mmap)


def test_transports_match_frozenset_reference_on_random_functors():
    rng = random.Random(31)
    surjective = set()
    for _ in range(40):
        f = random_functor(rng)
        report = check_adjunction_and_section(f)
        failures = tuple((kind, *map(frozenset, subsets)) for kind, *subsets in report.failures)
        assert dataclasses.replace(report, failures=failures) == \
            reference_check_adjunction_and_section(f)
        surjective.add(report.surjective_on_components)
        for p in powerset(f.source.components()):
            assert lambda_transport(f, p) == reference_lambda_transport(f, p)
        for q in powerset(f.target.components()):
            assert tau_transport(f, q) == reference_tau_transport(f, q)
    assert surjective == {True, False}


def test_failures_list_components_in_components_order():
    src = discrete_groupoid(["x"])
    dst = discrete_groupoid(["w", "v", "u"])
    f = GroupoidFunctor.of(src, dst, {"x": "u"}, {("id", "x"): ("id", "u")})
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


def test_components_computed_once_per_groupoid(monkeypatch):
    built = []

    def counting_union_find(objects):
        built.append(objects)
        return UnionFind(objects)

    monkeypatch.setattr(groupoids, "UnionFind", counting_union_find)
    f = random_functor(random.Random(2))
    for _ in range(3):
        check_adjunction_and_section(f)
        lambda_transport(f, f.source.components())
        tau_transport(f, f.target.components())
    assert len(built) == 2


def test_adjunction_check_bound():
    f = random_functor(random.Random(0))
    with pytest.raises(BoundExceeded):
        check_adjunction_and_section(f, component_bound=0)


# -- fibrations ---------------------------------------------------------------

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


def test_one_functor_multifibration_is_the_isofibration_test():
    """Counting the lifts of one functor is the isofibration test: on random
    functors between unions of pair groupoids, and into and out of groups."""
    rng = random.Random(31)
    functors = [random_functor(rng) for _ in range(150)]
    for _ in range(150):
        src = random_component_groupoid(rng, "s", 3)
        functors.append(random_functor_from(rng, src, "t", 3))
    c2 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    disc = discrete_groupoid(["*"])
    functors += [identity_functor(c2), constant_functor(disc, c2, "*"),
                 GroupoidFunctor.of(c2, disc, {"*": "*"}, {m: ("id", "*") for m in c2.morphisms})]
    verdicts = [is_fibration(f) for f in functors]
    assert [is_multifibration([f]) for f in functors] == verdicts
    assert 0 < sum(verdicts) < len(verdicts)


def test_identity_is_fibration():
    g = group_as_groupoid({"r": cyclic_perm([0, 1, 2])})
    assert is_fibration(identity_functor(g))


def test_proper_subgroup_inclusion_is_not_fibration():
    big = group_as_groupoid({"r": cyclic_perm([0, 1, 2, 3])})        # C4
    sub = group_as_groupoid({"r": cyclic_perm([0, 2]) | {1: 3, 3: 1}})  # squares: C2
    # embed C2 = {e, (02)(13)} into C4's morphisms
    square = {v: cyclic_perm([0, 1, 2, 3])[cyclic_perm([0, 1, 2, 3])[v]] for v in range(4)}
    name_of = {}

    big_elems = {k: dict(p) for k, p in reference_close_permutation_group(
        {"r": cyclic_perm([0, 1, 2, 3])}).items()}
    sub_elems = {k: dict(p) for k, p in reference_close_permutation_group(
        {"r": {0: 2, 2: 0, 1: 3, 3: 1}}).items()}
    for sk, sp in sub_elems.items():
        name_of[sk] = next(bk for bk, bp in big_elems.items() if bp == sp)
    f = GroupoidFunctor.of(sub, big, {"*": "*"}, name_of)
    assert not is_fibration(f)


def test_product_projection_is_fibration_and_multifibration():
    g1 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    g2 = group_as_groupoid({"r": cyclic_perm(["a", "b", "c"])})
    prod = product_groupoid(g1, g2)
    proj1 = GroupoidFunctor.of(prod, g1, {o: o[0] for o in prod.objects},
                               {m: m[0] for m in prod.morphisms})
    proj2 = GroupoidFunctor.of(prod, g2, {o: o[1] for o in prod.objects},
                               {m: m[1] for m in prod.morphisms})
    assert is_fibration(proj1) and is_fibration(proj2)
    assert is_multifibration([proj1, proj2])


def random_functor_from(rng, src, name, max_components):
    """A functor from ``src`` into a random groupoid of pair groupoids: each
    source component goes into one target component, half the time onto all
    of its objects when it has enough of them."""
    dst = random_component_groupoid(rng, name, max_components)
    targets = dst.components()
    omap = {}
    for comp in src.components():
        into = rng.choice(targets)
        images = [rng.choice(into) for _ in comp]
        if rng.random() < 0.5 and len(comp) >= len(into):
            images[:len(into)] = into
            rng.shuffle(images)
        omap.update(zip(comp, images))
    hom = {(dst.src[f], dst.dst[f]): f for f in dst.morphisms}
    mmap = {m: hom[(omap[src.src[m]], omap[src.dst[m]])] for m in src.morphisms}
    return GroupoidFunctor.of(src, dst, omap, mmap)


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
        verdicts.append(is_multifibration(functors))
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
    proj_inner = GroupoidFunctor.of(outer, inner, {o: o[1] for o in outer.objects},
                                    {m: m[1] for m in outer.morphisms})
    proj_g2 = GroupoidFunctor.of(inner, g2, {o: o[0] for o in inner.objects},
                                 {m: m[0] for m in inner.morphisms})
    assert is_fibration(proj_inner) and is_fibration(proj_g2)
    composed = GroupoidFunctor.of(
        outer, g2,
        {o: proj_g2.object_map[proj_inner.object_map[o]] for o in outer.objects},
        {m: proj_g2.morphism_map[proj_inner.morphism_map[m]] for m in outer.morphisms})
    assert is_fibration(composed)


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
    g1 = group_as_groupoid({"r": cyclic_perm([0, 1])})
    fibers = {0: g1, 1: g1}
    good = StackOverPoset(poset, fibers, {(0, 1): identity_functor(g1)})
    assert check_fibrant_injective(good).fibrant
    disc = discrete_groupoid(["*"])
    # collapse C2 onto the trivial groupoid: morphisms cannot lift
    to_triv = GroupoidFunctor.of(g1, disc, {"*": "*"},
                                 {m: ("id", "*") for m in g1.morphisms})
    up = StackOverPoset(poset, {0: disc, 1: g1},
                        {(0, 1): to_triv})
    assert check_fibrant_injective(up).fibrant  # surjective on lifts: all collapse fine
    down = StackOverPoset(poset, {0: g1, 1: disc},
                          {(0, 1): constant_functor(disc, g1, "*")})
    assert not check_fibrant_injective(down).fibrant  # nontrivial loop has no lift


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
    small, big = discrete_groupoid(["*"]), pair_groupoid(["a", "b"])
    # fiber(1) -> fiber(0) is required; this one runs fiber(0) -> fiber(1)
    backwards = constant_functor(small, big, "a")
    with pytest.raises(GroupoidError, match="has wrong endpoints"):
        StackOverPoset(FinitePoset.chain(1), {0: small, 1: big}, {(0, 1): backwards})


def test_stack_functoriality_clash_on_diamond():
    # two cover paths 0 < 1 < 3 and 0 < 2 < 3 sending t to different objects
    poset = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    fibers = {0: discrete_groupoid(["x", "y"]), 1: discrete_groupoid(["u"]),
              2: discrete_groupoid(["v"]), 3: discrete_groupoid(["t"])}

    def glue(y, x, obj):
        return constant_functor(fibers[y], fibers[x], obj)

    agreeing = {(0, 1): glue(1, 0, "x"), (0, 2): glue(2, 0, "x"),
                (1, 3): glue(3, 1, "u"), (2, 3): glue(3, 2, "v")}
    stack = StackOverPoset(poset, fibers, agreeing)
    assert stack.restriction(0, 3).object_map == {"t": "x"}
    clashing = {**agreeing, (0, 2): glue(2, 0, "y")}
    with pytest.raises(GroupoidError, match="between 0 and 3"):
        StackOverPoset(poset, fibers, clashing)


# -- group closure ----------------------------------------------------------------

def reference_close_permutation_group(generators, bound=10_000):
    """The closure as first written: every permutation a tuple of (x, image)
    pairs sorted by str, re-sorted after every product."""
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


# how the reference names the points 0..n-1 of the index-array generators
DOMAINS = {
    "int": list(range(7)),
    "str": [f"s{i}" for i in range(6)],
}


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_closure_matches_reference_on_random_generators(kind):
    """`carnap._close_group` on random index-array generators over range(n)
    against the dict closure on the same permutations of named points: the
    same elements, named in the same breadth-first order, or the same
    `BoundExceeded`."""
    rng = random.Random(sorted(DOMAINS).index(kind))
    points = DOMAINS[kind]
    n = len(points)
    for _ in range(25):
        gens = [np.array(rng.sample(range(n), n), dtype=np.min_scalar_type(n - 1))
                for _ in range(rng.randint(1, 3))]
        bound = rng.choice([60, 10_000])
        want = closure_outcome(reference_close_permutation_group,
                               {f"q{k}": dict(zip(points, (points[i] for i in g.tolist())))
                                for k, g in enumerate(gens)}, bound)
        got = closure_outcome(_close_group, gens, bound)
        if isinstance(got, np.ndarray):
            assert got.dtype == gens[0].dtype and got.shape == (len(got), n)
            got = {f"g{r}" if r else "e": tuple(sorted(
                       ((points[i], points[j]) for i, j in enumerate(row)),
                       key=lambda kv: str(kv[0])))
                   for r, row in enumerate(got.tolist())}
            assert list(got) == list(want)      # names in breadth-first order
        assert got == want


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


def test_group_as_groupoid_where_str_and_natural_order_differ():
    g = group_as_groupoid({"r": cyclic_perm(list(range(11)))})    # "10" sorts before "2"
    assert len(g.morphisms) == 11
    g.validate()


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
