import json
import math
import random
from itertools import product as iproduct

import pytest

from sheafnet import heyting as hey
from sheafnet import verify
from sheafnet.arch_site import FinitePoset, SiteGraph, build_poset, fork_surgery, open_masks
from sheafnet.cli import main
from sheafnet.data import fixture_graph
from sheafnet.errors import BoundExceeded, PosetError, PresheafError
from sheafnet.groupoids import check_fibrant_injective
from sheafnet.presheaf import (
    Presheaf,
    SectionSet,
    _output_elements,
    cats_manifold,
    elements_poset,
    sections,
    sheafify_at_forks,
    standard_feedforward_presheaf,
)
from sheafnet.verify import _random_layered_architecture


def brute_force_sections(p):
    """Oracle: filter the full product of carriers on the defining property."""
    poset = p.poset
    out = []
    for combo in iproduct(*(p.carriers[x] for x in poset.elements)):
        s = dict(zip(poset.elements, combo))
        ok = all(p.restrict(x, y, s[y]) == s[x]
                 for x in poset.elements for y in poset.elements
                 if x != y and poset.leq(x, y))
        if ok:
            out.append(s)
    return out


def restriction_map(p, x, y):
    """The restriction x <= y of ``p`` as a dict of labels, state by state."""
    return {s: p.restrict(x, y, s) for s in p.carriers[y]}


def reference_sections(p, bound=10**6):
    """The join on labelled dicts that the index join replaced: each maximal
    element's states, as dicts of their images, bucketed by their images on
    the elements already assigned; rows sorted by the ``str`` of their
    states."""
    poset, partial, assigned, joined = p.poset, [{}], set(), 0
    for m in poset.maximal():
        down = poset.down_mask(m)
        below = [x for i, x in enumerate(poset.elements) if down >> i & 1]
        shared = [x for x in below if x in assigned]
        maps = {x: restriction_map(p, x, m) for x in below}
        buckets = {}
        for s in p.carriers[m]:
            image = {x: maps[x][s] for x in below}
            buckets.setdefault(tuple(image[x] for x in shared), []).append(image)
        extended = []
        for section in partial:
            bucket = buckets.get(tuple(section[x] for x in shared), ())
            joined += len(bucket)
            if joined > bound:
                raise BoundExceeded(f"section search explored more than {bound} candidates")
            extended += [{**section, **image} for image in bucket]
        partial = extended
        assigned.update(below)
    partial.sort(key=lambda s: tuple(str(s[x]) for x in poset.elements))
    return SectionSet(tuple(poset.elements), tuple(partial))


def chain_presheaf(sizes, rng):
    """Random presheaf on the total order with len(sizes) levels; data flows
    from the last (maximal) element down to the first."""
    n = len(sizes) - 1
    poset = FinitePoset.chain(n)
    carriers = {i: tuple(f"s{i}_{k}" for k in range(sizes[i])) for i in range(n + 1)}
    maps = {}
    for i in range(n):
        maps[(i, i + 1)] = {s: rng.choice(carriers[i]) for s in carriers[i + 1]}
    return Presheaf(poset, carriers, maps)


# -- construction and validation --------------------------------------------

def test_missing_map_rejected():
    poset = FinitePoset.chain(1)
    with pytest.raises(PresheafError):
        Presheaf(poset, {0: ("a",), 1: ("b",)}, {})


def test_non_total_map_rejected():
    poset = FinitePoset.chain(1)
    with pytest.raises(PresheafError):
        Presheaf(poset, {0: ("a",), 1: ("b", "c")}, {(0, 1): {"b": "a"}})


def test_functoriality_clash_detected():
    # two cover paths 0 < 1 < 3 and 0 < 2 < 3 composing differently
    poset = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    carriers = {0: ("x", "y"), 1: ("u",), 2: ("v",), 3: ("t",)}
    maps = {
        (0, 1): {"u": "x"},
        (0, 2): {"v": "y"},
        (1, 3): {"t": "u"},
        (2, 3): {"t": "v"},
    }
    with pytest.raises(PresheafError):
        Presheaf(poset, carriers, maps)


# -- sections -----------------------------------------------------------------

def test_sections_chain_one_per_input_state():
    rng = random.Random(0)
    p = chain_presheaf([2, 2, 3], rng)  # maximal element has 3 states
    secs = sections(p)
    assert len(secs) == 3
    assert [dict(s) for s in secs] == sorted(
        brute_force_sections(p), key=lambda s: tuple(str(s[x]) for x in p.poset.elements))


def test_sections_empty_carrier_gives_zero():
    poset = FinitePoset.chain(1)
    p = Presheaf(poset, {0: (), 1: ()}, {(0, 1): {}})
    assert len(sections(p)) == 0


def tree_presheaf(rng, upward):
    """Random presheaf on a random rooted tree poset, whose order paths are
    unique, so any maps are functorial.  Each element but the root has one
    lower cover if ``upward`` (many maximal elements sharing ancestors),
    else one upper cover (one maximal element)."""
    n = rng.randint(2, 6)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    poset = FinitePoset(range(n), edges if upward else [(j, i) for i, j in edges])
    carriers = {x: tuple(f"s{x}_{k}" for k in range(rng.randint(1, 3))) for x in range(n)}
    maps = {(x, y): {s: rng.choice(carriers[x]) for s in carriers[y]}
            for x, y in poset.covering()}
    return Presheaf(poset, carriers, maps)


def random_standard_presheaf(fg, rng, size):
    """The standard feed-forward sheaf of ``fg`` with ``size()`` states on
    each carrier and random maps."""
    tangs = set(fg.tangs())
    carriers = {v: tuple(f"{v}:{k}" for k in range(size()))
                for v in build_poset(fg).elements if v not in tangs}
    edge_maps = {(u, v): {s: rng.choice(carriers[v]) for s in carriers[u]}
                 for u, v in fg.arrows if u in carriers and v in carriers}
    handle_maps = {f.tang: {t: rng.choice(carriers[f.handle])
                            for t in iproduct(*(carriers[t] for t in f.tips))}
                   for f in fg.forks}
    return standard_feedforward_presheaf(fg, carriers, edge_maps, handle_maps)


def test_sections_match_bruteforce_on_random_presheaves():
    rng = random.Random(42)
    cases = [chain_presheaf([rng.randint(1, 3) for _ in range(rng.randint(2, 4))], rng)
             for _ in range(20)]
    cases += [tree_presheaf(rng, upward) for upward in (True, False) for _ in range(20)]
    cases += [random_standard_presheaf(fork_surgery(_random_layered_architecture(rng, 3)),
                                       rng, lambda: rng.randint(1, 2)) for _ in range(20)]
    for p in cases:
        assert math.prod(len(c) for c in p.carriers.values()) <= 2**14
        got = [dict(s) for s in sections(p)]
        expect = brute_force_sections(p)
        assert len(got) == len(expect)
        for s in expect:
            assert s in got


def ladder_presheaf(inputs, rng, layers=6, width=3, states=4):
    """The standard sheaf of a network of fully connected layers: ``inputs``
    inputs, then layers of ``width`` vertices, ``states`` states on every
    carrier and random maps."""
    names = [[f"i{j}" for j in range(inputs)]]
    names += [[f"l{d}_{j}" for j in range(width)] for d in range(1, layers)]
    edges = [(u, v) for lower, upper in zip(names, names[1:]) for u in lower for v in upper]
    g = SiteGraph.build([v for layer in names for v in layer], edges)
    return random_standard_presheaf(fork_surgery(g), rng, lambda: states)


@pytest.mark.parametrize("inputs", [5, 6])
def test_ladder_sections_under_the_default_bound(inputs):
    """One section per input state: 4^inputs, found under the default bound
    although each first-layer tang carries 4^inputs states."""
    p = ladder_presheaf(inputs, random.Random(inputs))
    secs = sections(p)
    assert len(secs) == 4 ** inputs
    inputs_of = {tuple(s[f"i{j}"] for j in range(inputs)) for s in secs}
    assert len(inputs_of) == 4 ** inputs
    assert all(p.restrict(x, y, s[y]) == s[x] for s in secs for x, y in p.poset.covering())


def nan_presheaf():
    """A state not equal to itself: one NaN object is the state of the
    bottom of a V and the image of both restrictions into it."""
    nan = float("nan")
    poset = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    return Presheaf(poset, {"a": (nan,), "b": ("u",), "c": ("v",)},
                    {("a", "b"): {"u": nan}, ("a", "c"): {"v": nan}})


def test_sections_match_the_labelled_join():
    """Values and dict key order, row by row, and what the bound counts."""
    rng = random.Random(42)
    cases = [chain_presheaf([rng.randint(1, 3) for _ in range(rng.randint(2, 4))], rng)
             for _ in range(20)]
    cases += [tree_presheaf(rng, upward) for upward in (True, False) for _ in range(20)]
    cases += [random_standard_presheaf(fork_surgery(_random_layered_architecture(rng, 3)),
                                       rng, lambda: rng.randint(1, 2)) for _ in range(20)]
    cases += [ladder_presheaf(n, random.Random(n)) for n in (5, 6)]
    cases += [nan_presheaf(), Presheaf(FinitePoset.chain(1), {0: (), 1: ()}, {(0, 1): {}}),
              Presheaf(FinitePoset([], []), {}, {})]
    for p in cases:
        got, want = sections(p), reference_sections(p)
        assert got.elements == want.elements
        assert [list(s.items()) for s in got] == [list(s.items()) for s in want]
    assert len(sections(nan_presheaf())) == 1
    for p in cases[:60]:
        for bound in range(12):
            try:
                want = reference_sections(p, bound)
            except BoundExceeded:
                with pytest.raises(BoundExceeded, match=f"more than {bound} candidates"):
                    sections(p, bound)
            else:
                assert sections(p, bound) == want


def test_sections_decode_the_carriers_labels():
    """A map may name an image by an equal value of another type; sections
    and `restrict` give the carrier's own state."""
    p = Presheaf(FinitePoset.chain(1), {0: (1, 2), 1: ("u", "v")}, {(0, 1): {"u": 1.0, "v": True}})
    secs = sections(p)
    assert [list(s.items()) for s in secs] == [[(0, 1), (1, "u")], [(0, 1), (1, "v")]]
    assert all(type(s[0]) is int for s in secs)
    assert all(type(p.restrict(0, 1, s)) is int for s in ("u", "v"))
    assert p.index_maps[(0, 1)] == (0, 0) and p.index_maps[(1, 1)] == (0, 1)


def test_the_library_never_decodes_state_by_state(monkeypatch, tmp_path):
    """`restrict` is for callers; the library reads the index maps."""
    def refuse(*args):
        raise AssertionError("Presheaf.restrict called")

    rng = random.Random(3)
    fg, p = fork_fixture(rng)
    confluence = two_output_presheaf(rng)
    monkeypatch.setattr(Presheaf, "restrict", refuse)
    assert len(sections(p)) == 2 and len(sections(confluence)) > 0
    assert len(cats_manifold(p, {"b": ["o0"]})) <= 2
    assert len(elements_poset(p).elements) == sum(map(len, p.carriers.values()))
    for diagram in (p, confluence, sheafify_at_forks(p, fg)):
        check_fibrant_injective(diagram)
    assert verify.criterion_09(0).passed and verify.criterion_15(0).passed
    doc = {"poset": {"elements": ["l", "r", "t"], "leq": [["l", "t"], ["r", "t"]]},
           "carriers": {"l": ["a", "b"], "r": ["c"], "t": ["u", "v"]},
           "maps": {"l<=t": {"u": "a", "v": "b"}, "r<=t": {"u": "c", "v": "c"}}}
    (tmp_path / "p.json").write_text(json.dumps(doc))
    (tmp_path / "pred.json").write_text(json.dumps({"l": ["a"]}))
    for argv in (["sections", "--in", str(tmp_path / "p.json")],
                 ["cats-manifold", "--in", str(tmp_path / "p.json"),
                  "--predicate", str(tmp_path / "pred.json")],
                 ["stack", "check-fibrant", "--in", str(tmp_path / "p.json")]):
        assert main(argv) == 0


def test_sections_bound():
    rng = random.Random(1)
    p = chain_presheaf([2, 4], rng)
    with pytest.raises(BoundExceeded):
        sections(p, bound=3)


def fork_fixture(rng=None, tip_sizes=(2, 3), handle_size=2):
    """Surgered diamond with supplied carriers; returns (fg, presheaf)."""
    rng = rng or random.Random(0)
    g = fixture_graph("diamond")
    fg = fork_surgery(g)
    carriers = {
        "x0": ("p", "q"),
        "a1": tuple(f"a{k}" for k in range(tip_sizes[0])),
        "a2": tuple(f"b{k}" for k in range(tip_sizes[1])),
        "b": tuple(f"o{k}" for k in range(handle_size)),
    }
    edge_maps = {
        ("x0", "a1"): {s: rng.choice(carriers["a1"]) for s in carriers["x0"]},
        ("x0", "a2"): {s: rng.choice(carriers["a2"]) for s in carriers["x0"]},
    }
    tang = fg.tangs()[0]
    tuples = list(iproduct(carriers["a1"], carriers["a2"]))
    handle_maps = {tang: {t: rng.choice(carriers["b"]) for t in tuples}}
    p = standard_feedforward_presheaf(fg, carriers, edge_maps, handle_maps)
    return fg, p


def test_standard_sheaf_sections_count_is_input_product():
    fg, p = fork_fixture()
    assert len(sections(p)) == 2  # one input layer with two states


def test_sections_of_standard_sheaf_random_instances():
    rng = random.Random(9)
    for _ in range(10):
        fg, p = fork_fixture(rng, tip_sizes=(rng.randint(1, 3), rng.randint(1, 3)),
                             handle_size=rng.randint(1, 3))
        assert len(sections(p)) == 2
        got = [dict(s) for s in sections(p)]
        for s in brute_force_sections(p):
            assert s in got


def test_standard_sheaf_tips_minted_by_surgery_inherit_the_input_carrier():
    # x and h feed the join y directly, so surgery mints the tips x' and h'
    fg = fork_surgery(SiteGraph.build(["x", "h", "y"], [("x", "y"), ("h", "y")]))
    assert set(fg.vertices) - set(fg.origin.vertices) == {"x'", "h'", "y*", "y^"}
    carriers = {"x": ("x0", "x1"), "h": ("h0", "h1", "h2"), "y": ("y0",)}
    tuples = iproduct(carriers["x"], carriers["h"])
    p = standard_feedforward_presheaf(fg, carriers, {}, {"y^": {t: "y0" for t in tuples}})
    assert p.carriers["x'"] == carriers["x"] and p.carriers["h'"] == carriers["h"]
    assert restriction_map(p, "x'", "x") == {"x0": "x0", "x1": "x1"}
    assert len(sections(p)) == 6


@pytest.mark.parametrize("name", ["ab", "b"])
def test_standard_sheaf_vertex_without_carrier_is_an_error(name):
    """Only the tips that surgery mints inherit a carrier; an architecture
    vertex fed by ``a`` does not, whatever its name."""
    fg = fork_surgery(SiteGraph.build(["a", name], [("a", name)]))
    with pytest.raises(PresheafError, match=f"no carrier for vertex '{name}'"):
        standard_feedforward_presheaf(fg, {"a": ("0", "1")}, {}, {})


def test_standard_sheaf_missing_edge_map_is_an_error():
    fg = fork_surgery(SiteGraph.build(["a", "b"], [("a", "b")]))
    with pytest.raises(PresheafError, match=r"no edge map for \('a', 'b'\)"):
        standard_feedforward_presheaf(fg, {"a": ("0", "1"), "b": ("x",)}, {}, {})


def diamond_maps():
    """Carriers and edge maps of the surgered diamond, whose one tang b^ has
    the tips a1 and a2."""
    fg = fork_surgery(fixture_graph("diamond"))
    carriers = {"x0": ("p",), "a1": ("a",), "a2": ("b", "c"), "b": ("o",)}
    edge_maps = {("x0", "a1"): {"p": "a"}, ("x0", "a2"): {"p": "b"}}
    return fg, carriers, edge_maps


def test_standard_sheaf_missing_handle_map_is_an_error():
    fg, carriers, edge_maps = diamond_maps()
    with pytest.raises(PresheafError, match=r"no handle map for tang 'b\^'"):
        standard_feedforward_presheaf(fg, carriers, edge_maps, {})


def test_standard_sheaf_handle_map_missing_a_tip_tuple_is_an_error():
    fg, carriers, edge_maps = diamond_maps()
    with pytest.raises(PresheafError, match=r"undefined on \[\"\('a', 'b'\)\"\]"):
        standard_feedforward_presheaf(fg, carriers, edge_maps, {"b^": {("a", "c"): "o"}})


def test_spontaneous_activity_changes_section_count():
    """A non-product tang map (extra internal source) breaks the input-product
    count; enumeration is the authority."""
    g = fixture_graph("diamond")
    fg = fork_surgery(g)
    poset = build_poset(fg)
    tang = fg.tangs()[0]
    carriers = {
        "x0": ("p",),
        "a1": ("a0", "a1"),
        "a2": ("b0",),
        "b": ("o0", "o1"),
        tang: ("m0", "m1", "m2"),  # three internal modulation states
    }
    maps = {}
    for x, y in poset.covering():
        if y == tang:
            if x == "a1":
                maps[(x, y)] = {"m0": "a0", "m1": "a0", "m2": "a1"}
            elif x == "a2":
                maps[(x, y)] = {"m0": "b0", "m1": "b0", "m2": "b0"}
            else:  # handle b
                maps[(x, y)] = {"m0": "o0", "m1": "o1", "m2": "o1"}
        elif (y, x) == ("x0", "a1"):
            maps[(x, y)] = {"p": "a0"}
        else:
            maps[(x, y)] = {"p": "b0"}
    p = Presheaf(poset, carriers, maps)
    secs = sections(p)
    assert len(secs) == len(brute_force_sections(p)) == 2  # m0 and m1 both cohere
    assert len(secs) != 1  # input product would give 1


# -- sheafification -----------------------------------------------------------

def constant_presheaf(poset, states):
    """Every carrier ``states``, every restriction the identity."""
    states = tuple(states)
    return Presheaf(poset, {x: states for x in poset.elements},
                    {pair: {s: s for s in states} for pair in poset.covering()})


def test_sheafify_chain_unchanged():
    g = fixture_graph("chain")
    fg = fork_surgery(g)
    poset = build_poset(fg)
    p = constant_presheaf(poset, ("c0", "c1"))
    big = sheafify_at_forks(p, fg)
    assert set(big.poset.elements) == set(poset.elements)
    assert big.carriers == p.carriers


def test_sheafify_star_value_is_product():
    fg, p = fork_fixture(tip_sizes=(2, 3))
    big = sheafify_at_forks(p, fg)
    star = fg.stars()[0]
    assert len(big.carriers[star]) == 6
    assert len(sections(big)) == len(sections(p))


def test_sheafify_constant_presheaf_diagonal():
    g = fixture_graph("diamond")
    fg = fork_surgery(g)
    poset = build_poset(fg)
    p = constant_presheaf(poset, ("c0", "c1"))
    big = sheafify_at_forks(p, fg)
    star, tang = fg.stars()[0], fg.tangs()[0]
    m = restriction_map(big, star, tang)
    assert m == {"c0": ("c0", "c0"), "c1": ("c1", "c1")}


# -- cat's manifolds ------------------------------------------------------------

def terminal_fork_cats_manifold(presheaf, out_predicate, bound=10**6):
    """Reference: the cat's manifold as the sections of the site extended by
    a terminal fork (product of the outputs, a two-state truth layer and a
    singleton forcing "true"), the construction of the paper."""
    outputs = _output_elements(presheaf)
    for el in out_predicate:
        if el not in outputs:
            raise PresheafError(f"predicate on non-output element {el!r}")
    accepted = {el: frozenset(out_predicate.get(el, presheaf.carriers[el]))
                for el in outputs}
    for el, acc in accepted.items():
        bad = acc - set(presheaf.carriers[el])
        if bad:
            raise PresheafError(f"predicate states {sorted(map(str, bad))} not in F({el!r})")

    poset = presheaf.poset
    b, wb, w1 = "__B", "__wb", "__w1"
    rel = [(x, y) for x in poset.elements for y in poset.elements
           if x != y and poset.leq(x, y)]
    rel += [(o, b) for o in outputs]
    rel += [(wb, b), (wb, w1)]
    big = FinitePoset(list(poset.elements) + [b, wb, w1], rel)
    carriers = {x: presheaf.carriers[x] for x in poset.elements}
    carriers[b] = tuple(iproduct(*(presheaf.carriers[o] for o in outputs)))
    carriers[wb] = (False, True)
    carriers[w1] = ("*",)
    maps = {}
    for x, y in big.covering():
        if y == b:
            if x == wb:
                maps[(x, y)] = {
                    tup: all(s in accepted[o] for o, s in zip(outputs, tup))
                    for tup in carriers[b]}
            else:
                pos = outputs.index(x)
                maps[(x, y)] = {tup: tup[pos] for tup in carriers[b]}
        elif y == w1:
            maps[(x, y)] = {"*": True}
        else:
            maps[(x, y)] = restriction_map(presheaf, x, y)
    extended = Presheaf(big, carriers, maps)
    secs = sections(extended, bound)
    kept = [{x: s[x] for x in poset.elements} for s in secs]
    kept.sort(key=lambda s: tuple(str(s[x]) for x in poset.elements))
    return SectionSet(tuple(poset.elements), tuple(kept))


def test_cats_manifold_top_and_bottom():
    fg, p = fork_fixture()
    full = sections(p)
    assert cats_manifold(p, {}).tuples == full.tuples
    empty = cats_manifold(p, {"b": []})
    assert len(empty) == 0


def test_cats_manifold_matches_filter_oracle():
    rng = random.Random(23)
    for _ in range(8):
        fg, p = fork_fixture(rng, tip_sizes=(rng.randint(1, 3), rng.randint(1, 3)),
                             handle_size=2)
        pred = {"b": ["o0"]}
        got = cats_manifold(p, pred)
        expect = [s for s in sections(p) if s["b"] == "o0"]
        assert list(got.tuples) == expect
        assert all(s in list(sections(p)) for s in got)


def random_predicate(p, rng):
    """Each output left out, or given a random (possibly empty) accepted set."""
    pred = {}
    for el in _output_elements(p):
        if rng.random() < 0.8:
            states = p.carriers[el]
            pred[el] = rng.sample(states, rng.randint(0, len(states)))
    return pred


def two_output_presheaf(rng):
    """Random presheaf on l < t > r, whose outputs are the minimal l and r."""
    poset = FinitePoset(["l", "r", "t"], [("l", "t"), ("r", "t")])
    carriers = {x: tuple(f"{x}{k}" for k in range(rng.randint(1, 3))) for x in poset.elements}
    maps = {(x, "t"): {s: rng.choice(carriers[x]) for s in carriers["t"]} for x in ("l", "r")}
    return Presheaf(poset, carriers, maps)


def test_cats_manifold_matches_terminal_fork_reference():
    rng = random.Random(23)
    # the fixtures of test_cats_manifold_matches_filter_oracle, with its predicate
    fixtures = [fork_fixture(rng, tip_sizes=(rng.randint(1, 3), rng.randint(1, 3)),
                             handle_size=2)[1] for _ in range(8)]
    checks = [(p, {"b": ["o0"]}) for p in fixtures]
    cases = fixtures + [fork_fixture()[1], xor_presheaf(), diamond_presheaf(rng)]
    cases += [fork_fixture(rng, tip_sizes=(rng.randint(1, 3), rng.randint(1, 3)),
                           handle_size=rng.randint(1, 3))[1] for _ in range(10)]
    cases += [two_output_presheaf(rng) for _ in range(10)]
    for p in cases:
        checks += [(p, {})] + [(p, random_predicate(p, rng)) for _ in range(4)]
    for p, pred in checks:
        assert cats_manifold(p, pred) == terminal_fork_cats_manifold(p, pred)


def string_labelled(p):
    """``p`` on the strings of its poset elements."""
    covering = p.poset.covering()
    poset = FinitePoset([str(x) for x in p.poset.elements],
                        [(str(x), str(y)) for x, y in covering])
    return Presheaf(poset, {str(x): c for x, c in p.carriers.items()},
                    {(str(x), str(y)): restriction_map(p, x, y) for x, y in covering})


def test_cats_manifold_on_integer_elements_matches_the_reference():
    """The reference adds string elements to the poset, which fails to order
    them among integer ones, so it runs on the same presheaf with string
    elements."""
    rng = random.Random(4)
    cases = [chain_presheaf([rng.randint(1, 3) for _ in range(rng.randint(1, 4))], rng)
             for _ in range(10)]
    cases += [small_presheaf(rng) for _ in range(5)]
    cases.append(Presheaf(FinitePoset.chain(1), {0: (), 1: ()}, {(0, 1): {}}))
    for p in cases:
        for pred in [{}] + [random_predicate(p, rng) for _ in range(4)]:
            got = cats_manifold(p, pred)
            expect = terminal_fork_cats_manifold(
                string_labelled(p), {str(x): acc for x, acc in pred.items()})
            assert [{str(x): v for x, v in s.items()} for s in got] == list(expect)


def test_cats_manifold_rejects_foreign_states_like_the_reference():
    fg, p = fork_fixture()
    for manifold in (cats_manifold, terminal_fork_cats_manifold):
        with pytest.raises(PresheafError, match=r"predicate states \['zz'\] not in F\('b'\)"):
            manifold(p, {"b": ["o0", "zz"]})


def test_cats_manifold_bound_is_the_section_bound():
    fg, p = fork_fixture()
    for bound in range(20):      # the join needs 4 candidates
        try:
            expect = sections(p, bound)
        except BoundExceeded:
            with pytest.raises(BoundExceeded):
                cats_manifold(p, {}, bound=bound)
        else:
            assert cats_manifold(p, {}, bound=bound) == expect


def test_cats_manifold_rejects_non_output_predicate():
    fg, p = fork_fixture()
    with pytest.raises(PresheafError):
        cats_manifold(p, {"a1": ["a0"]})


def xor_presheaf():
    """Two binary inputs and output w = XOR of them."""
    g = SiteGraph.build(["u", "v", "w"], [("u", "w"), ("v", "w")])
    fg = fork_surgery(g)
    tang = fg.tangs()[0]
    carriers = {"u": (0, 1), "v": (0, 1), "w": (0, 1)}
    handle_maps = {tang: {t: (t[0] ^ t[1]) for t in iproduct((0, 1), (0, 1))}}
    return standard_feedforward_presheaf(fg, carriers, {}, handle_maps)


def test_cats_manifold_xor_preimage():
    """Predicate output=1 picks the odd input pairs."""
    p = xor_presheaf()
    hits = cats_manifold(p, {"w": [1]})
    assert len(hits) == 2
    assert sorted((s["u"], s["v"]) for s in hits) == [(0, 1), (1, 0)]


# -- subobjects ------------------------------------------------------------------

def small_presheaf(rng):
    p = chain_presheaf([rng.randint(1, 2) for _ in range(rng.randint(2, 3))], rng)
    return p


def test_subobject_stability_enforced():
    rng = random.Random(2)
    poset = FinitePoset.chain(1)
    p = Presheaf(poset, {0: ("x", "y"), 1: ("s",)}, {(0, 1): {"s": "x"}})
    alg = hey.OpenAlgebra(elements_poset(p))
    with pytest.raises(PosetError):
        alg.check({(1, "s")})
    sub = alg.check({(1, "s"), (0, "x")})
    assert frozenset(s for x, s in sub if x == 0) == frozenset({"x"})


def diamond_presheaf(rng):
    _, p = fork_fixture(rng, tip_sizes=(2, 1), handle_size=1)
    return p


def test_subobject_lattice_heyting_laws():
    rng = random.Random(12)
    cases = [small_presheaf(rng) for _ in range(5)] + [diamond_presheaf(rng)]
    for p in cases:
        poset = elements_poset(p)
        subs = open_masks(poset).tolist()
        top, bot = hey.top_mask(poset), 0
        leq = lambda a, b: a & ~b == 0
        pairs = [(q, t) for q in subs for t in subs]
        if len(pairs) > 900:
            pairs = rng.sample(pairs, 900)
        for q in subs:
            assert leq(bot, q) and leq(q, top)
            nq = hey.implies_mask(poset, q, 0)
            assert q & nq == bot or leq(q & nq, bot)
        for q, t in pairs:
            im = hey.implies_mask(poset, q, t)
            assert im == hey.oracle_implies_mask(poset, q, t, subs)
            for v in subs:
                assert leq(v, im) == leq(v & q, t)


def test_all_subobjects_count_two_chain():
    poset = FinitePoset.chain(1)
    p = Presheaf(poset, {0: ("x",), 1: ("s",)}, {(0, 1): {"s": "x"}})
    # parts: level sets {s in?, x in?} with stability: s in => x in: 3 options... plus none
    assert len(open_masks(elements_poset(p))) == 3


def test_opens_of_elements_poset_are_the_stable_families():
    """Independent of the poset of elements: among all 2^N subsets of the
    pairs (x, s), keep those closed under every restriction F(x) -> F(y)."""
    rng = random.Random(21)
    cases = [chain_presheaf([rng.randint(1, 3) for _ in range(rng.randint(1, 4))], rng)
             for _ in range(8)]
    cases += [fork_fixture(random.Random(seed), tip_sizes=(2, 1), handle_size=1)[1]
              for seed in range(2)]
    for p in cases:
        pairs = [(x, s) for x in p.poset.elements for s in p.carriers[x]]
        assert len(pairs) <= 12
        stable = set()
        for bits in range(1 << len(pairs)):
            sub = {pair for k, pair in enumerate(pairs) if bits >> k & 1}
            if all((y, p.restrict(y, x, s)) in sub for x, s in sub
                   for y in p.poset.elements if p.poset.leq(y, x)):
                stable.add(frozenset(sub))
        poset = elements_poset(p)
        assert {poset.set_of(m) for m in open_masks(poset)} == stable
