import random
import re
import sys
from itertools import chain, combinations

import numpy as np
import pytest

from sheafnet.arch_site import (
    FinitePoset,
    SiteGraph,
    basis,
    build_poset,
    classify_vertices,
    fork_surgery,
    loop_rank,
    lower_open_sets,
    open_masks,
    parse_architecture,
    site_relations,
    site_report,
)
from sheafnet.data import fixture_graph
from sheafnet.errors import ArchitectureError, PosetError


def powerset(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


def downward_closed_oracle(poset):
    """Brute force: every subset, filtered on the defining property."""
    out = []
    for sub in powerset(poset.elements):
        s = set(sub)
        if all(y in s for x in s for y in poset.elements if poset.leq(y, x)):
            out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(map(str, s))))


def random_dag(rng, n):
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                edges.append((names[i], names[j]))
    used = {v for e in edges for v in e}
    vertices = [v for v in names if v in used] or names[:1]
    return SiteGraph.build(vertices, edges)


# -- parsing ---------------------------------------------------------------

def test_parse_smallest_chain():
    g = parse_architecture({"nodes": ["x", "h", "y"], "edges": [["x", "h"], ["h", "y"]]})
    assert g.vertices == ("x", "h", "y")
    assert g.roles == {"x": "input", "h": "ordinary", "y": "output"}


def test_parse_rejects_self_loop():
    with pytest.raises(ArchitectureError):
        parse_architecture({"nodes": ["y"], "edges": [["y", "y"]]})


def test_parse_rejects_duplicate_id_and_unknown_vertex():
    with pytest.raises(ArchitectureError):
        parse_architecture({"nodes": ["a", "a"], "edges": []})
    with pytest.raises(ArchitectureError):
        parse_architecture({"nodes": ["a"], "edges": [["a", "b"]]})


#: JSON values that are neither strings nor numbers, as vertex names
NON_SCALAR_NAMES = {"nodes": [None, [1], {"id": {"k": 2}}], "edges": [[None, [1]]]}


def test_parse_rejects_vertex_names_that_are_not_strings_or_numbers():
    with pytest.raises(ArchitectureError, match="vertex name must be a string or a number: None"):
        parse_architecture(NON_SCALAR_NAMES)
    for nodes, edges, value in [(["a", [1]], [], "[1]"), ([{"id": {"k": 2}}], [], "{'k': 2}"),
                                (["a", "b"], [["a", None]], "None")]:
        with pytest.raises(ArchitectureError, match=re.escape(f"number: {value}")):
            parse_architecture({"nodes": nodes, "edges": edges})


def test_parse_reads_number_vertex_names_as_their_str():
    g = parse_architecture({"nodes": [1, {"id": 2.5, "role": "output"}], "edges": [[1, 2.5]]})
    assert g.vertices == ("1", "2.5") and g.edges == (("1", "2.5"),)
    assert g.roles == {"1": "input", "2.5": "output"}


def test_parse_role_objects_and_role_contradiction():
    doc = {"nodes": [{"id": "a", "role": "input"}, "b"], "edges": [["a", "b"]]}
    g = parse_architecture(doc)
    assert g.roles["a"] == "input"
    bad = {"nodes": [{"id": "a", "role": "output"}, "b"], "edges": [["a", "b"]]}
    with pytest.raises(ArchitectureError):
        parse_architecture(bad)


def test_parse_lstm_fixture_is_fork_ready():
    g = fixture_graph("lstm")
    assert len(g.vertices) == 20
    assert set(g.inputs()) == {"x_t", "h_tm1", "c_tm1"}
    assert {v for v, role in g.roles.items() if role == "output"} == {"c_t", "y_t"}


# -- classical check --------------------------------------------------------

def test_check_chain_ok():
    g = SiteGraph.build(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert g.roles == {"0": "input", "1": "ordinary", "2": "output"}


def test_check_oriented_cycle_reported():
    with pytest.raises(ArchitectureError, match="oriented cycle is forbidden: '0' -> '1' -> '0'"):
        SiteGraph.build(["0", "1"], [("0", "1"), ("1", "0")])


def test_check_unfolded_rnn_ok():
    # two time steps of a recurrent net, unfolded in space-time
    nodes = ["x1", "x2", "h0", "h1", "h2", "y1", "y2"]
    edges = [("x1", "h1"), ("h0", "h1"), ("x2", "h2"), ("h1", "h2"),
             ("h1", "y1"), ("h2", "y2")]
    roles = SiteGraph.build(nodes, edges).roles
    assert tuple(v for v in nodes if roles[v] == "output") == ("y1", "y2")


def reaches(edges, a, b):
    """Is there a directed path of one or more edges from a to b?"""
    seen, frontier = set(), [a]
    while frontier:
        v = frontier.pop()
        for s, d in edges:
            if s == v and d not in seen:
                seen.add(d)
                frontier.append(d)
    return b in seen


def test_build_names_a_cycle_exactly_when_there_is_one():
    """On random digraphs without self-loops: the graph is refused iff some
    edge closes a path back to its source, and the named vertices run along
    edges back to the first one, with no other repeat."""
    rng = random.Random(9)
    refused = 0
    for _ in range(300):
        names = [f"n{i}" for i in range(rng.randint(1, 7))]
        edges = [(s, d) for s in names for d in names if s != d and rng.random() < 0.2]
        cyclic = any(reaches(edges, d, s) for s, d in edges)
        try:
            SiteGraph.build(names, edges)
        except ArchitectureError as exc:
            refused += 1
            assert cyclic
            cycle = [v.strip("'") for v in str(exc).split(": ", 1)[1].split(" -> ")]
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
            assert all(e in edges for e in zip(cycle, cycle[1:]))
        else:
            assert not cyclic
    assert 0 < refused < 300


def test_deeper_than_the_recursion_limit():
    """The acyclicity check and fork surgery walk without recursion."""
    n = sys.getrecursionlimit() + 10
    names = [f"v{i}" for i in range(n)]
    chain_edges = list(zip(names, names[1:]))
    fg = fork_surgery(SiteGraph.build(names, chain_edges))
    assert fg.arrows == tuple(chain_edges) and fg.forks == ()
    cycle = {"nodes": names, "edges": [list(e) for e in chain_edges + [(names[-1], names[0])]]}
    with pytest.raises(ArchitectureError, match="oriented cycle is forbidden: 'v0' -> 'v1'"):
        parse_architecture(cycle)


# -- fork surgery ------------------------------------------------------------

def test_surgery_leaves_chain_unchanged():
    g = fixture_graph("chain")
    fg = fork_surgery(g)
    assert fg.arrows == g.edges
    assert fg.tangs() == ()


def test_surgery_diamond_hand_trace():
    g = fixture_graph("diamond")
    fg = fork_surgery(g)
    assert set(fg.tangs()) == {"b^"}
    assert set(fg.tips_of("b^")) == {"a1", "a2"}
    assert ("a1", "b*") in fg.arrows and ("a2", "b*") in fg.arrows
    assert ("b*", "b^") in fg.arrows and ("b^", "b") in fg.arrows


def test_surgery_duplicates_input_feeding_join():
    # x and h both feed the joins ht and yt directly (the recurrent crux)
    g = SiteGraph.build(["x", "h", "ht", "yt"],
                        [("x", "ht"), ("h", "ht"), ("x", "yt"), ("h", "yt")])
    fg = fork_surgery(g)
    assert ("x", "x'") in fg.arrows and ("h", "h'") in fg.arrows
    for tang in fg.tangs():
        assert set(fg.tips_of(tang)) == {"x'", "h'"}
    assert len(fg.tangs()) == 2


def test_surgery_gru_has_six_tangs():
    fg = fork_surgery(fixture_graph("gru"))
    assert len(fg.tangs()) == 6


def test_surgery_lstm_has_five_tangs():
    fg = fork_surgery(fixture_graph("lstm"))
    assert len(fg.tangs()) == 5


# -- poset -------------------------------------------------------------------

def test_poset_diamond_relations():
    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    assert set(poset.elements) == {"x0", "a1", "a2", "b", "b^"}
    for x, y in [("b", "b^"), ("a1", "b^"), ("a2", "b^"), ("a1", "x0"), ("a2", "x0")]:
        assert poset.leq(x, y)
    assert not poset.leq("b", "x0")
    assert set(poset.minimal()) == {"b", "a1", "a2"}
    assert set(poset.maximal()) == {"x0", "b^"}


def test_poset_chain_total_order():
    poset = build_poset(fork_surgery(fixture_graph("chain")))
    assert poset.leq("y", "h") and poset.leq("h", "x") and poset.leq("y", "x")
    assert poset.minimal() == ("y",) and poset.maximal() == ("x",)


def test_poset_lstm_minimal_elements_are_outputs_and_nine_tips():
    poset = build_poset(fork_surgery(fixture_graph("lstm")))
    cls = classify_vertices(poset)
    minimal = set(poset.minimal())
    tips = {v for v, tag in cls.primary.items() if tag == "tip"}
    outputs = {v for v, tag in cls.primary.items() if tag == "output"}
    assert len(tips) == 9
    assert tips == {"xp", "hp", "cp", "f", "i", "o", "g", "vf", "vi"}
    assert minimal == outputs | tips
    assert outputs == {"c_t", "y_t"}


def test_poset_antisymmetry_violation_detected():
    with pytest.raises(PosetError, match=r"^antisymmetry violation: 'a' <= 'b' <= 'a'$"):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])


MIXED = [0, 1, "a", "b", 1.5, ("t",), ("t", 0), None, frozenset({2}), -3, "0"]


def warshall_closure(elements, relations):
    """The reflexive-transitive closure as a set of pairs, by Warshall's
    algorithm over the relation pairs."""
    leq = set(relations) | {(x, x) for x in elements}
    for z in elements:
        leq |= {(x, y) for x in elements if (x, z) in leq for y in elements if (z, y) in leq}
    return leq


def shuffled_relations(rng, pairs, elements):
    """``pairs`` with some repeated and some reflexive pairs added, shuffled."""
    out = pairs + rng.choices(pairs, k=len(pairs) // 2) if pairs else []
    out += [(x, x) for x in elements if rng.random() < 0.2]
    rng.shuffle(out)
    return out


def test_closure_matches_warshall_on_random_relation_lists():
    """Order queries equal Warshall's closure, and the linear extension
    orders elements by the length of the longest chain below them, ties by
    position, on random acyclic relation lists over mixed-type elements."""
    rng = random.Random(17)
    for _ in range(300):
        elements = rng.sample(MIXED, rng.randint(1, 9))
        ranked = rng.sample(elements, len(elements))      # a hidden linear order
        pairs = [(x, y) for i, x in enumerate(ranked) for y in ranked[i + 1:]
                 if rng.random() < 0.3]
        relations = shuffled_relations(rng, pairs, elements)
        poset = FinitePoset(elements, relations)
        leq = warshall_closure(elements, relations)
        assert {(x, y) for x in elements for y in elements if poset.leq(x, y)} == leq
        for y in elements:
            assert basis(poset, y) == {x for x in elements if (x, y) in leq}
        height = {}
        for y in ranked:
            height[y] = max((height[x] + 1 for x in ranked if x != y and (x, y) in leq),
                            default=0)
        assert poset.linear_extension() == tuple(
            sorted(elements, key=lambda x: (height[x], elements.index(x))))


def test_poset_names_a_cycle_exactly_when_there_is_one():
    """On random relation lists over mixed-type elements, repeats and
    reflexive pairs included: the list is refused iff some non-reflexive
    pair closes a path back, and the named elements run along given pairs
    back to the first one, with no other repeat."""
    rng = random.Random(29)
    refused = 0
    for _ in range(300):
        elements = rng.sample(MIXED, rng.randint(1, 7))
        pairs = [(x, y) for x in elements for y in elements if x != y and rng.random() < 0.15]
        relations = shuffled_relations(rng, pairs, elements)
        cyclic = any(reaches(pairs, y, x) for x, y in pairs)
        try:
            FinitePoset(elements, relations)
        except PosetError as exc:
            refused += 1
            assert cyclic
            by_repr = {repr(x): x for x in elements}
            named = str(exc).split("antisymmetry violation: ", 1)[1].split(" <= ")
            cycle = [by_repr[r] for r in named]
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
            assert all(p in pairs for p in zip(cycle, cycle[1:]))
        else:
            assert not cyclic
    assert 0 < refused < 300


# -- classification -----------------------------------------------------------

def test_classify_chain():
    poset = build_poset(fork_surgery(fixture_graph("chain")))
    cls = classify_vertices(poset)
    assert cls.primary == {"x": "input", "h": "ordinary", "y": "output"}


def test_classify_diamond():
    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    cls = classify_vertices(poset)
    assert cls.primary["b^"] == "tang"
    assert cls.primary["a1"] == "tip" and cls.primary["a2"] == "tip"
    assert cls.primary["b"] == "output"
    assert cls.primary["x0"] == "input"
    assert cls.ok


def test_classify_reports_failed_extremal_roles_as_flags():
    """On the diamond's fork graph with every site relation reversed, the
    inputs are minimal and the output maximal: `classify_vertices` returns
    both extremal flags false, and ``ok`` false, without raising."""
    fg = fork_surgery(fixture_graph("diamond"))
    stars = set(fg.stars())
    elements = [v for v in fg.vertices if v not in stars]
    poset = FinitePoset(elements, [(y, x) for x, y in site_relations(fg)], fork_graph=fg)
    cls = classify_vertices(poset)
    assert "x0" in poset.minimal() and "b" in poset.maximal()
    assert not cls.minimal_ok and not cls.maximal_ok and cls.forest_ok
    assert not cls.ok
    assert cls.as_dict()["minimal_ok"] is False


def test_classify_fuzz_no_contradictions():
    rng = random.Random(7)
    for _ in range(100):
        g = random_dag(rng, rng.randint(2, 12))
        poset = build_poset(fork_surgery(g))
        cls = classify_vertices(poset)
        assert cls.ok


# -- Alexandrov opens ---------------------------------------------------------

def test_opens_two_chain():
    from sheafnet.arch_site import FinitePoset

    poset = FinitePoset.chain(1)
    opens = lower_open_sets(poset)
    assert sorted(opens, key=len) == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_opens_antichain_is_powerset():
    from sheafnet.arch_site import FinitePoset

    poset = FinitePoset(["a", "b"], [])
    assert len(lower_open_sets(poset)) == 4


def test_opens_diamond_matches_bruteforce():
    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    opens = sorted(lower_open_sets(poset), key=lambda s: (len(s), sorted(s)))
    assert opens == downward_closed_oracle(poset)
    assert len(opens) == 12


def test_opens_closed_under_union_intersection_and_basis_identity():
    rng = random.Random(3)
    for _ in range(10):
        g = random_dag(rng, rng.randint(2, 7))
        poset = build_poset(fork_surgery(g))
        opens = lower_open_sets(poset)
        family = set(opens)
        for u in opens:
            for v in opens:
                assert frozenset(u | v) in family
                assert frozenset(u & v) in family
        for x in poset.elements:
            for y in poset.elements:
                meet = basis(poset, x) & basis(poset, y)
                union = frozenset().union(
                    *(basis(poset, z) for z in meet)) if meet else frozenset()
                assert meet == union


def test_opens_bound_exceeded():
    from sheafnet.arch_site import FinitePoset
    from sheafnet.errors import BoundExceeded

    poset = FinitePoset(range(25), [])
    with pytest.raises(BoundExceeded):
        lower_open_sets(poset, bound=20)


def random_relations(rng, n):
    """Pairs i < j of 0..n-1, each kept with probability 0.35."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]


def comprehension_opens(poset):
    """The reference enumeration, over Python ints: along the linear
    extension, extend every open so far that holds the strict down-set."""
    opens = [0]
    for x in poset.linear_extension():
        i = poset.index[x]
        need = poset._down[i] & ~(1 << i)
        opens += [m | (1 << i) for m in opens if m & need == need]
    return sorted(opens)


def test_open_masks_repeat_call_returns_the_same_array():
    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    first = open_masks(poset)
    assert isinstance(first, np.ndarray) and len(first) == 12
    assert open_masks(poset) is first
    assert open_masks(poset, bound=20) is first


def test_open_masks_array_is_read_only():
    opens = open_masks(build_poset(fork_surgery(fixture_graph("diamond"))))
    with pytest.raises(ValueError):
        opens[0] = 1
    with pytest.raises(ValueError):
        opens |= 1
    assert opens.tolist() == sorted(opens.tolist()) and opens[0] == 0


def test_open_masks_match_the_comprehension_on_random_posets():
    """Up to 14 elements with sparse orders, and 30 to 45 elements with
    dense ones, on both sides of the uint32/uint64 boundary."""
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(0, 14)
        relations = random_relations(rng, n)
        if rng.random() < 0.4:
            n = rng.randint(30, 45)
            relations = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.7]
        poset = FinitePoset(range(n), relations)
        opens = open_masks(poset, bound=45)
        assert opens.dtype == poset.mask_dtype
        assert opens.tolist() == comprehension_opens(poset)


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 66])
def test_open_masks_of_long_chains(n):
    """A raised bound still enumerates chains past 64 elements, as Python
    ints; up to 64 elements the array is in the poset's `mask_dtype`."""
    poset = FinitePoset.chain(n - 1)
    opens = open_masks(poset, bound=100)
    assert opens.dtype == (poset.mask_dtype if n <= 64 else np.dtype(object))
    assert opens.tolist() == comprehension_opens(poset) == [(1 << k) - 1 for k in range(n + 1)]
    assert open_masks(poset, bound=100) is opens
    with pytest.raises(ValueError):
        opens[-1] = 0


def test_open_masks_checks_the_bound_after_caching():
    from sheafnet.errors import BoundExceeded

    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    assert len(open_masks(poset)) == 12
    with pytest.raises(BoundExceeded):
        open_masks(poset, bound=2)
    with pytest.raises(BoundExceeded):
        lower_open_sets(poset, bound=2)
    assert len(open_masks(poset, bound=20)) == 12


def test_open_masks_ignore_sheafnet_bound(monkeypatch):
    """The library takes a bound only as an argument: SHEAFNET_BOUND is the
    CLI's default of --bound, and the library never reads it."""
    monkeypatch.setenv("SHEAFNET_BOUND", "1")
    poset = build_poset(fork_surgery(fixture_graph("diamond")))
    assert len(open_masks(poset)) == len(lower_open_sets(poset)) == 12


def test_cached_opens_match_bruteforce_on_random_posets():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(0, 8)
        poset = FinitePoset(range(n), random_relations(rng, n))
        want = downward_closed_oracle(poset)
        for _ in range(2):      # the first call fills the cache, the second reads it
            got = sorted((poset.set_of(m) for m in open_masks(poset)),
                         key=lambda s: (len(s), sorted(map(str, s))))
            assert got == want


def _covering_oracle(poset):
    """x < y with nothing strictly between, from order queries alone."""
    els = poset.elements
    return {(x, y) for x in els for y in els if x != y and poset.leq(x, y)
            and not any(z not in (x, y) and poset.leq(x, z) and poset.leq(z, y) for z in els)}


def scan_covering(poset):
    """The reference covering relation: for each element in index order, every
    element strictly above it, lowest index first, with no element strictly
    between the two."""
    out = []
    for i, x in enumerate(poset.elements):
        m = poset._up[i] & ~(1 << i)
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if poset._up[i] & poset._down[j] & ~(1 << i) & ~(1 << j) == 0:
                out.append((x, poset.elements[j]))
    return tuple(out)


def test_covering_matches_the_scan_of_every_comparable_pair():
    """Up to 25 elements, listed in shuffled order, with sparse to dense
    relations given with repeats and reflexive pairs, and a long chain: the
    same tuple, order included."""
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(0, 25)
        elements = rng.sample(range(n), n)
        ranked = rng.sample(elements, n)
        density = rng.choice((0.05, 0.2, 0.5, 0.9))
        pairs = [(x, y) for i, x in enumerate(ranked) for y in ranked[i + 1:]
                 if rng.random() < density]
        poset = FinitePoset(elements, shuffled_relations(rng, pairs, elements))
        assert poset.covering() == scan_covering(poset)
    chain = FinitePoset.chain(1500)
    assert chain.covering() == scan_covering(chain) == tuple((i, i + 1) for i in range(1500))


def test_cached_structure_matches_fresh_computation_and_is_read_only():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 8)
        relations = random_relations(rng, n)
        poset = FinitePoset(range(n), relations)
        covering, covers, linear = (poset.covering(), poset.lower_covers(),
                                    poset.linear_extension())
        assert poset.covering() is covering and poset.lower_covers() is covers
        assert poset.linear_extension() is linear
        fresh = FinitePoset(range(n), relations)
        assert covering == fresh.covering() and set(covering) == _covering_oracle(poset)
        assert dict(covers) == dict(fresh.lower_covers())
        assert all(covers[y] == tuple(x for x, z in covering if z == y) for y in poset.elements)
        assert linear == fresh.linear_extension()
        assert sorted(linear) == list(range(n))
        rank = {x: k for k, x in enumerate(linear)}
        assert all(rank[x] < rank[y] for x, y in covering)
        assert isinstance(covering, tuple) and isinstance(linear, tuple)
        assert all(isinstance(xs, tuple) for xs in covers.values())
        with pytest.raises(TypeError):
            covers[0] = ()
        with pytest.raises(TypeError):
            del covers[0]


def test_linear_extension_never_compares_elements():
    poset = FinitePoset([0, "a", 1.5, ("t",)], [("a", 0)])
    assert poset.linear_extension() == ("a", 1.5, ("t",), 0)


# -- masks of subsets ---------------------------------------------------------

def test_set_of_and_mask_of_are_inverse_for_every_kind_of_integer():
    """A subset goes to its mask and back, and a mask to its subset and
    back, for masks held as Python ints, numpy uint32 and uint64 scalars (as
    in `open_masks` arrays) and Python ints in an object array past 64
    elements."""
    rng = random.Random(8)
    for n in (0, 1, 5, 31, 32, 33, 63, 64, 65, 100):
        poset = FinitePoset([f"e{i}" for i in range(n)], ())
        kinds = [int] + [np.uint32] * (n <= 32) + [np.uint64] * (n <= 64) + [object] * (n > 64)
        for _ in range(40):
            subset = frozenset(rng.sample(poset.elements, rng.randint(0, n)))
            m = sum(1 << poset.index[x] for x in subset)
            assert poset.mask_of(subset) == m and poset.set_of(m) == subset
            for kind in kinds:
                scalar = np.array([m], dtype=kind)[0] if kind is not int else m
                assert type(scalar) is (int if kind in (int, object) else kind)
                got = poset.set_of(scalar)
                assert type(got) is frozenset and got == subset
                assert poset.mask_of(got) == m


def test_set_of_ignores_bits_past_the_elements_and_mask_of_ors_repeats():
    poset = FinitePoset("abcde", ())
    assert poset.set_of(0b10110 | 1 << 5 | 1 << 70) == frozenset("bce")
    assert poset.set_of(np.uint32(0b10110 | 1 << 5 | 1 << 31)) == frozenset("bce")
    assert poset.set_of(np.uint64(1 << 63 | 1)) == frozenset("a")
    assert poset.mask_of(["b", "b", "e", "b"]) == 0b10010
    assert poset.mask_of(iter("cc")) == 0b100
    chain = FinitePoset.chain(69)
    opens = open_masks(chain, bound=70)
    assert opens.dtype == object
    for m in opens.tolist()[::7]:
        assert chain.mask_of(chain.set_of(m)) == m
        assert chain.set_of(m | 1 << 75) == chain.set_of(m) == frozenset(range(m.bit_length()))


# -- loop rank ----------------------------------------------------------------

def test_loop_rank_tree_is_zero():
    g = SiteGraph.build(["r", "l1", "l2"], [("r", "l1"), ("r", "l2")])
    assert loop_rank(g) == 0


def test_loop_rank_lstm_is_three():
    assert loop_rank(fixture_graph("lstm")) == 3


def test_loop_rank_gru_is_five():
    assert loop_rank(fixture_graph("gru")) == 5


def test_site_report_shape():
    report = site_report(fixture_graph("diamond"))
    assert set(report) >= {"poset", "classification", "loop_rank"}
    assert report["loop_rank"] == 1
