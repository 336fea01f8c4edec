"""The fork site read from `ForkGraph.forks`, checked against the arrow
pattern tips -> star -> tang -> handle.

`ArrowPattern` reads a surgered graph from its arrows alone, without
`ForkGraph.forks`: after surgery only a star has two or more in-arrows, a
tang is the one successor of a star, and a star's tips are its predecessors
in arrow order.  Each of its constructions states the orientation rule
arrow by arrow.  The library's site relations, posets, role sets,
classification and sheafification must agree with it on the fixtures, on a
fork with one tip below another, and on seeded random DAGs and layered
graphs.
"""

import random
from collections import Counter
from itertools import product as iproduct

import pytest

from sheafnet.arch_site import (
    FinitePoset,
    SiteGraph,
    build_poset,
    classify_vertices,
    fork_surgery,
    site_relations,
)
from sheafnet.data import FIXTURES, fixture_graph
from sheafnet.presheaf import (
    Presheaf,
    sections,
    sheafify_at_forks,
    standard_feedforward_presheaf,
    star_site_poset,
)
from sheafnet.verify import _random_layered_architecture


class ArrowPattern:
    """A fork graph's stars, tangs, tips and roles read from its arrows."""

    def __init__(self, fg):
        self.vertices, self.arrows = fg.vertices, fg.arrows
        indeg = Counter(d for _, d in fg.arrows)
        self.star_set = {v for v in fg.vertices if indeg[v] >= 2}
        self.tang_of = {s: d for s, d in fg.arrows if s in self.star_set}

    def stars(self):
        return tuple(v for v in self.vertices if v in self.star_set)

    def tangs(self):
        return tuple(v for v in self.vertices if v in self.tang_of.values())

    def tips(self, star):
        return tuple(s for s, d in self.arrows if d == star)

    def site_relations(self):
        rel = []
        for s, d in self.arrows:
            if d in self.star_set:
                rel.append((s, self.tang_of[d]))     # tip <= tang (through the star)
            elif s in self.star_set:
                pass                                 # star -> tang handled above
            else:
                rel.append((d, s))                   # receiver <= sender, handle <= tang
        return rel

    def poset(self):
        elements = [v for v in self.vertices if v not in self.star_set]
        return FinitePoset(elements, self.site_relations(), fork_graph=self)

    def star_site_poset(self):
        rel = []
        for s, d in self.arrows:
            if d in self.star_set or s in self.star_set:
                rel.append((s, d))                   # tip <= star <= tang
            else:
                rel.append((d, s))
        return FinitePoset(self.vertices, rel, fork_graph=self)

    def role_sets(self):
        indeg = Counter(d for _, d in self.arrows)
        outdeg = Counter(s for s, _ in self.arrows)
        tangs = set(self.tangs())
        feeds_star = {s for s, d in self.arrows if d in self.star_set}
        from_tang = {d for s, d in self.arrows if s in tangs}
        out = {}
        for v in self.vertices:
            if v in self.star_set:
                roles = {"star"}
            elif v in tangs:
                roles = {"tang"}
            else:
                roles = {role for role, holds in (
                    ("input", indeg[v] == 0), ("output", outdeg[v] == 0),
                    ("tip", v in feeds_star), ("handle", v in from_tang)) if holds}
            out[v] = frozenset(roles or {"ordinary"})
        return out

    def sheafify(self, presheaf):
        big = self.star_site_poset()
        carriers = {v: presheaf.carriers[v] for v in presheaf.poset.elements}
        for star in self.star_set:
            carriers[star] = tuple(iproduct(*(presheaf.carriers[t] for t in self.tips(star))))
        maps = {}
        for x, y in big.covering():
            if x in self.star_set:
                maps[(x, y)] = {s: tuple(presheaf.restrict(t, y, s) for t in self.tips(x))
                                for s in presheaf.carriers[y]}
            elif y in self.star_set:
                pos = self.tips(y).index(x)
                maps[(x, y)] = {tup: tup[pos] for tup in carriers[y]}
            else:
                maps[(x, y)] = {s: presheaf.restrict(x, y, s) for s in presheaf.carriers[y]}
        return Presheaf(big, carriers, maps)


def reference_fork_surgery(g):
    """Fork surgery as it was written before the one-pass table: rescan the
    edge list for each vertex, input and join, and rebuild it after each."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    forks = []

    def fresh(name):
        while name in vertices:
            name += "'"
        return name

    def indeg(v):
        return sum(1 for _, d in edges if d == v)

    joins = [v for v in vertices if indeg(v) >= 2]
    for u in g.inputs():
        fed_joins = [(s, d) for s, d in edges if s == u and d in joins]
        if not fed_joins:
            continue
        tip = fresh(u + "'")
        vertices.append(tip)
        edges = [e for e in edges if e not in fed_joins]
        edges.append((u, tip))
        edges.extend((tip, d) for _, d in fed_joins)
    for a in joins:
        star = fresh(a + "*")
        vertices.append(star)
        tang = fresh(a + "^")
        vertices.append(tang)
        incoming = [(s, d) for s, d in edges if d == a]
        tips = tuple(s for s, _ in incoming)
        edges = [e for e in edges if e not in incoming]
        edges.extend((s, star) for s in tips)
        edges.append((star, tang))
        edges.append((tang, a))
        forks.append((star, tang, a, tips))
    return vertices, edges, forks


def shuffled_dag(rng, n):
    """A random DAG on names that collide with primed tip names, its
    vertices and edges listed in shuffled order."""
    names = rng.sample(["a", "a'", "a''", "b", "b'", "c", "d", "d'", "e", "f", "g", "h"], n)
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    rng.shuffle(names)
    rng.shuffle(edges)
    return SiteGraph.build(names, edges)


def random_dag(rng, n):
    names = [f"n{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    used = {v for e in edges for v in e}
    return SiteGraph.build([v for v in names if v in used] or names[:1], edges)


def tip_below_tip():
    """x -> a -> b, and a and b both feed c: in the site b <= a, so the tip b
    sits below the other tip a of c's fork and (b, c*) is not a covering pair."""
    return SiteGraph.build(["x", "a", "b", "c"],
                           [("x", "a"), ("a", "b"), ("a", "c"), ("b", "c")])


def graphs():
    """(standard, graph) pairs: the fixtures, the fork with a tip below a tip,
    200 seeded random DAGs and 200 seeded random layered graphs; ``standard``
    marks the graphs whose standard feed-forward sheaves are functorial."""
    out = [(False, fixture_graph(name)) for name in FIXTURES] + [(True, tip_below_tip())]
    rng = random.Random(14)
    out += [(False, random_dag(rng, rng.randint(2, 9))) for _ in range(200)]
    out += [(True, _random_layered_architecture(rng, max_layers=6, max_width=3))
            for _ in range(200)]
    return out


def leq_pairs(poset):
    return [(x, y) for x in poset.elements for y in poset.elements if poset.leq(x, y)]


def world_presheaf(poset, rng, worlds=3):
    """A random presheaf on any poset: each element sees the bits of a few
    hidden worlds at its down-set, so every restriction forgets bits and
    every two order paths compose to the same map."""
    bits = {z: [rng.randint(0, 1) for _ in range(worlds)] for z in poset.elements}

    def seen(x, w):
        return "".join(str(bits[z][w]) for z in poset.elements if poset.leq(z, x))

    carriers = {x: sorted({seen(x, w) for w in range(worlds)}) for x in poset.elements}
    maps = {(x, y): {seen(y, w): seen(x, w) for w in range(worlds)}
            for x, y in poset.covering()}
    return Presheaf(poset, carriers, maps)


def random_standard_presheaf(fg, rng):
    """A standard feed-forward sheaf with random carriers and dynamics."""
    tangs = set(fg.tangs())
    carriers = {v: tuple(f"{v}:{k}" for k in range(rng.randint(1, 3)))
                for v in fg.origin.vertices if v not in tangs}
    at_forks = tangs | set(fg.stars())
    edge_maps = {(s, d): {x: rng.choice(carriers[d]) for x in carriers[s]}
                 for s, d in fg.arrows
                 if s in carriers and d in carriers and not {s, d} & at_forks}
    handle_maps = {}
    for f in fg.forks:
        tip_carriers = [carriers.get(t) or carriers[fg.predecessors(t)[0]] for t in f.tips]
        handle_maps[f.tang] = {tup: rng.choice(carriers[f.handle])
                               for tup in iproduct(*tip_carriers)}
    return standard_feedforward_presheaf(fg, carriers, edge_maps, handle_maps)


def test_tip_below_tip_is_not_covered_by_the_star():
    fg = fork_surgery(tip_below_tip())
    (fork,) = fg.forks
    assert fork.tips == ("a", "b")
    covering = star_site_poset(fg).covering()
    assert ("a", fork.star) in covering and ("b", "a") in covering
    assert ("b", fork.star) not in covering


def test_fork_surgery_matches_the_reference():
    rng = random.Random(20)
    cases = [g for _, g in graphs()[:len(FIXTURES) + 1]]
    cases += [shuffled_dag(rng, rng.randint(1, 12)) for _ in range(1500)]
    assert sum(1 for g in cases if fork_surgery(g).forks) > 1000
    for g in cases:
        fg = fork_surgery(g)
        vertices, arrows, forks = reference_fork_surgery(g)
        assert list(fg.vertices) == vertices
        assert list(fg.arrows) == arrows
        assert [(f.star, f.tang, f.handle, f.tips) for f in fg.forks] == forks


def test_fork_site_matches_the_arrow_pattern():
    for _, g in graphs():
        fg = fork_surgery(g)
        oracle = ArrowPattern(fg)
        for f in fg.forks:
            assert [d for s, d in fg.arrows if s == f.star] == [f.tang]
            assert [s for s, d in fg.arrows if d == f.tang] == [f.star]
            assert [d for s, d in fg.arrows if s == f.tang] == [f.handle]
        assert fg.stars() == oracle.stars() and fg.tangs() == oracle.tangs()
        assert [f.tips for f in fg.forks] == [oracle.tips(s) for s in fg.stars()]
        assert sorted(site_relations(fg)) == sorted(oracle.site_relations())
        poset, want = build_poset(fg), oracle.poset()
        assert poset.elements == want.elements
        assert leq_pairs(poset) == leq_pairs(want)
        big, want_big = star_site_poset(fg), oracle.star_site_poset()
        assert big.elements == want_big.elements
        assert leq_pairs(big) == leq_pairs(want_big)
        assert big.covering() == want_big.covering()
        assert fg.role_sets() == oracle.role_sets()
        assert classify_vertices(poset).as_dict() == classify_vertices(want).as_dict()


def test_extremal_elements_of_the_site():
    """The maximal elements are exactly the inputs and the tangs, every
    output is minimal, and every minimal element is an output or a tip.
    An output here is a vertex without an out-edge, so an isolated input is
    one too; the minimal tips are those that feed stars only."""
    rng = random.Random(5)
    cases = [g for _, g in graphs()] + [shuffled_dag(rng, rng.randint(1, 12)) for _ in range(300)]
    for g in cases:
        fg = fork_surgery(g)
        poset = build_poset(fg)
        stars = set(fg.stars())
        outputs = set(g.vertices) - {s for s, _ in g.edges}
        tips = {t for f in fg.forks for t in f.tips}
        assert set(poset.maximal()) == set(g.inputs()) | set(fg.tangs())
        assert outputs <= set(poset.minimal())
        assert set(poset.minimal()) <= outputs | tips
        assert set(poset.minimal()) == outputs | {
            t for t in tips if all(d in stars for s, d in fg.arrows if s == t)}
    fg = fork_surgery(tip_below_tip())
    assert "a" in fg.forks[0].tips and build_poset(fg).minimal() == ("b", "c")


def assert_same_presheaf(got, want):
    assert got.poset.elements == want.poset.elements
    assert got.carriers == want.carriers
    for x, y in leq_pairs(want.poset):
        assert got.index_maps[(x, y)] == want.index_maps[(x, y)]
    assert sections(got).tuples == sections(want).tuples


def test_sheafify_at_forks_matches_the_arrow_pattern():
    """Random presheaves on every graph, and random standard feed-forward
    sheaves where they are functorial."""
    rng = random.Random(9)
    for standard, g in graphs():
        fg = fork_surgery(g)
        presheaves = [world_presheaf(build_poset(fg), rng)]
        if standard:
            presheaves.append(random_standard_presheaf(fg, rng))
        for p in presheaves:
            assert_same_presheaf(sheafify_at_forks(p, fg), ArrowPattern(fg).sheafify(p))


def test_sheafify_at_forks_on_a_tip_below_another_tip():
    rng = random.Random(3)
    fg = fork_surgery(tip_below_tip())
    for _ in range(20):
        p = random_standard_presheaf(fg, rng)
        big = sheafify_at_forks(p, fg)
        assert_same_presheaf(big, ArrowPattern(fg).sheafify(p))
        assert len(sections(big)) == len(sections(p))
