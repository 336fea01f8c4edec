import math
import random

import numpy as np
import pytest

from sheafnet import heyting as hey
from sheafnet.arch_site import open_masks
from sheafnet.chains import (
    ChainObject,
    DeltaSequence,
    chain_implication,
    psi_delta,
)
from sheafnet.errors import LanguageError, PosetError, PresheafError
from sheafnet.presheaf import elements_poset


def subs_of(e):
    """Every subobject of a chain: the opens of its poset of elements."""
    return open_masks(e.poset)


def oracle(e, t, q):
    """Literal supremum of every V with V /\\ Q <= T."""
    poset = e.poset
    return hey.oracle_implies_mask(poset, q, t, open_masks(poset))


def top_of(e):
    return e.mask_of(*e.levels)


def test_chain_object_validation():
    with pytest.raises(PresheafError):
        ChainObject.of({"x"}, {"x", "y"})
    c = ChainObject.of({"x", "y"}, {"x"})
    assert c.n == 1 and c.depth("x") == 1 and c.depth("y") == 0


def test_masks_are_the_opens_of_the_poset_of_elements():
    """A subobject's mask is the mask of its elements (k, x) in `poset`,
    built once from the presheaf, and `levels_of` inverts `mask_of`."""
    e = ChainObject.of({"x", "y", "z"}, {"x", "y"}, {"x"})
    assert e.poset is e.poset
    assert e.poset.elements == elements_poset(e.as_presheaf()).elements
    for m in subs_of(e):
        levels = e.levels_of(m)
        assert e.poset.set_of(m) == {(k, x) for k, t in enumerate(levels) for x in t}
        assert e.mask_of(*levels) == m


def test_mask_of_refuses_a_point_outside_its_level():
    e = ChainObject.of({"x", "y"}, {"x"})
    with pytest.raises(PosetError, match=r"\[\"\(1, 'y'\)\"\] are not elements"):
        e.mask_of({"x", "y"}, {"y"})
    with pytest.raises(PosetError, match="are not elements"):
        e.mask_of({"w"}, set())


def test_mask_of_refuses_a_level_not_inside_the_one_above():
    e = ChainObject.of({"x", "y"}, {"x", "y"})
    with pytest.raises(PosetError, match="not downward closed"):
        e.mask_of({"y"}, {"x"})
    with pytest.raises(PresheafError, match="expected 2 levels, got 1"):
        e.mask_of({"x"})


def test_boolean_case_is_classical_formula():
    e = ChainObject.of({1, 2, 3, 4})
    t = e.mask_of({1})
    q = e.mask_of({1, 2})
    u = chain_implication(e, t, q)
    assert e.levels_of(u) == (frozenset({1, 3, 4}),)  # T or not Q


def test_implication_trivial_cases():
    e = ChainObject.of({"x", "y"}, {"x"})
    bot, top = 0, top_of(e)
    assert chain_implication(e, top, bot) == top  # Q = bot -> top
    for t in subs_of(e):
        assert chain_implication(e, t, bot) == top
        assert chain_implication(e, t, t) == top


def test_singleton_example_matches_oracle():
    e = ChainObject.of({"x", "y"}, {"x"})
    t = e.mask_of({"x"}, set())
    q = e.mask_of({"x"}, {"x"})
    u = chain_implication(e, t, q)
    assert u == oracle(e, t, q)
    assert e.levels_of(u) == (frozenset({"x", "y"}), frozenset())


def test_negation_formula_and_equivalences():
    rng = random.Random(4)
    e = ChainObject.of({0, 1, 2}, {0, 1}, {0})
    subs = subs_of(e)
    bot = 0
    for q in subs:
        neg = chain_implication(e, 0, q)
        # displayed formula: level k is the intersection of the complements
        expect = []
        acc = None
        for k in range(e.n + 1):
            comp = e.levels[k] - e.levels_of(q)[k]
            acc = comp if acc is None else acc & comp
            expect.append(comp)
        running = []
        inter = None
        for comp in expect:
            inter = comp if inter is None else inter & comp
            running.append(inter)
        assert e.levels_of(neg) == tuple(running)
    assert chain_implication(e, 0, top_of(e)) == bot
    assert chain_implication(e, 0, bot) == top_of(e)


def test_implication_equals_oracle_exhaustive_small_chains():
    shapes = [(2,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)]
    for shape in shapes:
        points = [f"p{i}" for i in range(shape[0])]
        levels = [set(points[: s]) for s in shape]
        e = ChainObject.of(*levels)
        subs = subs_of(e)
        for t in subs:
            for q in subs:
                assert chain_implication(e, t, q) == oracle(e, t, q)


def test_implication_agrees_with_generic_presheaf_calculus():
    e = ChainObject.of({0, 1, 2}, {0, 1}, {0})
    poset = e.poset
    for t in subs_of(e):
        for q in subs_of(e):
            u = chain_implication(e, t, q)
            generic = hey.implies_mask(poset, q, t)
            assert u == generic


def test_batched_formulas_match_single_pairs_and_generic_calculus():
    # depth order (d, c, a/b) differs from str order, so the level shifts
    # only line up if the presheaf lists deepest points first
    e = ChainObject.of({"a", "b", "c", "d"}, {"c", "d"}, {"d"})
    poset = e.poset
    subs = subs_of(e)
    masks = np.array(subs, dtype=np.uint64)
    batched = chain_implication(e, masks[:, None], masks[None, :])
    generic = hey.implies_mask(poset, masks[None, :], masks[:, None])
    assert batched.dtype == np.uint64 and np.array_equal(batched, generic)
    assert chain_implication(e, 0, masks).tolist() == [chain_implication(e, 0, q) for q in subs]
    for i, t in enumerate(subs):
        for j, q in enumerate(subs):
            assert int(batched[i, j]) == chain_implication(e, t, q) == \
                hey.implies_mask(poset, q, t)


@pytest.mark.parametrize("shape", [(8, 8, 8, 8), (9, 8, 8, 8)], ids=["32", "33"])
def test_batched_formulas_at_the_width_boundary(shape):
    """Posets of elements with 32 and 33 elements: uint32 arrays (where they
    fit) and uint64 arrays give the scalar results in their own dtype, and
    the in-place level recursion leaves the arguments as they were."""
    rng = random.Random(len(shape) + sum(shape))
    points = [f"p{i}" for i in range(shape[0])]
    e = ChainObject.of(*[set(points[:s]) for s in shape])
    poset = e.poset
    assert len(poset.elements) == sum(shape)
    subs = []
    for _ in range(24):
        mask = 0
        for x in rng.sample(poset.elements, rng.randint(0, 4)):
            mask |= poset.down_mask(x)
        subs.append(mask)
    want = [[chain_implication(e, t, q) for q in subs] for t in subs]
    assert want == [[hey.implies_mask(poset, q, t) for q in subs] for t in subs]
    for dtype in {poset.mask_dtype, np.dtype(np.uint64)}:
        masks = np.array(subs, dtype=dtype)
        t, q = masks[:, None].copy(), masks[None, :].copy()
        got = chain_implication(e, t, q)
        assert got.dtype == dtype and got.tolist() == want
        assert np.array_equal(t[:, 0], masks) and np.array_equal(q[0], masks)
        neg = chain_implication(e, 0, masks)
        assert neg.dtype == dtype and neg.tolist() == [chain_implication(e, 0, m) for m in subs]
        top = chain_implication(e, masks, 0)
        assert top.dtype == dtype and top.tolist() == [chain_implication(e, m, 0) for m in subs]
        assert np.array_equal(masks, subs)


def test_scalar_entry_points_mix_array_elements_with_python_ints():
    """An element of the opens array (a numpy scalar) next to Python ints,
    such as the bottom 0, gives the all-int result, as a Python int."""
    e = ChainObject.of({"x", "y", "z"}, {"x", "y"}, {"x"})
    poset = e.poset
    opens = open_masks(poset)
    delta = DeltaSequence.dyadic(e.n)
    calls = [lambda t, q: chain_implication(e, t, q),
             lambda q, t: hey.implies_mask(poset, q, t),
             lambda q, t: hey.oracle_implies_mask(poset, q, t, opens)]
    for i in range(len(opens)):
        m, v = opens[i], int(opens[i])
        for other in (0, hey.top_mask(poset), int(opens[-1 - i])):
            for call in calls:
                for got, want in [(call(m, other), call(v, other)),
                                  (call(other, m), call(other, v))]:
                    assert type(got) is int and got == want
        assert poset.set_of(m) == poset.set_of(v)
        assert psi_delta(e, m, delta) == psi_delta(e, v, delta)


# -- delta sequences and psi ----------------------------------------------------

def test_delta_validation():
    with pytest.raises(LanguageError):
        DeltaSequence.of([1.0, 0.6, 0.5])  # 1.0 <= 0.6 + 0.5
    with pytest.raises(LanguageError):
        DeltaSequence.of([1.0, -0.5])
    # every comparison with NaN is false and inf dominates any finite tail,
    # so positivity and dominance alone would let both through
    for values in ([1.0, math.nan], [math.nan], [math.inf], [math.inf, 1.0]):
        with pytest.raises(LanguageError, match="delta values must be finite"):
            DeltaSequence.of(values)
    d = DeltaSequence.dyadic(3)
    assert d.values == (1.0, 0.5, 0.25, 0.125)


def test_psi_delta_examples():
    e = ChainObject.of({"x", "y"}, {"x"})
    d = DeltaSequence.of([1.0, 0.5])
    assert psi_delta(e, 0, d) == 0.0
    assert psi_delta(e, top_of(e), d) == 2.5
    assert psi_delta(e, e.mask_of({"x", "y"}, set()), d) == 2.0


def test_psi_delta_strictly_increasing():
    e = ChainObject.of({0, 1}, {0})
    d = DeltaSequence.dyadic(e.n)
    subs = subs_of(e)
    for t in subs:
        for t2 in subs:
            if t & ~t2 == 0 and t != t2:
                assert psi_delta(e, t, d) < psi_delta(e, t2, d)


def test_psi_delta_concavity_fails_in_general():
    """Minimal counterexample to blanket concavity of psi_delta: the double
    difference goes negative when the conditioning proposition loses depth
    down the chain.  Verified against the literal sup-oracle too."""
    e = ChainObject.of({0, 1}, {0})
    d = DeltaSequence.dyadic(1)
    q = e.mask_of({0}, set())        # asserted at level 0 only
    t = 0
    t2 = e.mask_of({0}, set())
    for impl in (chain_implication, oracle):
        dd = (psi_delta(e, impl(e, t, q), d) - psi_delta(e, t, d)
              - psi_delta(e, impl(e, t2, q), d) + psi_delta(e, t2, d))
        assert dd == -0.5


def test_psi_delta_concave_for_full_depth_propositions():
    """Concavity does hold (exhaustively, small chains) when Q is asserted at
    full depth: Q_k = Q_0 /\\ E_k at every level."""
    shapes = [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1)]
    for shape in shapes:
        pts = [f"p{i}" for i in range(shape[0])]
        e = ChainObject.of(*[set(pts[:s]) for s in shape])
        d = DeltaSequence.dyadic(e.n)
        subs = subs_of(e)
        cyl = [q for q in subs
               if all(e.levels_of(q)[k] == e.levels_of(q)[0] & e.levels[k]
                      for k in range(e.n + 1))]
        for q in cyl:
            for t in subs:
                for t2 in subs:
                    if t & ~t2 == 0:
                        dd = (psi_delta(e, chain_implication(e, t, q), d) - psi_delta(e, t, d)
                              - psi_delta(e, chain_implication(e, t2, q), d)
                              + psi_delta(e, t2, d))
                        assert dd >= 0.0
