import random
import re

import numpy as np
import pytest

from sheafnet import heyting as hey
from sheafnet.arch_site import FinitePoset, lower_open_sets, open_masks
from sheafnet.errors import BoundExceeded, PosetError


def random_poset(rng, n, density=0.4):
    rel = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rel.append((i, j))
    return FinitePoset(range(n), rel)


def strict_up_sets(poset):
    """Each element's strict up-set, as a frozenset, from pairwise order
    queries alone."""
    return {x: frozenset(y for y in poset.elements if y != x and poset.leq(x, y))
            for x in poset.elements}


def set_implies(poset, q, t, above=None):
    """Q => T on opens as frozensets: the top open with Q - T and the strict
    up-set of each of its elements removed, that is, the complement of the
    up-closure of Q - T.  ``above`` is `strict_up_sets` of the poset."""
    above = strict_up_sets(poset) if above is None else above
    bad = frozenset(q) - frozenset(t)
    out = frozenset(poset.elements) - bad
    for x in bad:
        out -= above[x]
    return out


def random_opens(rng, poset, count):
    """Unions of up to four down-sets: opens, without enumerating them all."""
    opens = []
    for _ in range(count):
        mask = 0
        for x in rng.sample(poset.elements, rng.randint(0, min(4, len(poset.elements)))):
            mask |= poset.down_mask(x)
        opens.append(mask)
    return opens


def test_two_chain_identity_case():
    p = FinitePoset.chain(1)
    q = frozenset({0})
    assert hey.implies(p, q, q) == frozenset({0, 1})


def test_two_chain_double_negation_not_boolean():
    p = FinitePoset.chain(1)
    q = frozenset({0})
    assert hey.neg(p, q) == frozenset()
    assert hey.neg(p, frozenset()) == frozenset({0, 1})
    assert hey.implies(p, hey.neg(p, q), frozenset()) == frozenset({0, 1})  # ~~{0} = T


def test_two_chain_top_implies():
    p = FinitePoset.chain(1)
    assert hey.implies(p, frozenset({0, 1}), frozenset({0})) == frozenset({0})


def test_rejects_non_open_argument():
    p = FinitePoset.chain(1)
    with pytest.raises(PosetError):
        hey.implies(p, frozenset({1}), frozenset())


@pytest.mark.parametrize("call", [
    lambda p, bad: hey.implies(p, bad, frozenset()),
    lambda p, bad: hey.implies(p, frozenset(), bad),
    lambda p, bad: hey.neg(p, bad),
    lambda p, bad: hey.oracle_implies(p, frozenset({0}), bad),
], ids=["implies-q", "implies-t", "neg", "oracle_implies"])
def test_rejects_foreign_elements_like_open_algebra(call):
    """Foreign elements and non-open sets raise the one text of
    `OpenAlgebra.check`."""
    p = FinitePoset.chain(1)
    for bad, text in (({5}, "['5'] are not elements of the poset"),
                      ({"x"}, "['x'] are not elements of the poset"),
                      ({1}, "['1'] is not downward closed")):
        with pytest.raises(PosetError) as error:
            call(p, frozenset(bad))
        assert str(error.value) == text
        with pytest.raises(PosetError) as error:
            hey.OpenAlgebra(p).check(bad)
        assert str(error.value) == text


def test_mask_of_open_is_the_mask_of_an_open_and_refuses_any_other_set():
    """Against the definition (every element's down-set inside the set) on
    every subset of random posets; a set listed with repeats is read as a
    set."""
    rng = random.Random(21)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 7))
        for m in range(1 << len(p.elements)):
            subset = p.set_of(m)
            if all(p.down_mask(x) & ~m == 0 for x in subset):
                assert hey.mask_of_open(p, subset) == m
                assert hey.mask_of_open(p, list(subset) * 2) == m
            else:
                with pytest.raises(PosetError) as error:
                    hey.mask_of_open(p, subset)
                assert str(error.value) == f"{sorted(map(str, subset))} is not downward closed"
    with pytest.raises(PosetError, match=re.escape("['x', 'y'] are not elements of the poset")):
        hey.mask_of_open(FinitePoset.chain(2), ["y", 0, "x", "y"])


def test_vacuous_and_equal_cases():
    p = FinitePoset.chain(2)
    top = frozenset(p.elements)
    for t in ({0}, {0, 1}, set()):
        assert hey.oracle_implies(p, frozenset(), frozenset(t)) == top
        assert hey.oracle_implies(p, frozenset(t), frozenset(t)) == top


def test_pointwise_equals_oracle_exhaustive_small():
    """The mask engine, its frozenset forms, the oracle and the set formula
    agree on every pair of opens: on random posets, on an antichain (where
    the scalar `implies_mask` walks no up-set) and on a chain."""
    rng = random.Random(11)
    posets = [random_poset(rng, rng.randint(2, 6)) for _ in range(12)]
    for p in posets + [FinitePoset(range(6), ()), FinitePoset.chain(5)]:
        opens = open_masks(p)
        above = strict_up_sets(p)
        for q in opens:
            for t in opens:
                mask = hey.implies_mask(p, q, t)
                assert mask == hey.oracle_implies_mask(p, q, t, opens)
                qs, ts = p.set_of(q), p.set_of(t)
                assert hey.implies(p, qs, ts) == p.set_of(mask) == \
                    hey.oracle_implies(p, qs, ts) == set_implies(p, qs, ts, above)


def test_set_forms_equal_the_set_formula_on_random_posets():
    """On 500 random posets of up to 12 elements, and one of 70 elements
    (past the 64 of a mask array), every frozenset operation of `heyting`
    gives the set formula's result on random opens, and `implies_mask` its
    mask."""
    rng = random.Random(4000)
    posets = [random_poset(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.6)))
              for _ in range(500)]
    for p in posets + [random_poset(rng, 70, 0.05)]:
        above = strict_up_sets(p)
        opens = [p.set_of(m) for m in random_opens(rng, p, 6)]
        opens += [frozenset(p.elements), frozenset()]
        for q in opens:
            assert hey.neg(p, q) == set_implies(p, q, (), above)
            for t in opens:
                want = set_implies(p, q, t, above)
                assert hey.implies(p, q, t) == want
                assert hey.implies_mask(p, p.mask_of(q), p.mask_of(t)) == p.mask_of(want)
        if len(p.elements) <= 12:
            for q in opens[:3]:
                for t in opens[3:]:
                    assert hey.oracle_implies(p, q, t) == set_implies(p, q, t, above)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25])
def test_batched_implies_mask_matches_scalar_path_and_oracle(n):
    """The uint64 path reads the up-closure from one table per byte; sizes
    on both sides of each byte boundary cover the last, partial byte."""
    rng = random.Random(n)
    p = random_poset(rng, n)
    opens = open_masks(p, bound=25).tolist()
    qs = rng.sample(opens, min(16, len(opens)))
    q, t = np.array(qs, dtype=np.uint64)[:, None], np.array(opens, dtype=np.uint64)
    got = hey.implies_mask(p, q, t)
    assert got.dtype == np.uint64 and got.shape == (len(qs), len(opens))
    assert np.array_equal(hey.implies_mask(p, t, q), np.array(
        [[hey.implies_mask(p, tm, qm) for tm in opens] for qm in qs], dtype=np.uint64))
    for i, qm in enumerate(qs):
        for j, tm in enumerate(opens):
            assert int(got[i, j]) == hey.implies_mask(p, qm, tm) == \
                hey.oracle_implies_mask(p, qm, tm, opens)


@pytest.mark.parametrize("n", [1, 3, 9, 25])
def test_negation_and_int_implication_on_uint64_arrays(n):
    """A Python-int T, such as the bottom 0 of a negation, against uint64
    arrays gives the scalar results element by element."""
    rng = random.Random(n)
    p = random_poset(rng, n)
    opens = open_masks(p, bound=25).tolist()
    masks = np.array(opens, dtype=np.uint64)
    for t in rng.sample(opens, min(4, len(opens))) + [0]:
        got = hey.implies_mask(p, masks, t)
        assert got.dtype == np.uint64
        assert got.tolist() == [hey.implies_mask(p, q, t) for q in opens]


def test_scalar_implies_mask_takes_numpy_integers():
    """The scalar path visits the set bits of Q - T; numpy integer scalars
    are converted to Python ints first (they have no ``bit_length``)."""
    p = FinitePoset.chain(2)
    assert hey.implies_mask(p, np.uint64(3), np.uint64(1)) == hey.implies_mask(p, 3, 1) == 1
    assert hey.implies_mask(p, np.uint32(7), np.int64(0)) == hey.implies_mask(p, 7, 0) == 0
    assert hey.implies_mask(p, np.uint64(0), 0) == hey.top_mask(p)


@pytest.mark.parametrize("n, dtype", [(32, np.uint32), (33, np.uint64)])
def test_mask_dtype_at_the_width_boundary(n, dtype):
    p = random_poset(random.Random(n), n, 0.1)
    assert p.mask_dtype == dtype
    assert p._up_byte_tables.dtype == dtype and p._up_byte_tables.shape == (-(-n // 8), 256)
    with pytest.raises(AttributeError):
        p.mask_dtype = np.uint64


def test_mask_arrays_are_refused_past_64_elements():
    """A 71-element chain has no mask dtype: the array path says so with a
    PosetError, and the scalar path still works on Python ints."""
    p = FinitePoset.chain(70)
    assert FinitePoset.chain(63).mask_dtype == np.uint64
    with pytest.raises(PosetError, match="71 elements: mask arrays hold at most 64"):
        p.mask_dtype
    with pytest.raises(PosetError, match="at most 64"):
        hey.implies_mask(p, np.array([1], dtype=np.uint64), 0)
    top = hey.top_mask(p)
    assert hey.implies_mask(p, 1, 0) == 0
    assert hey.implies_mask(p, top, top >> 1) == top >> 1
    assert p.set_of(hey.implies_mask(p, top, top >> 1)) == \
        set_implies(p, p.set_of(top), p.set_of(top >> 1))


@pytest.mark.parametrize("n", [32, 33])
def test_mask_arrays_at_the_width_boundary(n):
    """uint32 arrays (where the poset allows them) and uint64 arrays give the
    scalar results, each in its own dtype."""
    rng = random.Random(n)
    p = random_poset(rng, n, 0.1)
    qs, ts = random_opens(rng, p, 12), random_opens(rng, p, 16) + [0, hey.top_mask(p)]
    want = [[hey.implies_mask(p, q, t) for t in ts] for q in qs]
    above = strict_up_sets(p)
    assert [[p.set_of(u) for u in row] for row in want] == \
        [[set_implies(p, p.set_of(q), p.set_of(t), above) for t in ts] for q in qs]
    for dtype in {p.mask_dtype, np.dtype(np.uint64)}:
        q, t = np.array(qs, dtype=dtype), np.array(ts, dtype=dtype)
        got = hey.implies_mask(p, q[:, None], t)
        assert got.dtype == dtype and got.tolist() == want
        neg = hey.implies_mask(p, q, 0)
        assert neg.dtype == dtype and neg.tolist() == [hey.implies_mask(p, m, 0) for m in qs]


def test_oracle_equals_implies_on_a_chain_past_64_elements():
    """Under a raised bound the 101 opens of a 100-element chain are Python
    ints in an object array, and the oracle's scan still gives Q => T."""
    p = FinitePoset.chain(99)
    assert open_masks(p, bound=100).dtype == object
    opens = lower_open_sets(p, bound=100)
    assert len(opens) == 101
    above = strict_up_sets(p)
    for q in opens:
        for t in opens:
            assert hey.oracle_implies(p, q, t, bound=100) == hey.implies(p, q, t) == \
                set_implies(p, q, t, above)


def test_heyting_adjunction_and_lattice_laws():
    rng = random.Random(5)
    for _ in range(8):
        p = random_poset(rng, rng.randint(2, 6))
        opens = open_masks(p).tolist()
        top = hey.top_mask(p)
        for q in opens:
            nq = hey.implies_mask(p, q, 0)
            nnnq = hey.implies_mask(p, hey.implies_mask(p, nq, 0), 0)
            assert nnnq == nq  # ~~~Q = ~Q
            assert hey.implies_mask(p, 0, q) == top
            assert hey.implies_mask(p, q, top) == top
            for t in opens:
                im = hey.implies_mask(p, q, t)
                for v in opens:
                    assert (v & ~im == 0) == (v & q & ~t == 0)  # V <= (Q=>T) iff V/\Q <= T
                for r in opens:
                    assert q & (t | r) == (q & t) | (q & r)  # distributivity


def test_implication_table_labels_must_not_clash():
    clashes = [(["a", "b", "a,b"], "opens ['a', 'b'] and ['a,b'] share the label 'a,b'"),
               (["{}"], "opens [] and ['{}'] share the label '{}'"),
               ([1, "1"], "opens ['1'] and ['1'] share the label '1'")]
    for elements, message in clashes:
        with pytest.raises(PosetError, match=re.escape(message)):
            hey.implication_table(FinitePoset(elements, ()))
    table = hey.implication_table(FinitePoset(["a", "b", "a;b"], ()))
    assert len(table) == 8 and all(len(row) == 8 for row in table.values())


def test_implication_table_two_chain():
    p = FinitePoset.chain(1)
    table = hey.implication_table(p)
    assert set(table) == {"{}", "0", "0,1"}
    assert table["0,1"]["0"] == "0"
    assert table["0"]["{}"] == "{}"
    assert table["{}"]["{}"] == "0,1"


def test_implication_table_bound_is_checked_without_a_bound_sized_integer():
    """A table of |opens|^2 entries passes a bound B iff it has at most 2^B
    entries, also for a B far past twice the element count; the message
    names the bound given."""
    p = FinitePoset.chain(1)
    assert hey.implication_table(p, bound=10**12) == hey.implication_table(p)
    antichain = FinitePoset("abc", ())
    for bound in range(3, 12):
        if 64 > 1 << bound:
            with pytest.raises(BoundExceeded, match=re.escape(
                    f"8 opens make a table of 64 implications, more than 2^{bound}")):
                hey.implication_table(antichain, bound=bound)
        else:
            assert len(hey.implication_table(antichain, bound=bound)) == 8
