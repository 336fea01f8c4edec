"""Heyting algebra of the lower Alexandrov opens of a finite poset.

This is the library's one Heyting calculus.  A subobject of a presheaf F
is an open of its poset of elements (`presheaf.elements_poset`), a chain
subobject is one of its chain object's presheaf, and a Boolean proposition
is an open of the discrete poset on its states, where every subset is open.

Meet and join are intersection and union.  The implication Q => T is the
largest open whose meet with Q lies below T; pointwise it is

    x in (Q => T)  iff  for all y <= x: y in Q implies y in T,

that is, the complement of the up-closure of Q - T.  `oracle_implies_mask`
recomputes it as the literal union of all qualifying opens, which is the
definition; it is the only brute-force supremum oracle.  It scans the
poset's opens (`arch_site.open_masks`, one read-only numpy array of masks)
in one pass.  `implies_mask` is the one implication formula; negation is
Q => bottom, ``implies_mask(poset, q, 0)``.  A scalar mask may be a Python
or a numpy integer, such as an element of the opens array, and is read as
a Python int.  `implies_mask` and `oracle_implies_mask` also evaluate
elementwise on numpy arrays of masks, in the poset's `mask_dtype`
(uint32 up to 32 elements, uint64 up to 64) or any wider unsigned dtype.
There `implies_mask`, which refuses a poset of over 64 elements, reads the
up-closure of Q - T one byte at a time from the poset's 256-entry tables
(a table lookup per byte instead of a pass per element).

A proposition is stored as a mask.  The frozenset forms (`implies`,
`neg` and `oracle_implies`) encode each set argument once (`mask_of_open`,
which also checks that it is an open), evaluate on masks and decode a set
result once (`FinitePoset.set_of`).  On opens as frozensets, meet, join
and order are ``&``, ``|`` and ``<=``, the bottom is ``frozenset()`` and
the opens are `arch_site.lower_open_sets`.  `OpenAlgebra` names the poset
a family of propositions lives in, with its top and `check`.
"""

import numpy as np

from .arch_site import DEFAULT_ENUM_BOUND, FinitePoset, open_masks
from .errors import BoundExceeded, PosetError


def top_mask(poset):
    return (1 << len(poset.elements)) - 1


def implies_mask(poset, q, t):
    """Q => T on masks: clear the up-set of every element of Q - T.  The
    masks may be Python or numpy integers, or numpy arrays of unsigned
    masks evaluated elementwise (with broadcasting) and returned in their
    dtype.  On integers Q - T is cleared at once, and then the up-sets of
    its non-maximal elements (on a discrete poset there are none); on
    arrays the up-closure of Q - T is the union of one per-byte table entry
    for each byte of the mask.  T is complemented within the top mask, so a
    Python-int T stays non-negative and mixes with mask arrays."""
    top = top_mask(poset)
    if not (isinstance(q, np.ndarray) or isinstance(t, np.ndarray)):
        bad = int(q) & (top ^ int(t))
        out = top ^ bad
        bad &= poset._nonmaximal
        while bad:
            up = poset._up[(bad & -bad).bit_length() - 1]
            out &= ~up
            bad &= ~up
        return out
    tables = poset._up_byte_tables            # PosetError past 64 elements
    bad = q & (top ^ t)
    # byte k of each mask, least significant first, as a strided uint8 view
    byte = np.asarray(bad, bad.dtype.newbyteorder("<"), order="C")
    byte = byte.view(np.uint8).reshape(bad.shape + (bad.itemsize,))
    tables = tables.astype(bad.dtype, copy=False)
    up = np.take(tables[0], byte[..., 0])
    entry = np.empty_like(up)
    for k in range(1, len(tables)):
        up |= np.take(tables[k], byte[..., k], out=entry)
    np.invert(up, out=up)
    up &= top
    return up


def oracle_implies_mask(poset, q, t, opens):
    """Q => T as the union of every open V with V /\\ Q <= T, that is, V
    disjoint from Q - T: one scan of ``opens``, the masks of every open
    (`open_masks`).  Scalar masks, Python or numpy integers, give a Python
    int.  On numpy arrays of masks (broadcast against each other) the opens
    lie along one more, last axis, and the result keeps the dtype of Q - T."""
    top = top_mask(poset)
    if isinstance(q, np.ndarray) or isinstance(t, np.ndarray):
        bad = (q & (top ^ t))[..., None]
        v = np.asarray(opens, dtype=bad.dtype)
        return np.bitwise_or.reduce(np.where(v & bad == 0, v, 0), axis=-1)
    v = np.asarray(opens)
    bad = int(q) & (top ^ int(t))
    return int(np.bitwise_or.reduce(v[(v & bad) == 0]))


def mask_of_open(poset, t):
    """The mask of ``t``, a set of elements that must be an open: else
    `PosetError`, naming the elements foreign to the poset, or ``t`` when it
    is not downward closed (only its non-minimal elements are tested)."""
    t = frozenset(t)
    try:
        m = poset.mask_of(t)
    except KeyError:
        raise PosetError(f"{sorted(map(str, t - set(poset.elements)))} "
                         "are not elements of the poset") from None
    down = poset._down
    rest = m & poset._nonminimal
    while rest:
        low = rest & -rest
        if down[low.bit_length() - 1] & ~m:
            raise PosetError(f"{sorted(map(str, t))} is not downward closed")
        rest ^= low
    return m


def implies(poset, q, t):
    """Q => T on opens given as sets, by `implies_mask`."""
    return poset.set_of(implies_mask(poset, mask_of_open(poset, q), mask_of_open(poset, t)))


def neg(poset, q):
    return poset.set_of(implies_mask(poset, mask_of_open(poset, q), 0))


def oracle_implies(poset, q, t, bound=None):
    """Q => T recomputed as the union of every open V with V /\\ Q <= T."""
    qm, tm = mask_of_open(poset, q), mask_of_open(poset, t)
    return poset.set_of(oracle_implies_mask(poset, qm, tm, open_masks(poset, bound)))


def implication_table(poset, bound=None):
    """The full opens x opens implication matrix, for reports.  One limit,
    ``bound`` else `DEFAULT_ENUM_BOUND`, caps both the poset's elements (in
    `open_masks`) and the table's entries: more than 2**limit raises
    `BoundExceeded` before any row is built.  A poset of n elements has at
    most 2**n opens, so the test never builds an integer of more than 2n
    bits, whatever the limit.  An open is labelled by its
    element names, joined by commas (``{}`` when empty); two opens with one
    label raise `PosetError`, also before any row is built."""
    limit = DEFAULT_ENUM_BOUND if bound is None else bound
    opens = open_masks(poset, limit).tolist()
    if len(opens) ** 2 > 1 << min(limit, 2 * len(poset.elements)):
        raise BoundExceeded(f"{len(opens)} opens make a table of {len(opens) ** 2} "
                            f"implications, more than 2^{limit}")
    label, owner = {}, {}
    for m in opens:
        label[m] = ",".join(sorted(str(e) for e in poset.set_of(m))) or "{}"
        other = owner.setdefault(label[m], m)
        if other != m:
            raise PosetError(f"opens {sorted(map(str, poset.set_of(other)))} and "
                             f"{sorted(map(str, poset.set_of(m)))} share the label {label[m]!r}")
    return {
        label[q]: {label[t]: label[implies_mask(poset, q, t)] for t in opens}
        for q in opens
    }


class OpenAlgebra:
    """The opens of a finite poset as frozensets of its elements: the poset,
    its top open and `check`, which refuses a set that is not an open
    (`mask_of_open`)."""

    def __init__(self, poset):
        self.poset = poset
        self.top = frozenset(poset.elements)

    @staticmethod
    def discrete(states):
        """The Boolean algebra of all subsets of ``states``."""
        return OpenAlgebra(FinitePoset(states, ()))

    def check(self, t):
        t = frozenset(t)
        mask_of_open(self.poset, t)
        return t
