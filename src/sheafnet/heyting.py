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
in one pass.  Negation is Q => bottom (on masks,
``implies_mask(poset, q, 0)``).  The operations have bit-mask twins (suffix
``_mask``) used by the exhaustive harnesses.  A scalar mask may be a Python
or a numpy integer, such as an element of the opens array, and is read as
a Python int.  `implies_mask` and `oracle_implies_mask` also evaluate
elementwise on numpy arrays of masks, in the poset's `mask_dtype`
(uint32 up to 32 elements, uint64 up to 64) or any wider unsigned dtype.
There `implies_mask`, which refuses a poset of over 64 elements, reads the
up-closure of Q - T one byte at a time from the poset's 256-entry tables
(a table lookup per byte instead of a pass per element).

Each representation has one engine, and each serves its own traffic.
Masks serve the bulk sweeps: the acceptance harnesses evaluate millions of
pairs as ints or arrays and never leave masks, and the semantic-information
sweeps (`seminfo.check_cocycle`, `seminfo.check_concavity`) condition
thousands of sampled masks.  Frozensets serve per-call work, such as
conditioning in the per-call semantic-information measures and the
module-level `implies`, `neg` and `oracle_implies`: `OpenAlgebra` evaluates
Q => T with a few C-level set operations, which costs less than turning
each argument into a mask and back (a Python loop over its elements).  The
tests check the two engines against each other and against the oracle.
"""

import numpy as np

from .arch_site import DEFAULT_ENUM_BOUND, FinitePoset, lower_open_sets, open_masks
from .errors import BoundExceeded, PosetError


def top_mask(poset):
    return (1 << len(poset.elements)) - 1


def implies_mask(poset, q, t):
    """Q => T on masks: clear the up-set of every element of Q - T.  The
    masks may be Python or numpy integers, or numpy arrays of unsigned
    masks evaluated elementwise (with broadcasting) and returned in their
    dtype.  On integers Q - T is cleared at once, and then the up-sets of
    its non-maximal elements, as `OpenAlgebra.implies` does (on a discrete
    poset there are none); on arrays the up-closure of Q - T is the union of
    one per-byte table entry for each byte of the mask.  T is complemented
    within the top mask, so a Python-int T stays non-negative and mixes with
    mask arrays."""
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


def oracle_implies_mask(poset, q, t, opens=None):
    """Q => T as the union of every open V with V /\\ Q <= T, that is, V
    disjoint from Q - T: one scan of the opens (`open_masks`, or ``opens``).
    Scalar masks, Python or numpy integers, give a Python int.  On numpy
    arrays of masks (broadcast against each other) the opens lie along one
    more, last axis, and the result keeps the dtype of Q - T."""
    if opens is None:
        opens = open_masks(poset)
    top = top_mask(poset)
    if isinstance(q, np.ndarray) or isinstance(t, np.ndarray):
        bad = (q & (top ^ t))[..., None]
        v = np.asarray(opens, dtype=bad.dtype)
        return np.bitwise_or.reduce(np.where(v & bad == 0, v, 0), axis=-1)
    v = np.asarray(opens)
    bad = int(q) & (top ^ int(t))
    return int(np.bitwise_or.reduce(v[(v & bad) == 0]))


def implies(poset, q, t):
    """Q => T on opens, by `OpenAlgebra`'s set formula."""
    return OpenAlgebra(poset).implies(q, t)


def neg(poset, q):
    return OpenAlgebra(poset).neg(q)


def oracle_implies(poset, q, t, bound=None):
    """Q => T recomputed as the union of every open V with V /\\ Q <= T."""
    alg = OpenAlgebra(poset)
    qm, tm = poset.mask_of(alg.check(q)), poset.mask_of(alg.check(t))
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
    """The opens of a finite poset as frozensets of its elements: the
    frozenset engine, for per-call work (see the module docstring).

    Every argument is checked to be an open.  The operations work on the
    sets directly, through the poset's `strict_sets()`, with no round trip
    through masks: one call costs a few C-level set operations, where a
    conversion to a mask and back runs a Python loop."""

    def __init__(self, poset):
        self.poset = poset
        self.top = frozenset(poset.elements)
        self.bottom = frozenset()
        self._below, self._above = poset.strict_sets()
        # intersecting with a frozenset is faster than with a keys view
        self._nonminimal, self._nonmaximal = frozenset(self._below), frozenset(self._above)

    @staticmethod
    def discrete(states):
        """The Boolean algebra of all subsets of ``states``."""
        return OpenAlgebra(FinitePoset(states, ()))

    def check(self, t):
        t = frozenset(t)
        if not t <= self.top:
            raise PosetError(f"{sorted(map(str, t - self.top))} are not elements of the poset")
        for x in t & self._nonminimal:
            if not self._below[x] <= t:
                raise PosetError(f"{sorted(map(str, t))} is not downward closed")
        return t

    def meet(self, a, b):
        return self.check(a) & self.check(b)

    def join(self, a, b):
        return self.check(a) | self.check(b)

    def leq(self, a, b):
        return self.check(a) <= self.check(b)

    def implies(self, q, t):
        """Q => T as the complement of the up-closure of Q - T."""
        bad = self.check(q) - self.check(t)
        out = self.top - bad
        for x in bad & self._nonmaximal:
            out -= self._above[x]
        return out

    def neg(self, q):
        return self.implies(q, self.bottom)

    def elements(self, bound=None):
        """Every open, in increasing mask order."""
        return iter(lower_open_sets(self.poset, bound))
