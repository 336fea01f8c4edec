"""Injective chain objects and their intuitionistic calculus.

A chain object is a nested family E_n <= ... <= E_1 <= E_0 of finite sets,
i.e. a presheaf on the total order 0 -> 1 -> ... -> n whose restriction
maps are inclusions.  Its subobjects are the nested families T with
T_k <= E_k, i.e. the opens of its poset of elements (`ChainObject.poset`),
and they are handled as bit masks over that poset: `ChainObject.mask_of`
and `levels_of` convert through `heyting.mask_of_open` and
`FinitePoset.set_of`, and the generic calculus of `heyting` and its
supremum oracle apply unchanged.  The implication U = (Q => T) satisfies
the inductive formulas

    U_0 = T_0 or (E_0 - Q_0),      U_k = U_{k-1} and (T_k or (E_k - Q_k)),

the negation (Q => bottom, `chain_implication` with T = 0) is the running
intersection of the level complements, and the precision of a subobject
against a dominated weight sequence delta is

    psi_delta(T) = sum_k delta_k * |T_k|,

which is strictly increasing.  It is concave for the conditioning
T -> (Q => T) when Q is asserted at full depth, Q_k = Q_0 & E_k at every
level; for a Q that loses depth down the chain concavity can fail (one point
at depth 1 with Q = ({x}, {}) gives a double difference of -0.5).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arch_site import FinitePoset
from .errors import LanguageError, PresheafError
from .heyting import mask_of_open
from .presheaf import Presheaf, elements_poset


@dataclass(frozen=True)
class ChainObject:
    """Levels E_0 >= E_1 >= ... >= E_n as a tuple of frozensets."""

    levels: tuple

    @staticmethod
    def of(*levels):
        levels = tuple(frozenset(l) for l in levels)
        if not levels:
            raise PresheafError("a chain object needs at least one level")
        for k in range(1, len(levels)):
            if not levels[k] <= levels[k - 1]:
                raise PresheafError(f"level {k} is not included in level {k - 1}")
        return ChainObject(levels)

    @property
    def n(self):
        return len(self.levels) - 1

    def depth(self, x):
        """Largest k with x in E_k."""
        d = -1
        for k, level in enumerate(self.levels):
            if x in level:
                d = k
        return d

    def as_presheaf(self):
        """The presheaf on 0 <= ... <= n, each level's points deepest first,
        so E_k is a prefix of E_{k-1}.  Its poset of elements (`poset`)
        lists level 0, then level 1, ..., so in a mask over it a point's bit
        at level k sits |E_{k-1}| places above its bit at k-1."""
        order = sorted(self.levels[0], key=lambda x: (-self.depth(x), str(x)))
        carriers = {k: tuple(x for x in order if x in level)
                    for k, level in enumerate(self.levels)}
        maps = {(k, k + 1): {s: s for s in carriers[k + 1]} for k in range(self.n)}
        return Presheaf(FinitePoset.chain(self.n), carriers, maps)

    @cached_property
    def poset(self):
        """The poset of elements of `as_presheaf`: the pairs (k, x) with x in
        E_k, where (k, x) <= (k + 1, x).  Its opens are the subobjects."""
        return elements_poset(self.as_presheaf())

    def mask_of(self, *levels):
        """The mask of the subobject T_0 >= ... >= T_n: `PosetError` when
        some T_k holds a point outside E_k or outside T_{k-1}."""
        if len(levels) != self.n + 1:
            raise PresheafError(f"expected {self.n + 1} levels, got {len(levels)}")
        return mask_of_open(self.poset, {(k, x) for k, t in enumerate(levels) for x in t})

    def levels_of(self, mask):
        """The levels T_0, ..., T_n of a subobject mask."""
        out = [set() for _ in self.levels]
        for k, x in self.poset.set_of(mask):
            out[k].add(x)
        return tuple(map(frozenset, out))


def _running_intersection(chain, layer):
    """U_0 = L_0, U_k = U_{k-1} and L_k, for per-level sets L_k given as one
    mask; U_{k-1} reaches level k by a shift (see `ChainObject.as_presheaf`)
    and is cut to level k's window.  Masks may be Python or numpy integers,
    or numpy arrays of unsigned masks, whose dtype the result keeps; an
    array is copied once and each level is then four in-place passes."""
    sizes = [len(level) for level in chain.levels]
    out = layer & ((1 << sizes[0]) - 1)
    acc = out.copy() if isinstance(out, np.ndarray) else out
    offset = 0
    for k in range(1, len(sizes)):
        acc <<= sizes[k - 1]
        acc &= layer
        offset += sizes[k - 1]
        acc &= ((1 << sizes[k]) - 1) << offset
        out |= acc
    return out


def chain_implication(chain, t, q):
    """U = (Q => T) by the inductive level formulas, on subobject masks.
    Scalar masks are read as Python ints, and Q is complemented within the
    top mask, so numpy and Python integers and mask arrays mix."""
    if not (isinstance(t, np.ndarray) or isinstance(q, np.ndarray)):
        t, q = int(t), int(q)
    top = (1 << sum(len(level) for level in chain.levels)) - 1
    return _running_intersection(chain, t | (top ^ q))


# ---------------------------------------------------------------------------
# Precision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSequence:
    """Strictly decreasing positive weights with the dominance property
    delta_k > delta_{k+1} + ... + delta_n."""

    values: tuple

    @staticmethod
    def of(values):
        values = tuple(float(v) for v in values)
        if not all(map(math.isfinite, values)):
            raise LanguageError(f"delta values must be finite, got {list(values)}")
        if not values or any(v <= 0 for v in values):
            raise LanguageError("delta values must be strictly positive")
        for k in range(len(values)):
            tail = sum(values[k + 1:])
            if values[k] <= tail:
                raise LanguageError(
                    f"dominance fails at index {k}: {values[k]} <= {tail}")
        return DeltaSequence(values)

    @staticmethod
    def dyadic(n):
        """delta_k = 2**-k for k = 0..n; always dominated."""
        return DeltaSequence(tuple(2.0 ** -k for k in range(n + 1)))


def psi_delta(chain, t, delta):
    """sum_k delta_k * |T_k| for a subobject mask."""
    if len(delta.values) != chain.n + 1:
        raise LanguageError("delta length does not match the chain height")
    total = 0.0
    for d, level in zip(delta.values, chain.levels_of(t)):
        total += d * len(level)
    return total
