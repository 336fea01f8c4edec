"""Semantic information measures over Boolean and Heyting languages.

A theory is represented by the conjunction of its axioms, an open of a
finite poset (the ``poset`` of a `heyting.OpenAlgebra`): a truth set is an
open of the discrete poset on the states (every subset), an open of a site
is itself, and a chain subobject is an open of the chain's poset of
elements (as is any presheaf subobject); `heyting.oracle_implies_mask` is
the one supremum oracle behind all three.  Conditioning is the implication
T|Q = (Q => T) (`heyting.implies` on sets, `heyting.implies_mask` on
masks); it is a monoid action, (T|Q)|R = T|(Q and R), and always weakens:
T <= T|Q.

Precision functions psi grade theories (increasing, ideally concave);
the ambiguity of S against a counterexample Q is phi^Q(S) = psi(S|Q) -
psi(S), a cocycle: phi^{Q and R}(S) = phi^Q(S) + phi^R(S|Q).  Mutual
information, the divergence analog and the independence/additivity checks
are algebraic combinations of the same four-point evaluations.

Inside, a proposition is a mask of ``psi.algebra.poset`` (bit i for its
i-th element), and psi grades masks (`PrecisionFunction.of_mask`).  The
per-call measures (`condition`, `ambiguity`, `mutual_information`,
`kl_divergence`, `concavity_defect` and psi itself) take frozensets: each
encodes its arguments once, checking that they are opens
(`heyting.mask_of_open`), and evaluates on masks.  The sweeps over many
samples, `check_cocycle` and `check_concavity`, take masks and grade each
distinct mask once per sweep; `check_concavity` shares `concavity_defect`'s
body.  `sample` draws the sampled propositions, as `random.Random.sample`
would.

psi(bottom) = -inf is a legal value; any expression that would subtract
two infinities raises InfinityArithmetic instead of returning NaN.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import compress

from .arch_site import _bits
from .errors import InfinityArithmetic, LanguageError
from .heyting import OpenAlgebra, implies, implies_mask, mask_of_open

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(rng, population, lo, hi):
    """``rng.sample(population, rng.randint(lo, hi))`` for a `random.Random`
    and a sequence: the same list, and ``rng`` is left in the same state.

    CPython's `random.Random.sample` always takes its pool branch for up to
    21 items, and each ``randbelow(m)`` there and in `randint` is one
    ``getrandbits(m.bit_length())``, drawn again while it is >= m.  For up
    to 21 items and 0 <= lo <= hi <= len(population) that is done here
    inline, with one C call per draw; anything else goes to ``rng`` itself.
    The tests compare the two on many sizes, ranges and seeds."""
    n = len(population)
    if n > 21 or not 0 <= lo <= hi <= n:
        return rng.sample(population, rng.randint(lo, hi))
    getrandbits = rng.getrandbits
    width = hi - lo + 1
    bits = width.bit_length()
    k = getrandbits(bits)
    while k >= width:
        k = getrandbits(bits)
    pool = list(population)
    out = []
    for m in range(n, n - lo - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        out.append(pool[j])
        pool[j] = pool[m - 1]
    return out


# ---------------------------------------------------------------------------
# Languages and conditioning
# ---------------------------------------------------------------------------

class BooleanLanguage:
    """A finite set of elementary states with a strictly positive, finite
    measure.  Measures of sets are `math.fsum`s, correctly rounded and so
    independent of the order in which a frozenset yields its states."""

    def __init__(self, states, measure=None):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise LanguageError("repeated elementary states")
        if not self.states:
            raise LanguageError("a language needs at least one state")
        measure = dict(measure) if measure else {s: 1.0 for s in self.states}
        missing = set(self.states) - set(measure)
        if missing:
            raise LanguageError(f"measure missing on {sorted(map(str, missing))}")
        if not all(isinstance(measure[s], numbers.Real) for s in self.states):
            raise LanguageError("measure values must be numbers")
        if not all(math.isfinite(measure[s]) for s in self.states):
            raise LanguageError("measure values must be finite")
        if any(measure[s] <= 0 for s in self.states):
            raise LanguageError("measure must be strictly positive")
        self.measure = {s: float(measure[s]) for s in self.states}
        try:
            self.total = math.fsum(self.measure.values())
        except OverflowError:
            raise LanguageError("the total measure must be finite") from None
        if min(self.measure.values()) / self.total == 0:
            raise LanguageError("measure values are too far apart: a state's share "
                                "of the total rounds to 0")

    def m(self, subset):
        # the empty set keeps the int 0 of `sum`, which reports print as 0
        return math.fsum(map(self.measure.__getitem__, subset)) or 0


def condition(algebra, t, q):
    """T|Q = (Q => T), the largest theory whose meet with Q implies T."""
    return implies(algebra.poset, q, t)


# ---------------------------------------------------------------------------
# Content and precision
# ---------------------------------------------------------------------------

def content(lang, t):
    """c(T): total measure of the elementary states excluded by T."""
    return lang.m(set(lang.states).difference(t))


@dataclass
class PrecisionFunction:
    """An evaluation contract psi: theory -> extended real.  `of_mask`
    grades the open of ``algebra.poset`` with a given mask, here by calling
    ``fn`` on its set of elements; psi(T) of a set T is `of_mask` of its
    mask."""

    fn: object
    algebra: object

    def __call__(self, t):
        return self.of_mask(self.algebra.poset.mask_of(t))

    def of_mask(self, mask):
        return self.fn(self.algebra.poset.set_of(mask))


_NOT_EXCLUDED = "theory does not exclude the localizing proposition"


class _LogMeasure(PrecisionFunction):
    """psi(T) = ln(m(T) / denom) on a Boolean language, -inf where m(T) = 0,
    for theories that exclude the states ``p``.  `of_mask` reads a mask of
    the discrete poset on the states directly (it has no ``fn``): m is the
    `math.fsum` of the measures of its set bits, correctly rounded like
    `BooleanLanguage.m`."""

    def __init__(self, lang, p, denom):
        super().__init__(None, OpenAlgebra.discrete(lang.states))
        self.lang, self.p, self.denom = lang, p, denom
        self.p_mask = self.algebra.poset.mask_of(p.intersection(lang.states))
        self.weights = [lang.measure[s] for s in lang.states]

    def of_mask(self, mask):
        if mask & self.p_mask:
            raise LanguageError(_NOT_EXCLUDED)
        mt = math.fsum(compress(self.weights, _bits(mask)))
        return NEG_INF if mt == 0 else math.log(mt / self.denom)


def cbh_precision(lang):
    """psi_bottom(T) = ln((c(bottom) - c(T)) / c(bottom)) = ln(m(T)/m(E))."""
    return _LogMeasure(lang, frozenset(), lang.total)


def localized_precision(lang, p):
    """psi_P(T) = ln(m(T) / m(not P)), defined for theories T excluding P,
    as a precision.  m(not P) is summed once, when it is built, so a
    P that names every state raises LanguageError here, before any theory is
    graded."""
    p = frozenset(p)
    if not p:
        return cbh_precision(lang)
    denom = lang.m(set(lang.states) - p)
    if denom == 0:
        raise LanguageError("not P has measure zero; localization undefined")
    return _LogMeasure(lang, p, denom)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

_AMBIGUITY_INF = "difference of two infinite precisions"


def _diff(pos, neg, what):
    """pos - neg on extended reals; inf - inf raises InfinityArithmetic(what)."""
    if math.isinf(pos) and math.isinf(neg):
        raise InfinityArithmetic(what)
    return pos - neg


def ambiguity(psi, s, q):
    """phi^Q(S) = psi(S|Q) - psi(S); nonnegative for increasing psi."""
    poset = psi.algebra.poset
    q, s = mask_of_open(poset, q), mask_of_open(poset, s)
    return _diff(psi.of_mask(implies_mask(poset, q, s)), psi.of_mask(s), _AMBIGUITY_INF)


def mutual_information(psi, t, q1, q2):
    """I(Q1;Q2)(T) = psi(T|Q1) + psi(T|Q2) - psi(T|Q1 and Q2) - psi(T)."""
    poset = psi.algebra.poset
    q1, t, q2 = mask_of_open(poset, q1), mask_of_open(poset, t), mask_of_open(poset, q2)
    a, b, c, d = map(psi.of_mask, (implies_mask(poset, q1, t), implies_mask(poset, q2, t),
                                   implies_mask(poset, q1 & q2, t), t))
    return _diff(a + b, c + d, "mutual information mixes infinities")


def kl_divergence(psi, q, s0, s1):
    """D^Q(S0;S1) = psi(S0 and S1|Q) - psi(S0 and S1) - psi(S0|Q) + psi(S0)."""
    poset = psi.algebra.poset
    s0, s1, q = mask_of_open(poset, s0), mask_of_open(poset, s1), mask_of_open(poset, q)
    a, b, c, d = map(psi.of_mask, (implies_mask(poset, q, s0 & s1), s0 & s1,
                                   implies_mask(poset, q, s0), s0))
    return _diff(a + d, b + c, "divergence mixes infinities")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CocycleReport:
    samples: int
    max_residual: float

    def passed(self, tol=1e-12):
        return self.samples > 0 and self.max_residual <= tol


def check_cocycle(psi, triples):
    """The largest residual of phi^{Q and R}(S) = phi^Q(S) + phi^R(S|Q) over
    the (S, Q, R) triples, read once (a generator will do).  A triple where
    either side would subtract two infinities is skipped, not counted.

    S, Q and R are masks of opens of ``psi.algebra.poset``, as Python ints.
    Each triple evaluates psi(S|Q and R), psi(S), psi(S|Q) and psi((S|Q)|R),
    in that order, and three implications (`heyting.implies_mask`), where
    the three `ambiguity` calls would take six and four; psi is memoized by
    mask for the sweep.  The differences are formed from these values with
    the same guards and float operations, in the same order, so the report
    is theirs bit for bit."""
    poset = psi.algebra.poset
    grade = functools.cache(psi.of_mask)
    worst = 0.0
    n = 0
    for s, q, r in triples:
        try:
            psi_s_qr = grade(implies_mask(poset, q & r, s))
            psi_s = grade(s)
            lhs = _diff(psi_s_qr, psi_s, _AMBIGUITY_INF)
            s_q = implies_mask(poset, q, s)
            psi_s_q = grade(s_q)
            rhs = _diff(psi_s_q, psi_s, _AMBIGUITY_INF) + \
                _diff(grade(implies_mask(poset, r, s_q)), psi_s_q, _AMBIGUITY_INF)
        except InfinityArithmetic:
            continue
        n += 1
        worst = max(worst, abs(lhs - rhs))
    return CocycleReport(n, worst)


@dataclass(frozen=True)
class ConcavityReport:
    samples: int
    minimum: float
    witness: tuple = None

    def passed(self, tol=1e-12):
        return self.samples > 0 and self.minimum >= -tol


_CONCAVITY_INF = "concavity defect mixes infinities"


def _defect(poset, grade, q, t, t2):
    """psi(T|Q) + psi(T') - (psi(T) + psi(T'|Q)) on masks, psi by ``grade``,
    evaluated in that order."""
    return _diff(grade(implies_mask(poset, q, t)) + grade(t2),
                 grade(t) + grade(implies_mask(poset, q, t2)), _CONCAVITY_INF)


def concavity_defect(psi, q, t, t_weaker):
    """I_P(Q; T, T') = psi(T|Q) - psi(T) - psi(T'|Q) + psi(T'); nonnegative
    for a concave psi when T <= T'."""
    poset = psi.algebra.poset
    q, t, t2 = mask_of_open(poset, q), mask_of_open(poset, t), mask_of_open(poset, t_weaker)
    return _defect(poset, psi.of_mask, q, t, t2)


def check_concavity(psi, domain):
    """Minimum of the double difference over (Q, T, T') samples with
    T <= T' (others are skipped); the sampler supplies the admissible
    triples, as masks of opens of ``psi.algebra.poset`` (Python ints).  Each
    sample is `concavity_defect`'s body, with psi memoized by mask for the
    sweep; the witness is the first sample that reaches the minimum, as
    given."""
    poset = psi.algebra.poset
    grade = functools.cache(psi.of_mask)
    minimum = math.inf
    witness = None
    n = 0
    for q, t, t2 in domain:
        if t & ~t2:
            continue
        try:
            value = _defect(poset, grade, q, t, t2)
        except InfinityArithmetic:
            continue
        n += 1
        if value < minimum:
            minimum, witness = value, (q, t, t2)
    return ConcavityReport(n, minimum if n else math.inf, witness)


def check_independence(lang, q, r):
    """Inductive independence m(Q and R) = m(Q) m(R) / m(E), to within
    1e-12 of max(1, m(E)), with the additivity residual of inf =
    -ln(m(.)/m(E)) when it holds and m(Q and R) > 0 (within that
    tolerance, m(Q and R) may be 0)."""
    q, r = frozenset(q), frozenset(r)
    mq, mr, mqr = lang.m(q), lang.m(r), lang.m(q & r)
    independent = abs(mqr - mq * mr / lang.total) <= 1e-12 * max(1.0, lang.total)
    residual = None
    if independent and mqr > 0:
        inf_q = -math.log(mq / lang.total)
        inf_r = -math.log(mr / lang.total)
        inf_qr = -math.log(mqr / lang.total)
        residual = abs(inf_qr - inf_q - inf_r)
    return independent, residual
