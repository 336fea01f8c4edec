"""Semantic information measures over Boolean and Heyting languages.

A theory is represented by the conjunction of its axioms, an open of a
finite poset in one algebra, `heyting.OpenAlgebra`: a truth set is an open
of the discrete poset on the states (every subset), an open of a site is
itself, and a chain subobject is an open of the chain's poset of elements
(as is any presheaf subobject); `heyting.oracle_implies_mask` is the one
supremum oracle behind all three.  Conditioning is the implication
T|Q = (Q => T); it is a monoid action, (T|Q)|R = T|(Q and R), and always
weakens: T <= T|Q.

Precision functions psi grade theories (increasing, ideally concave);
the ambiguity of S against a counterexample Q is phi^Q(S) = psi(S|Q) -
psi(S), a cocycle: phi^{Q and R}(S) = phi^Q(S) + phi^R(S|Q).  Mutual
information, the divergence analog and the independence/additivity checks
are algebraic combinations of the same four-point evaluations.

psi(bottom) = -inf is a legal value; any expression that would subtract
two infinities raises InfinityArithmetic instead of returning NaN.
"""

import math
import numbers
from dataclasses import dataclass

from .errors import InfinityArithmetic, LanguageError
from .heyting import OpenAlgebra

NEG_INF = float("-inf")


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
    return algebra.implies(q, t)


# ---------------------------------------------------------------------------
# Content and precision
# ---------------------------------------------------------------------------

def content(lang, t):
    """c(T): total measure of the elementary states excluded by T."""
    t = frozenset(t)
    return lang.m(set(lang.states) - t)


def psi_cbh(lang, t):
    """psi_bottom(T) = ln((c(bottom) - c(T)) / c(bottom)) = ln(m(T)/m(E))."""
    mt = lang.m(frozenset(t))
    return NEG_INF if mt == 0 else math.log(mt / lang.total)


@dataclass
class PrecisionFunction:
    """An evaluation contract psi: theory -> extended real."""

    fn: object
    algebra: object

    def __call__(self, t):
        return self.fn(t)


def cbh_precision(lang):
    alg = OpenAlgebra.discrete(lang.states)
    return PrecisionFunction(lambda t: psi_cbh(lang, t), alg)


def localized_precision(lang, p):
    """psi_P(T) = ln(m(T) / m(not P)), defined for theories T excluding P,
    as a precision.  m(not P) is summed once, when it is built, so a
    P that names every state raises LanguageError here, before any theory is
    graded."""
    alg = OpenAlgebra.discrete(lang.states)
    p = frozenset(p)
    if not p:
        return PrecisionFunction(lambda t: psi_cbh(lang, t), alg)
    denom = lang.m(set(lang.states) - p)
    if denom == 0:
        raise LanguageError("not P has measure zero; localization undefined")

    def psi(t):
        t = frozenset(t)
        if t & p:
            raise LanguageError("theory does not exclude the localizing proposition")
        mt = lang.m(t)
        return NEG_INF if mt == 0 else math.log(mt / denom)

    return PrecisionFunction(psi, alg)


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
    alg = psi.algebra
    return _diff(psi(condition(alg, s, q)), psi(s), _AMBIGUITY_INF)


def mutual_information(psi, t, q1, q2):
    """I(Q1;Q2)(T) = psi(T|Q1) + psi(T|Q2) - psi(T|Q1 and Q2) - psi(T)."""
    alg = psi.algebra
    a = psi(condition(alg, t, q1))
    b = psi(condition(alg, t, q2))
    c = psi(condition(alg, t, alg.meet(q1, q2)))
    d = psi(t)
    return _diff(a + b, c + d, "mutual information mixes infinities")


def kl_divergence(psi, q, s0, s1):
    """D^Q(S0;S1) = psi(S0 and S1|Q) - psi(S0 and S1) - psi(S0|Q) + psi(S0)."""
    alg = psi.algebra
    meet = alg.meet(s0, s1)
    a = psi(condition(alg, meet, q))
    b = psi(meet)
    c = psi(condition(alg, s0, q))
    d = psi(s0)
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

    Each triple evaluates psi(S|Q and R), psi(S), psi(S|Q) and psi((S|Q)|R)
    once each, in that order, and three implications, where the three
    `ambiguity` calls would take six and four.  The differences are formed
    from these values with the same guards and float operations, in the same
    order, so the report is theirs bit for bit."""
    alg = psi.algebra
    worst = 0.0
    n = 0
    for s, q, r in triples:
        try:
            psi_s_qr = psi(condition(alg, s, alg.meet(q, r)))
            psi_s = psi(s)
            lhs = _diff(psi_s_qr, psi_s, _AMBIGUITY_INF)
            s_q = condition(alg, s, q)
            psi_s_q = psi(s_q)
            rhs = _diff(psi_s_q, psi_s, _AMBIGUITY_INF) + \
                _diff(psi(condition(alg, s_q, r)), psi_s_q, _AMBIGUITY_INF)
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


def concavity_defect(psi, q, t, t_weaker):
    """I_P(Q; T, T') = psi(T|Q) - psi(T) - psi(T'|Q) + psi(T'); nonnegative
    for a concave psi when T <= T'."""
    alg = psi.algebra
    return _diff(psi(condition(alg, t, q)) + psi(t_weaker),
                 psi(t) + psi(condition(alg, t_weaker, q)), "concavity defect mixes infinities")


def check_concavity(psi, domain):
    """Minimum of the double difference over (Q, T, T') samples with
    T <= T'; the sampler supplies the admissible triples."""
    minimum = math.inf
    witness = None
    n = 0
    for q, t, t2 in domain:
        if not psi.algebra.leq(t, t2):
            continue
        try:
            value = concavity_defect(psi, q, t, t2)
        except InfinityArithmetic:
            continue
        n += 1
        if value < minimum:
            minimum, witness = value, (q, t, t2)
    return ConcavityReport(n, minimum if n else math.inf, witness)


def check_independence(lang, q, r, tol=1e-12):
    """Inductive independence m(Q and R) = m(Q) m(R) / m(E), with the
    additivity residual of inf = -ln(m(.)/m(E)) when it holds and
    m(Q and R) > 0 (within the tolerance, m(Q and R) may be 0)."""
    q, r = frozenset(q), frozenset(r)
    mq, mr, mqr = lang.m(q), lang.m(r), lang.m(q & r)
    independent = abs(mqr - mq * mr / lang.total) <= tol * max(1.0, lang.total)
    residual = None
    if independent and mqr > 0:
        inf_q = -math.log(mq / lang.total)
        inf_r = -math.log(mr / lang.total)
        inf_qr = -math.log(mqr / lang.total)
        residual = abs(inf_qr - inf_q - inf_r)
    return independent, residual
