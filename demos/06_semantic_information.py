"""Conditioning, precision, ambiguity, mutual information, divergence.

A four-state language: conditioning a theory weakens it, the ambiguity
against a counterexample is the precision gained by conditioning, and the
cocycle identity chains conditionings together.
"""

import random

from sheafnet.arch_site import lower_open_sets
from sheafnet.heyting import OpenAlgebra, neg
from sheafnet.seminfo import (
    BooleanLanguage,
    ambiguity,
    cbh_precision,
    check_cocycle,
    check_concavity,
    condition,
    content,
    kl_divergence,
    mutual_information,
)

lang = BooleanLanguage(["00", "01", "10", "11"])
alg = OpenAlgebra.discrete(lang.states)
psi = cbh_precision(lang)

t = frozenset({"00", "01"})
q = frozenset({"01", "11"})
print("content c(T)      =", content(lang, t))
print("T | Q             =", sorted(condition(alg, t, q)))
print("psi(T)            =", psi(t))
print("ambiguity phi^Q(T)=", ambiguity(psi, t, q))
print("I(Q; not-Q)(T)    =", mutual_information(psi, t, q, neg(alg.poset, q)))
print("D^Q(T; T|Q)       =", kl_divergence(psi, q, t, condition(alg, t, q)))

rng = random.Random(0)
subs = [s for s in lower_open_sets(alg.poset) if s]
triples = [(rng.choice(subs), rng.choice(subs), rng.choice(subs)) for _ in range(500)]
# the sweeps take each proposition as a mask of the discrete poset on the states
mask_of = psi.algebra.poset.mask_of
print("cocycle residual  =",
      check_cocycle(psi, [tuple(map(mask_of, x)) for x in triples]).max_residual)
domain = [(qq, a, b) for qq in subs for a in subs for b in subs if a <= b]
print("concavity minimum =",
      check_concavity(psi, [tuple(map(mask_of, x)) for x in domain]).minimum, "(>= 0: concave)")
