"""Generator for finite subject/attribute languages and their symmetry.

A language has n named subjects and a list of attributes, each with a
finite value list; an elementary state assigns one value per (subject,
attribute), so there are (prod of value counts)**n states.  The symmetry
group is generated by subject permutations, per-attribute value
permutations, and exchanges of attributes with equal arity; it acts on the
states, and the uniform measure is invariant, so contents and precision
are constant along orbits.

For three subjects and two binary attributes the group has order 48
(subject permutations times the dihedral symmetry of the value square),
the 64 states split into orbits of sizes 4/24/12/24, and the twelve
simple propositions "subject s has value v" are self-dual under negation
and form a single orbit.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import BoundExceeded, LanguageError
from .groupoids import _orbits, close_permutation_group
from .seminfo import BooleanLanguage

DEFAULT_STATE_BOUND = 10**6

_SUBJECT_NAMES = "abcdefghijklmnopqrstuvwxyz"
_ATTR_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class CarnapLanguage:
    subjects: tuple
    attributes: tuple          # (name, value_count) pairs
    states: tuple              # tuples of per-subject value-index tuples

    def state_label(self, state):
        return "|".join(
            "".join(f"{name}{state[s][a] + 1}"
                    for a, (name, _) in enumerate(self.attributes))
            for s in range(len(self.subjects)))

    def labels(self):
        return tuple(self.state_label(s) for s in self.states)

    @property
    def proposition_count(self):
        """2**|E|, reported symbolically (exact integer), never enumerated."""
        return 2 ** len(self.states)

    def to_boolean_language(self, measure=None):
        return BooleanLanguage(self.states, measure)


def build_language(n_subjects, value_counts, bound=DEFAULT_STATE_BOUND):
    """All assignments of one value per (subject, attribute)."""
    if n_subjects < 1:
        raise LanguageError("need at least one subject")
    counts = tuple(int(c) for c in value_counts)
    if not counts or any(c < 1 for c in counts):
        raise LanguageError("every attribute needs at least one value")
    size = 1
    for c in counts:
        size *= c
    size **= n_subjects
    if size > bound:
        raise BoundExceeded(f"{size} states exceeds bound {bound}")
    subjects = tuple(_SUBJECT_NAMES[i] if n_subjects <= 26 else f"s{i}"
                     for i in range(n_subjects))
    attributes = tuple((_ATTR_NAMES[a] if len(counts) <= 26 else f"P{a}", c)
                       for a, c in enumerate(counts))
    per_subject = tuple(iproduct(*(range(c) for c in counts)))
    states = tuple(iproduct(per_subject, repeat=n_subjects))
    return CarnapLanguage(subjects, attributes, states)


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------

def _apply(lang, subject_perm, attr_perm, value_perms, state):
    """Image of a state under (subject perm, attribute perm, value perms)."""
    n = len(lang.subjects)
    out = []
    for s in range(n):
        src = state[subject_perm[s]]
        vals = []
        for a in range(len(lang.attributes)):
            v = src[attr_perm[a]]
            vals.append(value_perms[a][v])
        out.append(tuple(vals))
    return tuple(out)


@dataclass(frozen=True)
class SymmetryGroup:
    language: CarnapLanguage
    generators: dict
    order: int
    elements: dict             # name -> state permutation dict


def symmetry_generators(lang):
    """Named permutations of the state set: adjacent subject swaps, value
    swaps per attribute, and adjacent equal-arity attribute exchanges."""
    n = len(lang.subjects)
    n_attr = len(lang.attributes)
    ident_subj = tuple(range(n))
    ident_attr = tuple(range(n_attr))
    ident_vals = tuple({v: v for v in range(c)} for _, c in lang.attributes)
    gens = {}

    def perm_of(subject_perm, attr_perm, value_perms):
        return {s: _apply(lang, subject_perm, attr_perm, value_perms, s)
                for s in lang.states}

    for i in range(n - 1):
        sp = list(ident_subj)
        sp[i], sp[i + 1] = sp[i + 1], sp[i]
        gens[f"swap_{lang.subjects[i]}{lang.subjects[i + 1]}"] = \
            perm_of(tuple(sp), ident_attr, ident_vals)
    for a, (name, count) in enumerate(lang.attributes):
        for v in range(count - 1):
            vp = list(ident_vals)
            vp[a] = dict(ident_vals[a])
            vp[a][v], vp[a][v + 1] = v + 1, v
            gens[f"flip_{name}{v + 1}{v + 2}"] = perm_of(ident_subj, ident_attr, tuple(vp))
    for a in range(n_attr - 1):
        if lang.attributes[a][1] != lang.attributes[a + 1][1]:
            continue
        ap = list(ident_attr)
        ap[a], ap[a + 1] = ap[a + 1], ap[a]
        gens[f"exch_{lang.attributes[a][0]}{lang.attributes[a + 1][0]}"] = \
            perm_of(ident_subj, tuple(ap), ident_vals)
    return gens


def build_symmetry_group(lang, bound=10_000):
    gens = symmetry_generators(lang)
    elements = close_permutation_group(gens, bound)
    return SymmetryGroup(lang, gens, len(elements),
                         {k: dict(p) for k, p in elements.items()})


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

_TYPE_SENTENCES = {
    "I": "all subjects carry the same values",
    "II": "a pair of equal subjects, the third differing in one aspect",
    "III": "a pair of equal subjects, the third differing in both aspects",
    "IV": "all subjects distinct",
}


def state_type(lang, state):
    """Structural type I-IV; defined for three subjects over two attributes."""
    if len(lang.subjects) != 3 or len(lang.attributes) != 2:
        return None
    a, b, c = state
    distinct = len({a, b, c})
    if distinct == 1:
        return "I"
    if distinct == 3:
        return "IV"
    pair = a if a == b or a == c else b
    odd = next(v for v in (a, b, c) if v != pair)
    differences = sum(1 for x, y in zip(pair, odd) if x != y)
    return "II" if differences == 1 else "III"


@dataclass(frozen=True)
class CarnapOrbitReport:
    group_order: int
    orbits: tuple              # (size, stabilizer_order, type_label, members)

    def sizes(self):
        return tuple(o[0] for o in self.orbits)

    def stabilizers(self):
        return tuple(o[1] for o in self.orbits)

    def as_dict(self, lang):
        return {
            "group_order": self.group_order,
            "orbits": [
                {"size": size, "stabilizer": stab, "type": label or "-",
                 "sentence": _TYPE_SENTENCES.get(label, "-"),
                 "example": lang.state_label(members[0])}
                for size, stab, label, members in self.orbits
            ],
        }


def orbit_report(lang, group=None):
    """Orbits of the states with stabilizer orders and structural types.

    The group is closed once: a given ``group`` (else one built here) is
    reused, and each stabilizer is counted over its listed elements.
    """
    group = group or build_symmetry_group(lang)
    base = _orbits(group.generators, lang.states, list(group.elements.values()))
    orbits = []
    for members, stab in base.orbits:
        labels = {state_type(lang, s) for s in members}
        if len(labels) != 1:
            raise LanguageError("structural type is not constant on an orbit")
        orbits.append((len(members), stab, labels.pop(), members))
    orbits.sort(key=lambda o: (o[0], o[2] or ""))
    return CarnapOrbitReport(base.group_order, tuple(orbits))


# ---------------------------------------------------------------------------
# Simple propositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleProposition:
    subject: str
    attribute: str
    value: int                 # 1-based, matching the labels
    truth_set: frozenset

    @property
    def label(self):
        return f"{self.subject}{self.attribute}{self.value}"


def simple_propositions(lang):
    """The propositions "subject s takes value v of attribute A"."""
    out = []
    for si, subj in enumerate(lang.subjects):
        for ai, (name, count) in enumerate(lang.attributes):
            for v in range(count):
                truth = frozenset(s for s in lang.states if s[si][ai] == v)
                out.append(SimpleProposition(subj, name, v + 1, truth))
    return out


def self_duality_holds(lang, simples=None):
    """For binary attributes: the complement of each simple is the simple
    with the opposite value."""
    if any(c != 2 for _, c in lang.attributes):
        return None
    simples = simples or simple_propositions(lang)
    full = frozenset(lang.states)
    by_key = {(s.subject, s.attribute, s.value): s for s in simples}
    for s in simples:
        dual = by_key[(s.subject, s.attribute, 3 - s.value)]
        if full - s.truth_set != dual.truth_set:
            return False
    return True


def simples_form_single_orbit(lang, group=None, simples=None):
    """Does the symmetry group act transitively on the simple truth sets?"""
    group = group or build_symmetry_group(lang)
    simples = simples or simple_propositions(lang)
    sets = {s.truth_set for s in simples}
    start = next(iter(sets))
    reached = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for perm in group.generators.values():
            img = frozenset(perm[x] for x in cur)
            if img in sets and img not in reached:
                reached.add(img)
                frontier.append(img)
    return reached == sets


def simple_content_report(lang, measure=None):
    """Enumerated content of a simple proposition, with the figure reported
    in the literature for the three-subject two-attribute case (58), which
    direct counting does not reproduce."""
    from .seminfo import content

    blang = lang.to_boolean_language(measure)
    simples = simple_propositions(lang)
    computed = sorted({content(blang, s.truth_set) for s in simples})
    report = {"computed_contents": computed}
    if len(lang.subjects) == 3 and [c for _, c in lang.attributes] == [2, 2]:
        report["literature_value"] = 58
        report["agrees_with_literature"] = computed == [58]
    return report
