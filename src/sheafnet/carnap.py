"""Generator for finite subject/attribute languages and their symmetry.

A language has n named subjects and a list of attributes, each with a
finite value list; an elementary state assigns one value per (subject,
attribute), so there are (prod of value counts)**n states.  The symmetry
group is generated by subject permutations, per-attribute value
permutations, and exchanges of attributes with equal arity; it acts on the
states, and the uniform measure is invariant, so contents and precision
are constant along orbits.

Every permutation of the symmetry path is an index array over
``lang.states``.  A state's index is its value digits read in mixed radix,
so each generator is computed by index arithmetic on one digit array of
all states, computed once per language (`CarnapLanguage._digits`).  The
group is known: it is S_n x prod over maximal runs of m adjacent
attributes of arity c of (S_c wr S_m), in the product action (Cameron,
*Permutation Groups*, 1999), less the factors that move no state (S_n
when a subject has one state, the runs with c = 1).  So its order is a
formula, tested against the group bound before any generator array is
built; its orbits are the connected classes of the generators, found by
min-label propagation along their index arrays; and each stabilizer has
order |G| / |orbit|.  A simple proposition is its row: the booleans over
the states whose digit at its (subject, attribute) is its value, read off
the same digit array.  The search over simples moves these rows through
the generators, and under the uniform measure a simple's content is |E|
less its row's count, so no truth set of states is built.  The states'
``str`` order, by which orbit members and element dicts are listed, is
sorted once per language (`CarnapLanguage._str_order`).  No path of the
library closes the group: its (order, |E|) element matrix
`SymmetryGroup.perms` is closed by `_close_group` (the group closure that
`groupoids` also closes vertex groups with) only when it is read, and
`SymmetryGroup.elements` decodes that matrix into state dicts each time
it is read.

For three subjects and two binary attributes the group has order 48
(subject permutations times the dihedral symmetry of the value square),
the 64 states split into orbits of sizes 4/24/12/24, and the twelve
simple propositions "subject s has value v" are self-dual under negation
and form a single orbit.
"""

import decimal
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby, repeat
from itertools import product as iproduct

import numpy as np

from .errors import BoundExceeded, GroupoidError, LanguageError
from .groupoids import DEFAULT_GROUP_BOUND, _close_group

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

    @property
    def proposition_count_text(self):
        """2**|E| in decimal digits, computed in `decimal` at maximal
        precision: exact, and free of Python's limit on the digits of an
        int-to-str conversion (4,300 by default, passed at 14,285 states)."""
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
            return str(decimal.Decimal(2) ** len(self.states))

    @cached_property
    def _digits(self):
        """The states as one read-only (|E|, subjects, attributes) array of
        value digits, with the mixed-radix weight of each digit:
        ``states[i]`` has index ``i = sum(digits[i] * weights)``, the last
        attribute of the last subject varying fastest."""
        counts = [c for _, c in self.attributes]
        n, k = len(self.subjects), len(counts)
        index = np.arange(len(self.states))
        digits = np.empty((len(index), n, k), dtype=np.min_scalar_type(max(counts) - 1))
        weights = np.empty((n, k), dtype=np.int64)
        weight = 1
        for s in reversed(range(n)):
            for a in reversed(range(k)):
                index, digits[:, s, a] = np.divmod(index, counts[a])
                weights[s, a] = weight
                weight *= counts[a]
        digits.flags.writeable = weights.flags.writeable = False
        return digits, weights

    @cached_property
    def _str_order(self):
        """The state indices, read-only, in ``str`` order of the states: the
        order in which orbit members and element dicts are listed.  It is
        not index order once an attribute has 11 values or more, where the
        digit 10 sorts before 2."""
        states = self.states
        order = np.array(sorted(range(len(states)), key=lambda i: str(states[i])), dtype=np.intp)
        order.flags.writeable = False
        return order


def build_language(n_subjects, value_counts, bound=None):
    """All assignments of one value per (subject, attribute): at most
    ``bound`` (else `DEFAULT_STATE_BOUND`) states."""
    if n_subjects < 1:
        raise LanguageError("need at least one subject")
    counts = tuple(int(c) for c in value_counts)
    if not counts or any(c < 1 for c in counts):
        raise LanguageError("every attribute needs at least one value")
    bound = DEFAULT_STATE_BOUND if bound is None else bound
    size = 1
    for c in chain.from_iterable(repeat(counts, n_subjects)):   # stops past the bound
        size *= c
        if size > bound:
            raise BoundExceeded(f"state count exceeds bound {bound}")
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

@dataclass(frozen=True)
class SymmetryGroup:
    """The symmetry group of ``language``: its named generators, index
    arrays over ``language.states``, and its order, given by formula
    (`build_symmetry_group`).  A group is a function of its language, so two
    groups compare equal on ``(language, order)``."""
    language: CarnapLanguage
    generators: dict = field(compare=False)     # name -> index array over the states
    order: int

    @cached_property
    def perms(self):
        """The (order, |E|) element matrix, closed from the generators by
        `_close_group` on the first read and kept: row ``r`` is an index
        array over the states, row 0 the identity, rows in closure order, in
        the generators' dtype.  A closure of another size than ``order``
        raises `GroupoidError`."""
        try:
            perms = _close_group(len(self.language.states), list(self.generators.values()),
                                 self.order)
            if len(perms) == self.order:
                return perms
        except BoundExceeded:
            pass
        raise GroupoidError(f"the generators do not close to the group order {self.order}")

    @property
    def elements(self):
        """The elements as state dicts, decoded from ``perms`` on each read
        (nothing is cached; bind the result to read it more than once):
        named ``e``, ``g1``, ... in row order, each a dict from every state,
        in ``str`` order of the states (`CarnapLanguage._str_order`), to its
        image."""
        states = self.language.states
        by_str = self.language._str_order
        keys = [states[i] for i in by_str.tolist()]
        return {f"g{r}" if r else "e": dict(zip(keys, map(states.__getitem__, row)))
                for r, row in enumerate(self.perms[:, by_str].tolist())}


def _generator_indices(lang):
    """Named generators as index arrays ``g`` over the states, ``states[g[i]]``
    the image of ``states[i]``: adjacent subject swaps, value swaps per
    attribute, and adjacent equal-arity attribute exchanges.  The arrays
    have the smallest unsigned dtype that holds every index.

    The image of a state takes its digit at (subject ``s``, attribute ``a``)
    from (``subject_perm[s]``, ``attr_perm[a]``) of the state, and a flip
    then swaps two values of one attribute; the image's index is the
    weighted sum of its digits.
    """
    digits, weights = lang._digits
    n, k = len(lang.subjects), len(lang.attributes)
    flat_weights = weights.ravel()
    dtype = np.min_scalar_type(len(lang.states) - 1)

    def image(subject_perm=range(n), attr_perm=range(k), flip=None):
        moved = digits[:, list(subject_perm)][:, :, list(attr_perm)]
        if flip is not None:
            a, v = flip
            column = moved[:, :, a]
            low, high = column == v, column == v + 1
            column[low], column[high] = v + 1, v
        return (moved.reshape(len(moved), -1) @ flat_weights).astype(dtype)

    def swapped(i, size):
        perm = list(range(size))
        perm[i], perm[i + 1] = i + 1, i
        return perm

    gens = {}
    for i in range(n - 1):
        gens[f"swap_{lang.subjects[i]}{lang.subjects[i + 1]}"] = image(subject_perm=swapped(i, n))
    for a, (name, count) in enumerate(lang.attributes):
        for v in range(count - 1):
            gens[f"flip_{name}{v + 1}{v + 2}"] = image(flip=(a, v))
    for a in range(k - 1):
        if lang.attributes[a][1] == lang.attributes[a + 1][1]:
            gens[f"exch_{lang.attributes[a][0]}{lang.attributes[a + 1][0]}"] = \
                image(attr_perm=swapped(a, k))
    return gens


def build_symmetry_group(lang, bound=None):
    """The group generated by `_generator_indices`, of at most ``bound``
    elements (else `DEFAULT_GROUP_BOUND`, the identity counted).

    Its order is tested against the bound before any generator array is
    built: n! (when a subject has at least two states) times (c!)^m * m!
    for each maximal run of m adjacent attributes of arity c >= 2, the
    order of S_n x prod (S_c wr S_m).  The subject permutations commute
    with the value and attribute permutations, which act on every subject
    alike; both act faithfully, and an attribute of one value moves nothing.
    The product is multiplied up factor by factor, so a refusal costs no
    more factors than the bound allows.  Nothing is closed here: the
    element matrix `SymmetryGroup.perms` is closed when it is read."""
    bound = DEFAULT_GROUP_BOUND if bound is None else bound
    counts = [c for _, c in lang.attributes]
    runs = [(c, len(list(run))) for c, run in groupby(counts) if c >= 2]
    factors = [range(2, len(lang.subjects) + 1)] if runs else []
    for c, m in runs:
        factors += [range(2, c + 1)] * m + [range(2, m + 1)]
    order = 1
    for k in chain((1,), *factors):        # the identity alone counts too
        order *= k
        if order > bound:
            raise BoundExceeded(f"group closure exceeds bound {bound}")
    return SymmetryGroup(lang, _generator_indices(lang), order)


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
    orbits: tuple              # (size, stabilizer_order, type_label, members)

    def sizes(self):
        return tuple(o[0] for o in self.orbits)

    def orbit_rows(self, lang):
        """One JSON-able row per orbit, as `sheafnet carnap` reports it."""
        return [{"size": size, "stabilizer": stab, "type": label or "-",
                 "sentence": _TYPE_SENTENCES.get(label, "-"),
                 "example": lang.state_label(members[0])}
                for size, stab, label, members in self.orbits]


def _orbit_labels(n, generators):
    """Each of the n states labelled by the least index of its orbit under
    the group of the index arrays ``generators``, by min-label propagation:
    every label takes the least label of its images, then the label of its
    label, until a pass changes nothing.  A label stays an index in its own
    orbit, and at the fixpoint it is constant along every generator, so
    constant on each orbit, where it equals the orbit's least index."""
    label = np.arange(n, dtype=np.min_scalar_type(n - 1))
    while generators:
        before = label.copy()
        for g in generators:
            np.minimum(label, label[g], out=label)
        label = label[label]
        if np.array_equal(label, before):
            break
    return label


def orbit_report(lang, group):
    """Orbits of the states with stabilizer orders and structural types.

    The orbits are the classes of equal `_orbit_labels` over the group's
    generators, each state labelled by its orbit's least index, read off one
    stable sort of the labels taken in ``str`` order of the states
    (`CarnapLanguage._str_order`), so each orbit's members come out in
    ``str`` order.  The orbits are sorted by size, type and members.  Each
    stabilizer has order |G| / |orbit|, and that the orbit's size divides
    |G| is checked.  ``group`` is the language's `build_symmetry_group`; its
    element matrix is not read.
    """
    states = lang.states
    label = _orbit_labels(len(states), list(group.generators.values()))
    by_str = lang._str_order
    by_label = by_str[np.argsort(label[by_str], kind="stable")]
    cuts = np.flatnonzero(np.diff(label[by_label])) + 1
    orbits = []
    for cls in np.split(by_label, cuts):
        if group.order % len(cls):
            raise GroupoidError("orbit-stabilizer identity failed; generators inconsistent")
        members = tuple(map(states.__getitem__, cls.tolist()))
        labels = {state_type(lang, s) for s in members}
        if len(labels) != 1:
            raise LanguageError("structural type is not constant on an orbit")
        orbits.append((len(members), group.order // len(members), labels.pop(), members))
    orbits.sort(key=lambda o: (o[0], o[2] or "", o[3]))
    return CarnapOrbitReport(tuple(orbits))


# ---------------------------------------------------------------------------
# Simple propositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleProposition:
    subject: str
    attribute: str
    value: int                 # 1-based, matching the labels
    row: np.ndarray = field(compare=False, repr=False)   # true at the states it holds in

    @property
    def label(self):
        return f"{self.subject}{self.attribute}{self.value}"


def simple_propositions(lang):
    """The propositions "subject s takes value v of attribute A", each held
    as its row ``digits[:, s, a] == v`` of booleans over the states
    (`CarnapLanguage._digits`)."""
    digits, _ = lang._digits
    return [SimpleProposition(subj, name, v + 1, digits[:, si, ai] == v)
            for si, subj in enumerate(lang.subjects)
            for ai, (name, count) in enumerate(lang.attributes)
            for v in range(count)]


def self_duality_holds(lang, simples):
    """For binary attributes: the complement of each simple is the simple
    with the opposite value."""
    if any(c != 2 for _, c in lang.attributes):
        return None
    by_key = {(s.subject, s.attribute, s.value): s.row for s in simples}
    for s in simples:
        if not np.array_equal(~s.row, by_key[(s.subject, s.attribute, 3 - s.value)]):
            return False
    return True


def simples_form_single_orbit(lang, group, simples):
    """Does the symmetry group act transitively on the simple truth sets?

    Each distinct truth set is an index set, its simple's ``row`` of
    booleans over the state indices (`simple_propositions`).  A generator's
    index array ``g`` carries row ``r`` to the row that is true at ``g[i]``
    wherever ``r`` is true at ``i``.  The search walks these images from the
    first truth set and counts the sets it reaches.  Every generator is an
    involution, so where the walk starts does not change the answer."""
    ids = {}
    for p in simples:
        ids.setdefault(p.row.tobytes(), len(ids))
    rows = np.frombuffer(b"".join(ids), dtype=bool).reshape(len(ids), -1)
    images = np.empty_like(rows)
    steps = []
    for g in group.generators.values():
        images[:, g] = rows
        steps.append([ids.get(image.tobytes()) for image in images])
    reached = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for step in steps:
            nxt = step[cur]
            if nxt is not None and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return len(reached) == len(ids)


def simple_content_report(lang, simples):
    """The distinct contents of the ``simples`` (`simple_propositions`)
    under the uniform measure, counted: a simple excludes the states where
    its row is false, |E| less the row's count, reported as a float, or as
    the int 0 when it excludes none (the bytes of `seminfo.content`, a
    `math.fsum` of ones).  For the three-subject two-attribute case the
    figure reported in the literature (58), which direct counting does not
    reproduce, is given next to it."""
    computed = sorted({float(len(lang.states) - np.count_nonzero(s.row)) or 0
                       for s in simples})
    report = {"computed_contents": computed}
    if len(lang.subjects) == 3 and [c for _, c in lang.attributes] == [2, 2]:
        report["literature_value"] = 58
        report["agrees_with_literature"] = computed == [58]
    return report
