import dataclasses
import itertools
import json
import math
import random
from itertools import compress

import numpy as np
import pytest

from sheafnet import carnap, seminfo, verify
from sheafnet.carnap import (
    CarnapOrbitReport,
    build_language,
    build_symmetry_group,
    orbit_report,
    self_duality_holds,
    simple_content_report,
    simple_propositions,
    simples_form_single_orbit,
    state_type,
)
from sheafnet.cli import main
from sheafnet.errors import BoundExceeded, GroupoidError, LanguageError
from sheafnet.groupoids import DEFAULT_GROUP_BOUND
from sheafnet.seminfo import BooleanLanguage, cbh_precision, content


def l23():
    return build_language(3, [2, 2])


def truth_set(lang, simple):
    """The states a simple holds in, decoded from its row."""
    return frozenset(compress(lang.states, simple.row))


def generator_dicts(group):
    """The group's generators (index arrays over the states) as state
    permutation dicts, keys in state order."""
    states = group.language.states
    return {name: dict(zip(states, map(states.__getitem__, g.tolist())))
            for name, g in group.generators.items()}


def test_state_counts():
    assert len(build_language(1, [2]).states) == 2
    assert len(l23().states) == 64
    assert len(build_language(2, [3, 2]).states) == 36


def test_proposition_count_symbolic():
    assert l23().proposition_count_text == str(2 ** 64)


def _digits_value(text):
    """The integer of a decimal text, read in chunks below the int-to-str limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 1000, 14284, 14285, 200_000])
def test_proposition_count_text_is_the_exact_decimal_count(n):
    """Past 14,284 states 2**|E| has more digits than `str` converts by
    default; the text stays exact there, and equals `str` below."""
    lang = dataclasses.replace(l23(), states=(None,) * n)
    text = lang.proposition_count_text
    assert text.isdigit() and text[0] != "0"
    assert _digits_value(text) == 2 ** len(lang.states) == 2 ** n
    if n < 14000:
        assert text == str(2 ** n)


def test_state_bound():
    with pytest.raises(BoundExceeded):
        build_language(10, [4, 4], bound=10**5)
    assert len(build_language(2, [4, 4], bound=256).states) == 256
    with pytest.raises(BoundExceeded, match="state count exceeds bound 255"):
        build_language(2, [4, 4], bound=255)


def test_labels_deterministic():
    lang = build_language(2, [2])
    assert tuple(map(lang.state_label, lang.states[:2])) == ("A1|A1", "A1|A2")


# -- symmetry group -----------------------------------------------------------

def test_group_order_one_binary_attribute():
    lang = build_language(1, [2])
    group = build_symmetry_group(lang)
    assert group.order == 2


def test_group_order_l23_is_48():
    group = build_symmetry_group(l23())
    assert group.order == 48


def test_attribute_exchange_only_for_equal_arity():
    gens = build_symmetry_group(build_language(1, [2, 3])).generators
    assert not any(name.startswith("exch") for name in gens)
    gens2 = build_symmetry_group(build_language(1, [2, 2])).generators
    assert any(name.startswith("exch") for name in gens2)


def test_kappa_has_order_four():
    """Value flip composed with attribute exchange is a 4-cycle on the value
    square (A1G1 -> G1A2 -> ... pattern)."""
    lang = build_language(1, [2, 2])
    gens = generator_dicts(build_symmetry_group(lang))
    flip_a = gens["flip_A12"]
    exch = gens["exch_AB"]
    kappa = {s: exch[flip_a[s]] for s in lang.states}
    power = dict(kappa)
    order = 1
    while any(power[s] != s for s in lang.states):
        power = {s: kappa[power[s]] for s in lang.states}
        order += 1
    assert order == 4


# -- orbits -------------------------------------------------------------------

def test_l23_orbit_structure():
    lang = l23()
    report = orbit_report(lang, build_symmetry_group(lang))
    assert report.sizes() == (4, 12, 24, 24)
    by_type = {label: (size, stab) for size, stab, label, _ in report.orbits}
    assert by_type["I"] == (4, 12)
    assert by_type["II"] == (24, 2)
    assert by_type["III"] == (12, 4)
    assert by_type["IV"] == (24, 2)
    assert sum(report.sizes()) == 64


def test_single_binary_attribute_single_orbit():
    lang = build_language(1, [2])
    report = orbit_report(lang, build_symmetry_group(lang))
    assert report.sizes() == (2,)


def test_one_state_language_has_the_trivial_group():
    """One subject, one attribute of one value: no generator at all."""
    lang = build_language(1, [1])
    group = build_symmetry_group(lang)
    assert group.generators == {} and group.order == 1
    assert group.perms.dtype == np.min_scalar_type(len(lang.states) - 1)
    assert group.elements == {"e": {lang.states[0]: lang.states[0]}}
    report = orbit_report(lang, group)
    assert report.sizes() == (1,) and tuple(o[1] for o in report.orbits) == (1,)
    assert simples_form_single_orbit(lang, group, simple_propositions(lang))


def test_state_type_predicates():
    lang = l23()
    same = ((0, 0), (0, 0), (0, 0))
    assert state_type(lang, same) == "I"
    one_aspect = ((0, 0), (0, 0), (1, 0))
    assert state_type(lang, one_aspect) == "II"
    two_aspects = ((0, 0), (0, 0), (1, 1))
    assert state_type(lang, two_aspects) == "III"
    distinct = ((0, 0), (0, 1), (1, 0))
    assert state_type(lang, distinct) == "IV"


# -- simples -----------------------------------------------------------------

def test_twelve_simples_self_dual_single_orbit():
    lang = l23()
    simples = simple_propositions(lang)
    assert len(simples) == 12
    assert all(np.count_nonzero(s.row) == 32 for s in simples)
    assert self_duality_holds(lang, simples) is True
    assert simples_form_single_orbit(lang, build_symmetry_group(lang), simples)


def test_self_duality_skipped_for_non_binary():
    lang = build_language(1, [3])
    assert self_duality_holds(lang, simple_propositions(lang)) is None


def test_simple_content_report_documents_discrepancy():
    lang = l23()
    report = simple_content_report(lang, simple_propositions(lang))
    assert report["computed_contents"] == [32.0]
    assert report["literature_value"] == 58
    assert report["agrees_with_literature"] is False


# -- invariance ---------------------------------------------------------------

def test_uniform_measure_invariant_under_group():
    lang = l23()
    group = build_symmetry_group(lang)
    blang = BooleanLanguage(lang.states)
    rng = random.Random(29)
    states = list(lang.states)
    for _ in range(20):
        t = frozenset(rng.sample(states, rng.randint(1, 20)))
        c = content(blang, t)
        for perm in generator_dicts(group).values():
            assert content(blang, frozenset(perm[x] for x in t)) == c


def test_psi_cbh_constant_on_orbits_of_theories():
    lang = l23()
    group = build_symmetry_group(lang)
    blang = BooleanLanguage(lang.states)
    psi = cbh_precision(blang)
    rng = random.Random(31)
    states = list(lang.states)
    for _ in range(10):
        t = frozenset(rng.sample(states, rng.randint(1, 30)))
        base = psi(t)
        for perm in generator_dicts(group).values():
            assert math.isclose(psi(frozenset(perm[x] for x in t)), base,
                                rel_tol=0, abs_tol=1e-12)


# -- index arithmetic against the per-state construction -----------------------

def reference_generators(lang):
    """The generators as first written: every image state built per state
    from (subject perm, attribute perm, value perms)."""
    n, k = len(lang.subjects), len(lang.attributes)

    def apply(subject_perm, attr_perm, value_perms, state):
        return tuple(tuple(value_perms[a][state[subject_perm[s]][attr_perm[a]]]
                           for a in range(k))
                     for s in range(n))

    def perm_of(subject_perm, attr_perm, value_perms):
        return {s: apply(subject_perm, attr_perm, value_perms, s) for s in lang.states}

    def swapped(i, size):
        perm = list(range(size))
        perm[i], perm[i + 1] = i + 1, i
        return perm

    ident_vals = [list(range(c)) for _, c in lang.attributes]
    gens = {}
    for i in range(n - 1):
        gens[f"swap_{lang.subjects[i]}{lang.subjects[i + 1]}"] = \
            perm_of(swapped(i, n), range(k), ident_vals)
    for a, (name, count) in enumerate(lang.attributes):
        for v in range(count - 1):
            vals = list(ident_vals)
            vals[a] = swapped(v, count)
            gens[f"flip_{name}{v + 1}{v + 2}"] = perm_of(range(n), range(k), vals)
    for a in range(k - 1):
        if lang.attributes[a][1] == lang.attributes[a + 1][1]:
            gens[f"exch_{lang.attributes[a][0]}{lang.attributes[a + 1][0]}"] = \
                perm_of(range(n), swapped(a, k), ident_vals)
    return gens


def reference_elements(gens):
    """Breadth-first closure over dicts: each frontier element times every
    generator in turn, new elements named e, g1, g2, ... as found."""
    domain = sorted(next(iter(gens.values())), key=str)
    ident = {x: x for x in domain}
    found = {tuple(domain): ("e", ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens.values():
                r = {x: q[p[x]] for x in domain}
                key = tuple(r.values())
                if key not in found:
                    found[key] = (f"g{len(found)}", r)
                    nxt.append(r)
        frontier = nxt
    return dict(found.values())


def reference_orbit_report(lang, generators, elements):
    """The orbit report as first written: orbits walked state by state over
    the generator dicts, each stabilizer that of the orbit's ``str``-least
    member, counted over the element dicts."""
    order = len(elements)
    seen, orbits = set(), []
    for x in lang.states:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in generators.values():
                z = g[y]
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        rep = min(orbit, key=str)
        stab = sum(1 for p in elements.values() if p[rep] == rep)
        if len(orbit) * stab != order:
            raise GroupoidError("orbit-stabilizer identity failed; generators inconsistent")
        orbits.append((tuple(sorted(orbit, key=str)), stab))
    orbits.sort(key=lambda o: (len(o[0]), o[0]))
    typed = []
    for members, stab in orbits:
        labels = {state_type(lang, s) for s in members}
        if len(labels) != 1:
            raise LanguageError("structural type is not constant on an orbit")
        typed.append((len(members), stab, labels.pop(), members))
    typed.sort(key=lambda o: (o[0], o[2] or ""))
    return CarnapOrbitReport(tuple(typed))


def reference_single_orbit(lang, generators, simples):
    """The frozenset search as first written: images of whole truth sets."""
    sets = {truth_set(lang, s) for s in simples}
    start = next(iter(sets))
    reached, frontier = {start}, [start]
    while frontier:
        cur = frontier.pop()
        for perm in generators.values():
            img = frozenset(perm[x] for x in cur)
            if img in sets and img not in reached:
                reached.add(img)
                frontier.append(img)
    return reached == sets


ORACLE_LANGUAGES = [
    (3, (2, 2)), (2, (2, 2, 2)), (3, (3, 2)), (4, (2, 2)), (3, (2, 2, 2)),   # benchmark
    (1, (2, 2)),        # one subject
    (2, (3,)),          # one attribute
    (2, (1, 2)),        # an attribute with one value
    (3, (2, 3)),        # unequal arities, the other way round
    (2, (3, 3)),        # an exchange of ternary attributes
    (27, (1,)),         # subjects named s0, s1, ...
]


@pytest.mark.parametrize("subjects,counts", ORACLE_LANGUAGES,
                         ids=[f"{s}x{','.join(map(str, c))}" for s, c in ORACLE_LANGUAGES])
def test_symmetry_path_matches_per_state_oracles(subjects, counts):
    lang = build_language(subjects, counts)
    want_gens = reference_generators(lang)
    group = build_symmetry_group(lang)
    gens = generator_dicts(group)
    assert list(gens) == list(want_gens)
    for name, perm in gens.items():
        assert list(perm.items()) == list(want_gens[name].items())
    assert all(g.dtype == np.min_scalar_type(len(lang.states) - 1)
               for g in group.generators.values())

    want_elements = reference_elements(want_gens)
    elements = group.elements
    assert list(elements) == list(want_elements)
    for name, perm in elements.items():
        assert list(perm.items()) == list(want_elements[name].items())
    assert group.order == len(want_elements)

    assert orbit_report(lang, group) == reference_orbit_report(lang, want_gens, want_elements)

    simples = simple_propositions(lang)
    families = [simples, [s for s in simples if s.subject == lang.subjects[0]],
                [s for s in simples if s.value == 1]]
    for family in families:
        assert simples_form_single_orbit(lang, group, family) == \
            reference_single_orbit(lang, want_gens, family)


@pytest.mark.parametrize("subjects,counts", ORACLE_LANGUAGES,
                         ids=[f"{s}x{','.join(map(str, c))}" for s, c in ORACLE_LANGUAGES])
def test_simple_truth_sets_are_their_digit_rows(subjects, counts):
    """A simple's row is the digit row of its (subject, attribute) equal to
    its value less one, on the one digit array of the language, which holds
    every state's value digits; decoded, it is the set of states that take
    its value there.  Simples compare on (subject, attribute, value)."""
    lang = build_language(subjects, counts)
    digits, _ = lang._digits
    assert lang._digits[0] is digits and not digits.flags.writeable
    assert np.array_equal(digits, np.array(lang.states))
    simples = simple_propositions(lang)
    assert len(simples) == subjects * sum(counts)
    for simple in simples:
        s = lang.subjects.index(simple.subject)
        a = [name for name, _ in lang.attributes].index(simple.attribute)
        assert np.array_equal(simple.row, digits[:, s, a] == simple.value - 1)
        assert truth_set(lang, simple) == {st for st in lang.states if st[s][a] == simple.value - 1}
        assert simple == dataclasses.replace(simple, row=~simple.row)


@pytest.mark.parametrize("subjects,counts", ORACLE_LANGUAGES,
                         ids=[f"{s}x{','.join(map(str, c))}" for s, c in ORACLE_LANGUAGES])
def test_single_orbit_matches_reference_on_random_families(subjects, counts):
    """Families of two to four simples, where a set reached by no generator
    from inside the family splits it, so that reading a simple's row at the
    wrong subject or attribute changes the answer."""
    lang = build_language(subjects, counts)
    group = build_symmetry_group(lang)
    gens = generator_dicts(group)
    simples = simple_propositions(lang)
    rng = random.Random(f"{subjects}x{counts}")
    for _ in range(20):
        family = rng.sample(simples, min(len(simples), rng.randint(2, 4)))
        assert simples_form_single_orbit(lang, group, family) == \
            reference_single_orbit(lang, gens, family)


@pytest.mark.parametrize("subjects,counts", ORACLE_LANGUAGES,
                         ids=[f"{s}x{','.join(map(str, c))}" for s, c in ORACLE_LANGUAGES])
def test_orbits_partition_the_states_with_orbit_stabilizer(subjects, counts):
    """The orbits, recomputed by closing each state under the group's
    elements, partition the states; |orbit| * |stabilizer| = |G| with the
    stabilizer of the str-least member, counted over the elements."""
    lang = build_language(subjects, counts)
    group = build_symmetry_group(lang)
    report = orbit_report(lang, group)
    elements = group.elements
    orbits = {frozenset(p[s] for p in elements.values()) for s in lang.states}
    assert sorted(map(len, orbits)) == list(report.sizes())
    assert sum(report.sizes()) == len(lang.states)
    for size, stab, _, members in report.orbits:
        assert frozenset(members) in orbits and members == tuple(sorted(members, key=str))
        rep = members[0]
        assert stab == sum(p[rep] == rep for p in elements.values())
        assert size * stab == group.order


@pytest.mark.parametrize("subjects,counts", ORACLE_LANGUAGES,
                         ids=[f"{s}x{','.join(map(str, c))}" for s, c in ORACLE_LANGUAGES])
def test_burnside_counts_the_orbits(subjects, counts):
    """Burnside's lemma, on the element matrix: the fixed points summed over
    the elements are |G| times the number of orbits."""
    lang = build_language(subjects, counts)
    group = build_symmetry_group(lang)
    fixed = np.count_nonzero(group.perms == np.arange(len(lang.states)))
    assert fixed == group.order * len(orbit_report(lang, group).orbits)


def test_library_paths_never_decode_the_elements(monkeypatch, capsys):
    """The group, its orbits, the simples' orbit and `sheafnet carnap` run on
    the generators alone: none reads `SymmetryGroup.perms`, so none closes
    the group.  Criterion 6 reads the closed matrix as its oracle, and no
    path reads `SymmetryGroup.elements`.  The simples, their contents and
    `sheafnet carnap` run on the simples' rows: none builds a
    `BooleanLanguage` or calls `seminfo.content`."""
    reads = []

    def refuse(name):
        def read(group):
            reads.append((name, group.order))
            raise AssertionError(f"SymmetryGroup.{name} was read")
        return property(read)

    def refuse_call(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    monkeypatch.setattr(carnap.SymmetryGroup, "elements", refuse("elements"))
    lang = l23()
    with monkeypatch.context() as m:
        m.setattr(carnap.SymmetryGroup, "perms", refuse("perms"))
        m.setattr(seminfo.BooleanLanguage, "__init__", refuse_call("BooleanLanguage"))
        m.setattr(seminfo, "content", refuse_call("content"))
        group = build_symmetry_group(lang)
        assert orbit_report(lang, group).sizes() == (4, 12, 24, 24)
        simples = simple_propositions(lang)
        assert simples_form_single_orbit(lang, group, simples)
        assert simple_content_report(lang, simples)["computed_contents"] == [32.0]
        assert main(["carnap", "--subjects", "3", "--attributes", "2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 48
        assert reads == []
        with pytest.raises(AssertionError, match="perms was read"):
            group.perms
    assert verify.criterion_06(0).passed
    assert reads == [("perms", 48)]
    with pytest.raises(AssertionError, match="elements was read"):
        group.elements
    assert reads == [("perms", 48), ("elements", 48)]


def test_the_element_matrix_is_closed_once_and_only_when_read(monkeypatch):
    """No library path closes through `carnap._close_group` on the five
    benchmark languages; the first read of ``perms`` closes once and keeps
    the matrix, and criterion 6, which reads it, closes once."""
    calls = []
    close = carnap._close_group

    def counted(n, generators, bound):
        calls.append(len(generators))
        return close(n, generators, bound)

    monkeypatch.setattr(carnap, "_close_group", counted)
    for subjects, counts in ORACLE_LANGUAGES[:5]:
        lang = build_language(subjects, counts)
        group = carnap.build_symmetry_group(lang)
        carnap.orbit_report(lang, group)
        carnap.simples_form_single_orbit(lang, group, carnap.simple_propositions(lang))
        assert calls == []
    perms = group.perms
    assert len(calls) == 1 and len(perms) == group.order
    assert group.perms is perms and len(calls) == 1
    calls.clear()
    assert verify.criterion_06(0).passed
    assert len(calls) == 1


def test_a_closure_off_the_order_raises_groupoid_error():
    """``perms`` closes to at most the order: generators that close to more
    elements, or to fewer, raise `GroupoidError`, not `BoundExceeded`."""
    group = build_symmetry_group(l23())
    for order in (47, 49):
        wrong = carnap.SymmetryGroup(group.language, group.generators, order)
        with pytest.raises(GroupoidError, match=f"group order {order}"):
            wrong.perms


SWEEP_LANGUAGES = [(n, counts) for n in (1, 2, 3) for k in (1, 2, 3)
                   for counts in itertools.product((1, 2, 3), repeat=k)
                   if math.prod(counts) ** n <= 3000]


def test_structure_matches_the_closure_on_every_small_language():
    """Every language of 1-3 subjects and 1-3 attributes of arity 1-3 with
    at most 3,000 states: the order by formula is the size of the
    `_close_group` closure of the generators, each state's orbit is the
    class of its column minimum in the closed matrix, and each stabilizer
    is the count of elements fixing the orbit's first member."""
    assert len(SWEEP_LANGUAGES) == 113
    for subjects, counts in SWEEP_LANGUAGES:
        lang = build_language(subjects, counts)
        group = build_symmetry_group(lang)
        closed = carnap._close_group(len(lang.states), list(group.generators.values()),
                                     DEFAULT_GROUP_BOUND)
        assert group.order == len(closed), (subjects, counts)
        index = {s: i for i, s in enumerate(lang.states)}
        label = np.full(len(lang.states), -1)
        for _, stab, _, members in orbit_report(lang, group).orbits:
            at = [index[s] for s in members]
            assert (label[at] == -1).all()
            label[at] = min(at)
            assert stab == np.count_nonzero(closed[:, at[0]] == at[0]), (subjects, counts)
        assert np.array_equal(label, closed.min(axis=0)), (subjects, counts)


def test_counted_contents_match_seminfo_content_on_every_small_language():
    """On the 113 sweep languages the counted contents are those of
    `seminfo.content` over each simple's decoded truth set, in value and in
    type: the int 0 where a simple excludes nothing, floats elsewhere."""
    for subjects, counts in SWEEP_LANGUAGES:
        lang = build_language(subjects, counts)
        simples = simple_propositions(lang)
        blang = BooleanLanguage(lang.states)
        want = sorted({content(blang, truth_set(lang, s)) for s in simples})
        got = simple_content_report(lang, simples)["computed_contents"]
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want], (subjects, counts)


def test_orbit_members_and_element_keys_are_in_str_order_past_arity_ten():
    """On two subjects over attributes of 11 and 2 values the states' ``str``
    order is not their index order (the digit 10 sorts before 2): every
    orbit lists its members in ``str`` order, which differs from index
    order in all four orbits, and the element dicts key the states in
    ``str`` order.  The elements are read on the subgroup of the subject
    swap, since the whole group has order 2 * 11! * 2."""
    lang = build_language(2, [11, 2])
    group = build_symmetry_group(lang, 10**9)
    index = {s: i for i, s in enumerate(lang.states)}
    orbits = orbit_report(lang, group).orbits
    assert len(orbits) == 4
    for _, _, _, members in orbits:
        assert list(members) == sorted(members, key=str)
        assert list(members) != sorted(members, key=index.__getitem__)
    by_str = sorted(lang.states, key=str)
    assert by_str != list(lang.states)
    swap = carnap.SymmetryGroup(lang, {"swap_ab": group.generators["swap_ab"]}, 2)
    elements = swap.elements
    assert list(elements) == ["e", "g1"]
    assert all(list(perm) == by_str for perm in elements.values())
    assert all(elements["g1"][(a, b)] == (b, a) for a, b in lang.states)
    assert list(lang._str_order) == [index[s] for s in by_str]
    assert not lang._str_order.flags.writeable


def test_build_symmetry_group_bound():
    lang = l23()
    with pytest.raises(BoundExceeded, match="bound 47"):
        build_symmetry_group(lang, 47)
    assert build_symmetry_group(lang, 48).order == 48
