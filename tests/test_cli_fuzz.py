"""A seeded fuzz of the exit-code contract on small architecture, presheaf,
poset, stack and language documents, on `carnap` options, and on raw argv
tokens and SHEAFNET_BOUND values for every subcommand but `verify`: every
run exits 0, 1 or 2, an exit 2 says why on an ``error:`` line, and no
exception reaches the top level.

Each document starts from a well-formed shape over a few names, and any
part of it may be swapped for arbitrary JSON.  The runs are derandomized
and kept to a few seconds by their example counts.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheafnet.cli import main

NAMES = ("a", "b", "c", "d", "a'", "b*", "")

scalars = st.none() | st.booleans() | st.integers(-2, 3) | \
    st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(NAMES) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) |
    st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=2), kids, max_size=3),
    max_leaves=8)


def either(shape):
    """``shape``, or one time in eight any JSON value in its place."""
    return st.sampled_from(range(8)).flatmap(lambda k: json_values if k == 7 else shape)


names = st.sampled_from(NAMES[:5])
ROLES = ("input", "output", "ordinary", "tip")


@st.composite
def architectures(draw):
    ids = draw(st.lists(names, max_size=4, unique=True))
    nodes = [draw(either(st.just(v) | st.fixed_dictionaries(
        {"id": st.just(v)}, optional={"role": st.sampled_from(ROLES)}))) for v in ids]
    # pairs in list order make a DAG; `either` supplies the malformed edges
    pairs = [[s, d] for i, s in enumerate(ids) for d in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6, unique_by=tuple)) if pairs else []
    edges = [draw(either(st.just(e))) for e in edges]
    return draw(either(st.just({"nodes": draw(either(st.just(nodes))),
                                "edges": draw(either(st.just(edges)))})))


@st.composite
def groupoids(draw):
    """A groupoid document, and the objects it names."""
    objects = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    gens = draw(st.lists(st.fixed_dictionaries(
        {"src": st.sampled_from(objects), "dst": st.sampled_from(objects)}), max_size=2))
    doc = {"objects": draw(either(st.just(objects)))}
    if gens:
        doc["generators"] = draw(either(st.just([draw(either(st.just(g))) for g in gens])))
    return draw(either(st.just(doc))), objects


def object_map(draw, source, target):
    return draw(either(st.fixed_dictionaries({o: st.sampled_from(target) for o in source})))


ELEMENTS = ("0", "1", "2")


@st.composite
def fibrant_stacks(draw):
    leq = draw(st.lists(st.sampled_from((("0", "1"), ("1", "2"), ("0", "2"))),
                        max_size=3, unique=True))
    fibers = {x: draw(groupoids()) for x in ELEMENTS}
    # glue on the pairs named in 'leq'; the covering pairs are among them
    glue = {f"{x}<={y}": object_map(draw, fibers[y][1], fibers[x][1]) for x, y in leq}
    return draw(either(st.just({
        "poset": draw(either(st.just({"elements": list(ELEMENTS),
                                      "leq": draw(either(st.just([list(p) for p in leq])))}))),
        "fibers": draw(either(st.just({x: doc for x, (doc, _) in fibers.items()}))),
        "glue": draw(either(st.just(glue))),
    })))


@st.composite
def adjunctions(draw):
    (source, objects), (target, images) = draw(groupoids()), draw(groupoids())
    return draw(either(st.just({"source": source, "target": target,
                                "object_map": object_map(draw, objects, images)})))


@st.composite
def presheaves(draw):
    """A presheaf document over a few string or number elements, with maps
    on the pairs its 'leq' names, and a predicate on some of its elements."""
    elements = draw(st.lists(names | st.integers(0, 3), min_size=1, max_size=3, unique_by=str))
    pairs = [[x, y] for i, x in enumerate(elements) for y in elements[i + 1:]]
    leq = draw(st.lists(st.sampled_from(pairs), max_size=3, unique_by=tuple)) if pairs else []
    carriers = {str(x): draw(st.lists(names | st.integers(0, 3), max_size=3, unique_by=str))
                for x in elements}

    def states_of(x):
        # an empty carrier offers foreign states, which are input errors
        return st.sampled_from(carriers[str(x)] or NAMES)

    maps = {f"{x}<={y}": draw(either(st.fixed_dictionaries(
        {str(s): states_of(x) for s in carriers[str(y)]}))) for x, y in leq}
    predicate = {str(x): draw(st.lists(states_of(x), max_size=2, unique=True))
                 for x in draw(st.lists(st.sampled_from(elements), max_size=2))}
    doc = {"poset": draw(either(st.just({"elements": draw(either(st.just(elements))),
                                         "leq": draw(either(st.just(leq)))}))),
           "carriers": draw(either(st.just(carriers))),
           "maps": draw(either(st.just(maps)))}
    return draw(either(st.just(doc))), draw(either(st.just(predicate)))


@st.composite
def posets(draw):
    """A poset document over a few string or number elements; its 'leq'
    pairs may be reflexive or close a cycle."""
    elements = draw(st.lists(names | st.integers(0, 3), max_size=4, unique_by=str))
    pairs = [[x, y] for x in elements for y in elements]
    leq = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return draw(either(st.just({"elements": draw(either(st.just(elements))),
                                "leq": draw(either(st.just([draw(either(st.just(p)))
                                                            for p in leq])))})))


def state_list(draw, states):
    """Comma-separated names of some of ``states``, or of other names."""
    return ",".join(draw(st.lists(st.sampled_from(states) | names, max_size=3)))


@st.composite
def languages(draw):
    """A language document, and `info` options naming some of its states."""
    states = [str(s) for s in draw(st.lists(names | st.integers(0, 3), min_size=1, max_size=3,
                                            unique_by=str))]
    doc = {"states": draw(either(st.just(states)))}
    if draw(st.booleans()):
        # tiny and huge weights, whose ratios underflow
        weights = st.integers(-1, 3) | st.floats(allow_nan=True, allow_infinity=True) | \
            st.sampled_from([1e-7, 5e-324, 1e300])
        doc["measure"] = draw(either(st.fixed_dictionaries({s: weights for s in states})))
    # "--flag=value", so that a value starting with "-" is not read as a flag
    argv = [f"{flag}={state_list(draw, states)}" for flag in draw(
        st.lists(st.sampled_from(("--theory", "--q", "--q2", "--p")), unique=True))]
    if draw(st.booleans()):
        values = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-1, 3)
        argv.append("--delta=" + draw(st.lists(values, min_size=1, max_size=3).map(
            lambda xs: ",".join(map(str, xs))) | st.sampled_from(NAMES)))
    return draw(either(st.just(doc))), argv


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def check_contract(path, argv, doc):
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code in (0, 1, 2), (argv, doc)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, doc)


@pytest.mark.parametrize("argv", [["site", "--in"], ["heyting", "--bound", "10", "--arch"],
                                  ["dyn", "gradcheck", "--arch"]],
                         ids=["site", "heyting", "gradcheck"])
@FUZZ
@given(doc=architectures())
def test_architecture_documents_keep_the_exit_code_contract(document, argv, doc):
    check_contract(document, argv, doc)


@pytest.mark.parametrize("argv, docs", [(["stack", "check-fibrant", "--in"], fibrant_stacks()),
                                        (["stack", "adjunction", "--in"], adjunctions())],
                         ids=["check-fibrant", "adjunction"])
@FUZZ
@given(data=st.data())
def test_stack_documents_keep_the_exit_code_contract(document, argv, docs, data):
    check_contract(document, argv, data.draw(docs))


@pytest.mark.parametrize("command", ["sections", "cats-manifold"])
@FUZZ
@given(data=st.data())
def test_presheaf_documents_keep_the_exit_code_contract(document, command, data):
    doc, predicate = data.draw(presheaves())
    argv = [command, "--bound", str(data.draw(st.integers(1, 8)))]
    if command == "cats-manifold":
        path = document.with_name("predicate.json")
        path.write_text(json.dumps(predicate))
        argv += ["--predicate", str(path)]
    check_contract(document, argv + ["--in"], doc)


@settings(FUZZ, max_examples=60)
@given(doc=posets(), bound=st.integers(0, 6))
def test_poset_documents_keep_the_exit_code_contract(document, doc, bound):
    check_contract(document, ["heyting", "--bound", str(bound), "--in"], doc)


@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_language_documents_keep_the_exit_code_contract(document, data):
    doc, argv = data.draw(languages())
    check_contract(document, ["info"] + argv + ["--in"], doc)


# Languages stay small: at most (3 * 3)^3 states, and the group bound is
# always given, so no run lists a large group.
ATTRIBUTES = st.lists(st.integers(-1, 3), max_size=2).map(lambda cs: ",".join(map(str, cs))) | \
    st.sampled_from(["", ",", "x", "2,,2", " 2", "2.5", "1e1"])


@settings(FUZZ, max_examples=60)
@given(subjects=st.integers(-1, 3), attributes=ATTRIBUTES, bound=st.integers(-1, 100))
def test_carnap_options_keep_the_exit_code_contract(subjects, attributes, bound):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["carnap", f"--subjects={subjects}", f"--attributes={attributes}",
                     f"--bound={bound}"])
    assert code in (0, 2), (subjects, attributes, bound)
    if code == 2:
        assert err.getvalue().startswith("error: "), (subjects, attributes, bound)


# argv tokens per subcommand.  A run starts from a well-formed command line,
# one token in four of which is swapped for a drawn one, and appends up to
# three drawn (token, value) pairs.  Tokens are the subcommand's flags and
# positional choices, the shared flags but --out, and values: junk, small
# and negative numbers, and the paths of the documents below and of files
# no command can read (`UNREADABLE`).  --out comes only as a drawn pair with
# the unreadable directory, so no run writes a file.  Each run also sets
# SHEAFNET_BOUND to a drawn value, or leaves it unset.  Every number drawn
# is at most 3, which caps the work of --m, --n, --steps, --grid, --subjects
# and --bound.  `verify` is left out: each run is the whole acceptance suite.
SUBCOMMANDS = {
    "site": (["--in", "arch.json"], []),
    "sections": (["--in", "presheaf.json"], ["--limit"]),
    "cats-manifold": (["--in", "presheaf.json", "--predicate", "predicate.json"], ["--limit"]),
    "heyting": (["--in", "poset.json"], ["--arch"]),
    "stack": (["adjunction", "--in", "functor.json"], ["check-fibrant"]),
    "info": (["--in", "lang.json"],
             ["--theory", "--q", "--q2", "--p", "--delta", "--tolerance"]),
    "carnap": (["--subjects", "2", "--attributes", "2"], []),
    "dyn": (["cell"], ["gradcheck", "cusp", "--cell", "lstm", "cubic", "--m", "--n",
                       "--steps", "--arch", "--grid"]),
}
JUNK = ["", "x", "-", "--", "-h", "nan", "inf", "-inf", "1e400", "0.5", "-0.5", "2,2", "1,x",
        "a,b", "00,01", "missing.json"]
ARGV_DOCUMENTS = {
    "arch.json": {"nodes": ["a", "b", "c"], "edges": [["a", "c"], ["b", "c"]]},
    "presheaf.json": {"poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
                      "carriers": {"0": ["a", "b"], "1": ["u", "v"]},
                      "maps": {"0<=1": {"u": "a", "v": "b"}}},
    "predicate.json": {"0": ["a"]},
    "poset.json": {"elements": ["a", "b"], "leq": [["a", "b"]]},
    "functor.json": {"source": {"objects": ["x"]}, "target": {"objects": ["u", "v"]},
                     "object_map": {"x": "u"}},
    "lang.json": {"states": ["00", "01", "10", "11"]},
}
# a directory, bytes that are not UTF-8, and JSON nested past the parser's
# recursion limit
UNREADABLE = {"folder.json": None, "not-utf-8.json": b"\xff\xfe{", "deep.json": b"[" * 200_000}


def either_token(kept, drawn):
    """``kept``, or one time in four a ``drawn`` token in its place."""
    return st.sampled_from(range(4)).flatmap(lambda k: drawn if k == 3 else kept)


@pytest.fixture(scope="module")
def argv_documents(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    for name, doc in ARGV_DOCUMENTS.items():
        (folder / name).write_text(json.dumps(doc))
    for name, data in UNREADABLE.items():
        if data is None:
            (folder / name).mkdir()
        else:
            (folder / name).write_bytes(data)
    return {name: str(folder / name) for name in [*ARGV_DOCUMENTS, *UNREADABLE]}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(FUZZ, max_examples=20)
@given(data=st.data())
def test_argv_tokens_keep_the_exit_code_contract(argv_documents, command, data):
    base, flags = SUBCOMMANDS[command]
    base = [argv_documents.get(t, t) for t in base]
    values = st.sampled_from(JUNK) | st.integers(-3, 3).map(str) | \
        st.sampled_from(sorted(argv_documents.values()))
    tokens = st.sampled_from(base + flags + ["--seed", "--bound"]) | values
    argv = [command] + [data.draw(either_token(st.just(t), tokens)) for t in base]
    out = st.just(("--out", argv_documents["folder.json"]))
    for flag, value in data.draw(st.lists(st.tuples(tokens, values) | out, max_size=3)):
        argv += [flag, value]
    bound = data.draw(st.none() | values)       # SHEAFNET_BOUND, or unset
    err = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        os.environ.pop("SHEAFNET_BOUND", None)
        if bound is not None:
            os.environ["SHEAFNET_BOUND"] = bound
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: a usage error, or -h
            code = exc.code
    assert code in (0, 1, 2), (argv, bound)
    if code == 2:
        assert "error: " in err.getvalue(), (argv, bound)
