import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from sheafnet.arch_site import SiteGraph
from sheafnet.cli import main
from sheafnet.data import fixture_text
from sheafnet.dynamics import network_from_architecture


@pytest.fixture
def datadir(tmp_path):
    for name in ("chain", "diamond", "lstm", "gru"):
        (tmp_path / f"{name}.json").write_text(fixture_text(name))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_site_chain(capsys, datadir):
    code, out, _ = run(capsys, "site", "--in", str(datadir / "chain.json"))
    assert code == 0
    report = json.loads(out)
    assert report["loop_rank"] == 0
    assert set(report["poset"]["elements"]) == {"x", "h", "y"}


def test_site_reports_are_byte_identical(capsys, datadir):
    _, out1, _ = run(capsys, "site", "--in", str(datadir / "lstm.json"))
    _, out2, _ = run(capsys, "site", "--in", str(datadir / "lstm.json"))
    assert out1 == out2
    assert json.loads(out1)["loop_rank"] == 3


def test_the_parser_is_built_once_and_dispatches_at_call_time(capsys, datadir, monkeypatch):
    """Every `main` call after the first reuses the parser; a bad argument
    still exits 2 on a later call, and the command runs through the module
    attribute ``cmd_<command>`` as it is at that call."""
    from sheafnet import cli

    cli.make_parser.cache_clear()
    chain = str(datadir / "chain.json")
    first = run(capsys, "site", "--in", chain)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["site", "--in", chain, "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(capsys, "site", "--in", chain) == first
    monkeypatch.setattr(cli, "cmd_site", lambda args: 7)
    assert main(["site", "--in", chain]) == 7
    assert cli.make_parser.cache_info().misses == 1
    assert cli.make_parser.cache_info().hits == 5


def test_heyting_on_a_chain_past_64_elements(capsys, tmp_path, monkeypatch):
    """Under a raised bound the 100-element chain's 101 opens are Python
    ints, and its implication table keeps the bytes it had when the opens
    were a tuple."""
    monkeypatch.setenv("SHEAFNET_BOUND", "100")
    path = tmp_path / "chain100.json"
    path.write_text(json.dumps({"elements": list(range(100)),
                                "leq": [[i, i + 1] for i in range(99)]}))
    code, out, _ = run(capsys, "heyting", "--in", str(path))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        (0, "588265a179c1c3f4d0796ebda6a4f7e617544f8ef02f63099e18d9b166b2ca92")


def test_site_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "site", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_site_bad_document_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes":["a"],"edges":[["a","a"]]}')
    code, _, err = run(capsys, "site", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("nodes, edges, message", [
    ([{"id": "a", "role": "ordinary"}, "b", "c"], [["a", "c"], ["b", "c"]],
     "vertex 'a' is 'input' by its edges, not 'ordinary' as stated"),
    (["a", {"id": "b", "role": "ordinary"}], [["a", "b"]],
     "vertex 'b' is 'output' by its edges, not 'ordinary' as stated"),
    ([{"id": "a", "role": "output"}], [],
     "vertex 'a' is 'input' by its edges, not 'output' as stated"),
    ([{"id": "a", "role": "tip"}, "b"], [["a", "b"]],
     "vertex 'a' is 'input' by its edges, not 'tip' as stated"),
], ids=["ordinary-source", "ordinary-sink", "output-isolated", "unknown-role"])
def test_site_stated_role_against_the_edges_exit_2(capsys, tmp_path, nodes, edges, message):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    code, out, err = run(capsys, "site", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


def test_site_stated_roles_that_match_the_edges(capsys, tmp_path):
    nodes = [{"id": "a", "role": "input"}, {"id": "b", "role": "ordinary"},
             {"id": "c", "role": "output"}, {"id": "d", "role": None}]
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [["a", "b"], ["b", "c"], ["d", "c"]]}))
    code, out, _ = run(capsys, "site", "--in", str(path))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"nodes": list("abcd"),
                                 "edges": [["a", "b"], ["b", "c"], ["d", "c"]]}))
    assert code == 0 and out == run(capsys, "site", "--in", str(plain))[1]


def test_sections_and_cats_manifold(capsys, tmp_path):
    presheaf = {
        "poset": {"elements": ["y", "h", "x"], "leq": [["y", "h"], ["h", "x"], ["y", "x"]]},
        "carriers": {"x": ["a", "b", "c"], "h": ["u", "v"], "y": ["0", "1"]},
        "maps": {"h<=x": {"a": "u", "b": "v", "c": "v"},
                 "y<=h": {"u": "0", "v": "1"}},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presheaf))
    code, out, _ = run(capsys, "sections", "--in", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 3
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"y": ["1"]}))
    code, out, _ = run(capsys, "cats-manifold", "--in", str(path),
                       "--predicate", str(pred))
    assert code == 0
    assert json.loads(out)["count"] == 2


CHAIN_PRESHEAF = {
    "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
    "carriers": {"0": ["a", "b"], "1": ["u", "v"]},
    "maps": {"0<=1": {"u": "a", "v": "b"}},
}


@pytest.mark.parametrize("command", ["sections", "cats-manifold"])
def test_bound_zero_exit_2(capsys, tmp_path, command):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(CHAIN_PRESHEAF))
    pred = tmp_path / "pred.json"
    pred.write_text("{}")
    argv = [command, "--in", str(path)]
    if command == "cats-manifold":
        argv += ["--predicate", str(pred)]
    code, out, err = run(capsys, *argv, "--bound", "0")
    assert code == 2
    assert out == "" and err.startswith("error:") and "more than 0 candidates" in err
    code, out, _ = run(capsys, *argv, "--bound", "2")
    assert code == 0 and json.loads(out)["count"] == 2


@pytest.mark.parametrize("command", ["sections", "cats-manifold"])
def test_negative_limit_exit_2(capsys, tmp_path, command):
    """A negative --limit is refused; --limit 0 lists no section but keeps
    the count."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(CHAIN_PRESHEAF))
    pred = tmp_path / "pred.json"
    pred.write_text("{}")
    argv = [command, "--in", str(path)]
    if command == "cats-manifold":
        argv += ["--predicate", str(pred)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--limit", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--limit: must be at least 0, got -1" in captured.err
    code, out, _ = run(capsys, *argv, "--limit", "0")
    assert code == 0 and json.loads(out) == {"count": 2, "sections": []}


@pytest.mark.parametrize("command", [["sections"], ["stack", "check-fibrant"]])
def test_maps_key_without_leq_exit_2(capsys, tmp_path, command):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(CHAIN_PRESHEAF, maps={"01": {"u": "a", "v": "b"}})))
    code, out, err = run(capsys, *command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "'01'" in err


def test_heyting_table_two_chain(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["0", "1"], "leq": [["0", "1"]]}))
    code, out, _ = run(capsys, "heyting", "--in", str(poset))
    assert code == 0
    table = json.loads(out)
    assert len(table) == 3 and all(len(row) == 3 for row in table.values())
    assert table["0,1"]["0"] == "0"


def test_heyting_table_labels_must_not_clash(capsys, tmp_path):
    """{a, b} and the singleton {"a,b"} would both be the row 'a,b'; the
    singleton {"{}"} would be the row of the empty open."""
    poset = tmp_path / "poset.json"
    for elements, label in ((["a", "b", "a,b"], "'a,b'"), (["{}"], "'{}'")):
        poset.write_text(json.dumps({"elements": elements, "leq": []}))
        code, out, err = run(capsys, "heyting", "--in", str(poset))
        assert code == 2
        assert out == "" and err.startswith("error:") and f"share the label {label}" in err
    poset.write_text(json.dumps({"elements": ["a", "b", "a;b"], "leq": []}))
    code, out, _ = run(capsys, "heyting", "--in", str(poset))
    assert code == 0 and len(json.loads(out)) == 8


def test_heyting_table_beyond_the_bound_exit_2(capsys, tmp_path, monkeypatch):
    """mgu2 has 20 elements, within the bound, but 6,592 opens: its table
    would hold 43M entries, more than 2^20."""
    (tmp_path / "mgu2.json").write_text(fixture_text("mgu2"))
    code, out, err = run(capsys, "heyting", "--arch", str(tmp_path / "mgu2.json"))
    assert code == 2
    assert out == "" and err.startswith("error:") and "6592 opens" in err
    # the two-chain's 3 x 3 table passes --bound 4 (16 entries), not --bound 3
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["0", "1"], "leq": [["0", "1"]]}))
    assert run(capsys, "heyting", "--in", str(poset), "--bound", "4")[0] == 0
    assert run(capsys, "heyting", "--in", str(poset), "--bound", "3")[0] == 2
    monkeypatch.setenv("SHEAFNET_BOUND", "3")
    assert run(capsys, "heyting", "--in", str(poset))[0] == 2


def test_sections_on_mixed_number_and_string_elements(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"poset": {"elements": [0, "a"], "leq": []},
                                "carriers": {"0": ["x", "y"], "a": ["z"]}}))
    code, out, _ = run(capsys, "sections", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"count": 2, "sections": [{"0": "x", "a": "z"},
                                                        {"0": "y", "a": "z"}]}


def test_numeric_elements_name_restrictions(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"poset": {"elements": [0, 1], "leq": [[0, 1]]},
                                "carriers": {"0": ["x"], "1": ["z"]},
                                "maps": {"0<=1": {"z": "x"}}}))
    code, out, _ = run(capsys, "sections", "--in", str(path))
    assert code == 0 and json.loads(out)["count"] == 1


@pytest.mark.parametrize("command", [["sections"], ["stack", "check-fibrant"], ["heyting"]])
def test_elements_with_the_same_name_exit_2(capsys, tmp_path, command):
    poset = {"elements": [1, "1"], "leq": []}
    doc = poset if command == ["heyting"] else {"poset": poset, "carriers": {"1": ["x"]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "distinct names" in err


@pytest.mark.parametrize("poset, message", [
    ({"elements": [["a"], ["b"]], "leq": [[["a"], ["b"]]]}, "strings or numbers"),
    ({"elements": ["a", "b"], "leq": [[["a"], "b"]]}, "'leq'"),
    ({"elements": ["a", "b"], "leq": [["a", "b", "a"]]}, "'leq'"),
], ids=["list-elements", "list-in-leq", "leq-triple"])
@pytest.mark.parametrize("command", [["sections"], ["heyting"]])
def test_unhashable_or_malformed_elements_exit_2(capsys, tmp_path, command, poset, message):
    doc = poset if command == ["heyting"] else {"poset": poset, "carriers": {}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("command, doc, key", [
    (["sections"], {"carriers": {}}, "'poset'"),
    (["sections"], {"poset": 5, "carriers": {}}, "poset must be a JSON object"),
    (["sections"], {"poset": {"leq": []}, "carriers": {}}, "'elements'"),
    (["sections"], {"poset": {"elements": ["a"], "leq": []}}, "'carriers'"),
    (["sections"], {"poset": {"elements": ["a", "b"], "leq": []}, "carriers": {"a": ["s"]}},
     "'b'"),
    (["cats-manifold"], {"carriers": {}}, "'poset'"),
    (["cats-manifold"], {"poset": {"elements": ["a", "b"], "leq": []},
                         "carriers": {"a": ["s"]}}, "'b'"),
    (["stack", "adjunction"], {"source": {"objects": ["x"]}, "target": {"objects": ["z"]}},
     "'object_map'"),
    (["stack", "adjunction"], {"target": {"objects": ["z"]}, "object_map": {"x": "z"}},
     "'source'"),
    (["stack", "adjunction"], {"source": {"objects": ["x"]}, "object_map": {"x": "z"}},
     "'target'"),
    (["info"], {"measure": [1.0]}, "'states'"),
])
def test_missing_key_exit_2(capsys, tmp_path, command, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [*command, "--in", str(path)]
    if command == ["cats-manifold"]:
        (tmp_path / "pred.json").write_text("{}")
        argv += ["--predicate", str(tmp_path / "pred.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and key in err


def test_stack_adjunction(capsys, tmp_path):
    doc = {
        "source": {"objects": ["x", "y"], "generators": []},
        "target": {"objects": ["z"], "generators": []},
        "object_map": {"x": "z", "y": "z"},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "stack", "adjunction", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["adjunction_ok"] and report["section_ok"]


def test_stack_adjunction_partial_object_map_exit_2(capsys, tmp_path):
    doc = {
        "source": {"objects": ["x", "y"], "generators": []},
        "target": {"objects": ["z"], "generators": []},
        "object_map": {"x": "z"},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stack", "adjunction", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "['y']" in err


def test_stack_adjunction_failures_do_not_depend_on_hash_seed(tmp_path):
    doc = {
        "source": {"objects": ["x"], "generators": []},
        "target": {"objects": ["u", "v", "w"], "generators": []},
        "object_map": {"x": "u"},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", "stack", "adjunction",
                               "--in", str(path)], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["failures"][0] == "('section', (('v',),))"


def test_stack_adjunction_unknown_generator_object_exit_2(capsys, tmp_path):
    doc = {
        "source": {"objects": ["a"], "generators": [{"src": "a", "dst": "zz"}]},
        "target": {"objects": ["z"], "generators": []},
        "object_map": {"a": "z"},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stack", "adjunction", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "'zz'" in err


def test_stack_check_fibrant_sets(capsys, tmp_path):
    doc = {
        "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "carriers": {"0": ["a", "b"], "1": ["u", "v"]},
        "maps": {"0<=1": {"u": "a", "v": "a"}},
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "stack", "check-fibrant", "--in", str(path))
    assert code == 1
    assert json.loads(out)["fibrant"] is False


def groupoid_stack_doc(poset, fibers, glue):
    return {"poset": poset,
            "fibers": {x: {"objects": objs, "generators": [{"src": a, "dst": b} for a, b in gens]}
                       for x, (objs, gens) in fibers.items()},
            "glue": glue}


@pytest.mark.parametrize("doc, want", [
    # a confluence whose pairing into the product is bijective on objects
    (groupoid_stack_doc({"elements": ["l", "r", "t"], "leq": [["l", "t"], ["r", "t"]]},
                        {"t": (["a", "b"], [("a", "b")]), "l": (["p"], []),
                         "r": (["u", "v"], [("v", "u")])},
                        {"l<=t": {"a": "p", "b": "p"}, "r<=t": {"a": "u", "b": "v"}}),
     {"fibrant": True, "verdicts": {
         "l": {"confluence": False, "ok": True}, "r": {"confluence": False, "ok": True},
         "t": {"confluence": True, "ok": True, "why": "multi-fibration onto the product"}}}),
    # the arrow p -> q below has no lift: a and b are not connected
    (groupoid_stack_doc({"elements": ["0", "1"], "leq": [["0", "1"]]},
                        {"1": (["a", "b"], []), "0": (["p", "q"], [("p", "q")])},
                        {"0<=1": {"a": "p", "b": "q"}}),
     {"fibrant": False, "verdicts": {
         "0": {"confluence": False, "ok": True},
         "1": {"confluence": False, "ok": False, "why": "lift missing"}}}),
], ids=["fibrant", "not-fibrant"])
def test_stack_check_fibrant_groupoids(capsys, tmp_path, doc, want):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "stack", "check-fibrant", "--in", str(path))
    assert code == (0 if want["fibrant"] else 1)
    assert json.loads(out) == want


GLUE_STACK = groupoid_stack_doc({"elements": ["0", "1"], "leq": [["0", "1"]]},
                                {"1": (["a", "b"], []), "0": (["p"], [])},
                                {"0<=1": {"a": "p", "b": "p"}})


@pytest.mark.parametrize("glue, message", [
    ({"01": {"a": "p", "b": "p"}}, "'01'"),
    ({"0<=1": {}}, "['a', 'b']"),
    ({"0<=1": {"a": "p"}}, "['b']"),
    ({"0<=2": {"a": "p", "b": "p"}}, "'0<=2'"),
], ids=["key-without-leq", "empty-object-map", "partial-object-map", "foreign-element"])
def test_stack_check_fibrant_bad_glue_exit_2(capsys, tmp_path, glue, message):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(dict(GLUE_STACK, glue=glue)))
    code, out, err = run(capsys, "stack", "check-fibrant", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err
    path.write_text(json.dumps(GLUE_STACK))
    assert run(capsys, "stack", "check-fibrant", "--in", str(path))[0] == 0


def test_numeric_elements_name_glue(capsys, tmp_path):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(dict(GLUE_STACK, poset={"elements": [0, 1], "leq": [[0, 1]]})))
    assert run(capsys, "stack", "check-fibrant", "--in", str(path))[0] == 0


def test_info_report(capsys, tmp_path):
    lang = {"states": ["00", "01", "10", "11"]}
    path = tmp_path / "lang.json"
    path.write_text(json.dumps(lang))
    code, out, _ = run(capsys, "info", "--in", str(path),
                       "--theory", "00,01", "--q", "01,11", "--q2", "10,11",
                       "--delta", "1,0.5")
    assert code == 0
    report = json.loads(out)
    assert report["content"] == 2.0
    assert report["checks"]["cocycle"]["ok"]
    assert report["checks"]["concavity"]["ok"]
    assert report["delta"]["dominated"]


def test_info_tolerance_must_be_a_finite_number_at_least_0(capsys, tmp_path):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["00", "01", "10", "11"]}))
    for tolerance in ("nan", "inf", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--in", str(path), "--tolerance", tolerance])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: argument --tolerance" in captured.err
    code, out, _ = run(capsys, "info", "--in", str(path), "--tolerance", "0")
    checks = json.loads(out)["checks"]
    assert checks["cocycle"]["ok"] == (checks["cocycle"]["max_residual"] <= 0)
    assert code == (0 if checks["cocycle"]["ok"] and checks["concavity"]["ok"] else 1)


@pytest.mark.parametrize("argv", [["site", "--in", "x.json"],
                                  ["carnap", "--subjects", "1", "--attributes", "2"],
                                  ["verify", "--all"]], ids=["site", "carnap", "verify"])
def test_tolerance_belongs_to_info_alone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tolerance", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


IGNORED_FLAGS = {
    "site": (["site", "--in", "x.json"], ["--bound", "--seed"]),
    "sections": (["sections", "--in", "x.json"], ["--seed"]),
    "cats-manifold": (["cats-manifold", "--in", "x.json", "--predicate", "y.json"], ["--seed"]),
    "heyting": (["heyting", "--in", "x.json"], ["--seed"]),
    "stack": (["stack", "check-fibrant", "--in", "x.json"], ["--bound", "--seed"]),
    "info": (["info", "--in", "x.json"], ["--bound"]),
    "carnap": (["carnap", "--subjects", "1", "--attributes", "2"], ["--seed"]),
    "dyn": (["dyn", "cusp"], ["--bound"]),
    "verify": (["verify", "--all"], ["--bound"]),
}


@pytest.mark.parametrize("command", sorted(IGNORED_FLAGS))
def test_flags_go_only_on_the_commands_that_read_them(capsys, command):
    """--bound is read by sections, cats-manifold, heyting and carnap, and
    --seed by info, dyn and verify; any other command refuses them, exit 2."""
    argv, flags = IGNORED_FLAGS[command]
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


# Each command that takes --bound, with one bound its run keeps within and
# one it exceeds, in the command's own unit: candidates for the two-state
# chain presheaf (2), element count and 2^bound table entries for the
# two-chain (3 x 3 opens), group elements for |G| = 48.
BOUNDED_RUNS = {
    "sections": (["sections", "--in", "presheaf.json"], 2, 1),
    "cats-manifold": (["cats-manifold", "--in", "presheaf.json",
                       "--predicate", "predicate.json"], 2, 1),
    "heyting": (["heyting", "--in", "poset.json"], 4, 3),
    "carnap": (["carnap", "--subjects", "3", "--attributes", "2,2"], 48, 47),
}


@pytest.fixture
def bounded_argv(tmp_path, monkeypatch):
    """The argv of a `BOUNDED_RUNS` command, its documents written out, and
    SHEAFNET_BOUND unset."""
    monkeypatch.delenv("SHEAFNET_BOUND", raising=False)
    documents = {"presheaf.json": CHAIN_PRESHEAF, "predicate.json": {},
                 "poset.json": {"elements": ["0", "1"], "leq": [["0", "1"]]}}
    for name, doc in documents.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return lambda argv: [str(tmp_path / t) if t in documents else t for t in argv]


@pytest.mark.parametrize("command", sorted(BOUNDED_RUNS))
def test_sheafnet_bound_is_the_default_of_bound(capsys, monkeypatch, bounded_argv, command):
    """SHEAFNET_BOUND=N gives what --bound N gives, within the bound and
    over it, and a given --bound wins over the variable."""
    argv, within, over = BOUNDED_RUNS[command]
    argv = bounded_argv(argv)
    for bound, code in ((within, 0), (over, 2)):
        monkeypatch.delenv("SHEAFNET_BOUND", raising=False)
        flagged = run(capsys, *argv, "--bound", str(bound))
        assert flagged[0] == code
        monkeypatch.setenv("SHEAFNET_BOUND", str(bound))
        assert run(capsys, *argv) == flagged
    assert run(capsys, *argv, "--bound", str(within))[0] == 0
    monkeypatch.setenv("SHEAFNET_BOUND", str(within))
    assert run(capsys, *argv, "--bound", str(over))[0] == 2


@pytest.mark.parametrize("command", sorted(BOUNDED_RUNS))
def test_a_non_integer_sheafnet_bound_exits_2(capsys, monkeypatch, bounded_argv, command):
    """A bad SHEAFNET_BOUND is an input error on one line; an empty one is
    no bound, as unset is."""
    argv = bounded_argv(BOUNDED_RUNS[command][0])
    unset = run(capsys, *argv)
    assert unset[0] == 0
    monkeypatch.setenv("SHEAFNET_BOUND", "")
    assert run(capsys, *argv) == unset
    monkeypatch.setenv("SHEAFNET_BOUND", "abc")
    assert run(capsys, *argv) == \
        (2, "", "error: SHEAFNET_BOUND must be an integer, got 'abc'\n")


def test_commands_without_bound_ignore_sheafnet_bound(capsys, datadir, monkeypatch):
    monkeypatch.delenv("SHEAFNET_BOUND", raising=False)
    argv = ("site", "--in", str(datadir / "chain.json"))
    unset = run(capsys, *argv)
    monkeypatch.setenv("SHEAFNET_BOUND", "abc")
    assert run(capsys, *argv) == unset and unset[0] == 0


@pytest.mark.parametrize("flag", ["--theory", "--q", "--q2", "--p"])
def test_info_state_outside_language_exit_2(capsys, tmp_path, flag):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["00", "01", "10", "11"]}))
    code, out, err = run(capsys, "info", "--in", str(path), flag, "00,zz")
    assert code == 2
    assert out == "" and err.startswith("error:") and "'zz'" in err


def test_info_non_numeric_delta_exit_2(capsys, tmp_path):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["00", "01"]}))
    code, out, err = run(capsys, "info", "--in", str(path), "--delta", "1,x")
    assert code == 2
    assert out == "" and err.startswith("error:") and "'1,x'" in err


@pytest.mark.parametrize("delta", ["1,nan", "inf", "1e400"])
def test_info_non_finite_delta_exit_2(capsys, tmp_path, delta):
    """A NaN or infinite weight would print as NaN or Infinity, which is not
    JSON, under "dominated": true."""
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["00", "01"]}))
    code, out, err = run(capsys, "info", "--in", str(path), "--delta", delta)
    assert code == 2
    assert out == "" and err.startswith("error: delta values must be finite")


@pytest.mark.parametrize("measure, message", [
    ({"00": 1, "01": "x"}, "must be numbers"),
    ([1.0, 2.0], "JSON object"),
    ({"00": 1, "01": float("nan")}, "must be finite"),
    ({"00": 1, "01": float("inf")}, "must be finite"),
    ({"00": 1e308, "01": 1e308}, "must be finite"),
    ({"00": 5e-324, "01": 2}, "rounds to 0"),
], ids=["non-numeric-value", "list", "nan", "infinity", "overflowing-total",
        "underflowing-share"])
def test_info_malformed_measure_exit_2(capsys, tmp_path, measure, message):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["00", "01"], "measure": measure}))
    code, out, err = run(capsys, "info", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


def test_info_independence_of_disjoint_light_propositions(capsys, tmp_path):
    """m(Q) m(R) / m(E) is within the tolerance of m(Q and R) = 0: independent,
    with no additivity residual, since inf(Q and R) is infinite."""
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["a", "b", "c"],
                                "measure": {"a": 1e-7, "b": 1e-7, "c": 1}}))
    code, out, err = run(capsys, "info", "--in", str(path), "--q", "a", "--q2", "b")
    assert code == 0 and err == ""
    assert json.loads(out)["checks"]["independence"] == {"independent": True,
                                                         "additivity_residual": None}


def test_info_p_naming_every_state_exit_2(capsys, tmp_path):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["a", "b"]}))
    code, out, err = run(capsys, "info", "--in", str(path), "--p", "a,b")
    assert code == 2
    assert out == "" and err.startswith("error:") and "not P has measure zero" in err


def test_info_p_without_theory_grades_not_p(capsys, tmp_path):
    """With --p and no --theory the theory is not P, the largest theory
    psi_P grades, where psi_P is 0; a theory meeting P still exits 2."""
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["a", "b", "c"]}))
    code, out, err = run(capsys, "info", "--in", str(path), "--p", "a")
    assert code == 0 and err == ""
    assert json.loads(out)["psi"] == 0.0
    assert run(capsys, "info", "--in", str(path), "--p", "a", "--theory", "b,c")[1] == out
    code, out, err = run(capsys, "info", "--in", str(path), "--p", "a", "--theory", "a,b")
    assert code == 2 and out == ""
    assert err == "error: theory does not exclude the localizing proposition\n"


def test_info_names_its_states_by_their_key_text(capsys, tmp_path):
    """As `sections` does: JSON true is the state "true", in --theory and in
    'measure' alike, and a number is named by its JSON text."""
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": [True, False, 1.5, 2],
                                "measure": {"true": 1, "false": 2, "1.5": 3, "2": 4}}))
    code, out, err = run(capsys, "info", "--in", str(path), "--theory", "true,2",
                         "--q", "false,1.5", "--seed", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["content"] == 5.0
    for theory in ("True", "1.5,True"):
        code, out, err = run(capsys, "info", "--in", str(path), "--theory", theory)
        assert code == 2 and out == ""
        assert err == "error: ['True'] are not elements of the poset\n"


@pytest.mark.parametrize("state, text", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                         (float("-inf"), "-Infinity")])
def test_info_non_finite_states_exit_2(capsys, tmp_path, state, text):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["a", state]}))
    code, out, err = run(capsys, "info", "--in", str(path))
    assert code == 2 and out == ""
    assert err == f"error: 'states' holds {text}, which is not a finite number\n"


@pytest.mark.parametrize("theory", [",", "", ",,"])
def test_info_theory_naming_no_state_exit_2(capsys, tmp_path, theory):
    """The empty theory has precision -inf, and its ambiguity and mutual
    information would print as Infinity, which is not JSON."""
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"states": ["a", "b", "c"]}))
    code, out, err = run(capsys, "info", "--in", str(path), "--theory", theory,
                         "--q", "a,b", "--q2", "a,c")
    assert code == 2 and out == ""
    assert err == "error: --theory names no state: the empty theory has precision -inf\n"


_TWO = {"elements": ["a", "b"], "leq": [["a", "b"]]}


@pytest.mark.parametrize("command, doc, message", [
    ("sections", {"poset": _TWO, "carriers": {"a": [["x"]], "b": ["y"]},
                  "maps": {"a<=b": {"y": ["x"]}}}, "carrier 'a'"),
    ("sections", {"poset": _TWO, "carriers": {"a": None, "b": ["y"]}}, "carrier 'a'"),
    ("sections", {"poset": _TWO, "carriers": {"a": ["x"], "b": ["y"]},
                  "maps": {"a<=b": {"y": {"k": "x"}}}}, "'maps'"),
    ("sections", {"poset": _TWO, "carriers": {"a": ["x"], "b": ["y"]}, "maps": "a"}, "'maps'"),
    ("sections", {"poset": _TWO, "carriers": {"a": ["x"], "b": ["y"]},
                  "maps": {"a<=b": "a"}}, "'maps'"),
    ("info", {"states": 1.5}, "'states'"),
], ids=["list-state", "null-carrier", "object-image", "string-maps", "string-map", "float-states"])
def test_malformed_document_values_exit_2(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [["site", "--in"], ["heyting", "--arch"],
                                  ["dyn", "gradcheck", "--arch"]],
                         ids=["site", "heyting", "gradcheck"])
@pytest.mark.parametrize("doc", [{"nodes": None, "edges": []}, {"nodes": ["a"], "edges": None}],
                         ids=["null-nodes", "null-edges"])
def test_architecture_nodes_and_edges_must_be_lists(capsys, tmp_path, argv, doc):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "must be lists" in err


def test_gradcheck_on_an_empty_architecture_exit_2(capsys, tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"nodes": [], "edges": []}))
    code, out, err = run(capsys, "dyn", "gradcheck", "--arch", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and "no vertices" in err


@pytest.mark.parametrize("argv", [["site", "--in"], ["heyting", "--arch"],
                                  ["dyn", "gradcheck", "--arch"]],
                         ids=["site", "heyting", "gradcheck"])
def test_cyclic_architecture_exit_2_naming_the_cycle(capsys, tmp_path, argv):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"nodes": ["x", "a", "b", "c"],
                                "edges": [["x", "a"], ["a", "b"], ["b", "c"], ["c", "a"]]}))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "error: oriented cycle is forbidden: 'a' -> 'b' -> 'c' -> 'a'\n"


@pytest.mark.parametrize("argv", [["site", "--in"], ["heyting", "--arch"],
                                  ["dyn", "gradcheck", "--arch"]],
                         ids=["site", "heyting", "gradcheck"])
def test_architecture_vertex_names_must_be_strings_or_numbers(capsys, tmp_path, argv):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"nodes": [None, [1], {"id": {"k": 2}}], "edges": [[None, [1]]]}))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "error: vertex name must be a string or a number: None\n"


_GROUPOID = {"objects": ["a"]}
_ADJUNCTION = {"source": _GROUPOID, "target": _GROUPOID, "object_map": {"a": "a"}}


@pytest.mark.parametrize("command, doc, message", [
    ("check-fibrant", dict(GLUE_STACK, glue=["0<=1"]), "'glue' must be a JSON object"),
    ("check-fibrant", dict(GLUE_STACK, glue={"0<=1": ["a", "b"]}),
     "glue object map '0<=1' must be a JSON object"),
    ("adjunction", dict(_ADJUNCTION, object_map=["a"]), "object_map must be a JSON object"),
    ("adjunction", dict(_ADJUNCTION, source={"objects": 3}), "'objects' must be a list"),
    ("adjunction", dict(_ADJUNCTION, source={"objects": ["a"], "generators": 3}),
     "'generators' must be a list"),
    ("adjunction", dict(_ADJUNCTION, source={"objects": ["a"], "generators": [{"src": "a"}]}),
     "generator has no 'dst'"),
    ("adjunction", dict(_ADJUNCTION, source={"objects": ["a"], "generators": [3]}),
     "generator must be a JSON object"),
], ids=["list-glue", "list-glue-map", "list-object-map", "number-objects", "number-generators",
        "generator-without-dst", "number-generator"])
def test_malformed_stack_exit_2(capsys, tmp_path, command, doc, message):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stack", command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


_NUMERIC = {"poset": _TWO, "carriers": {"a": [1], "b": [2]}, "maps": {"a<=b": {"2": 1}}}


@pytest.mark.parametrize("command", ["sections", "cats-manifold"])
def test_numeric_states_are_mapped_by_their_json_text(capsys, tmp_path, command):
    (tmp_path / "doc.json").write_text(json.dumps(_NUMERIC))
    (tmp_path / "pred.json").write_text(json.dumps({"a": [1]}))
    extra = ["--predicate", str(tmp_path / "pred.json")] if command == "cats-manifold" else []
    code, out, err = run(capsys, command, "--in", str(tmp_path / "doc.json"), *extra)
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": 1, "sections": [{"a": "1", "b": "2"}]}


def test_cats_manifold_predicate_names_number_elements_by_their_text(capsys, tmp_path):
    doc = dict(CHAIN_PRESHEAF, poset={"elements": [0, 1], "leq": [[0, 1]]})
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = ["cats-manifold", "--in", str(tmp_path / "doc.json"),
            "--predicate", str(tmp_path / "pred.json")]
    (tmp_path / "pred.json").write_text(json.dumps({"0": ["a"]}))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out) == {"count": 1, "sections": [{"0": "a", "1": "u"}]}
    (tmp_path / "pred.json").write_text(json.dumps({"2": ["a"]}))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and "non-output element '2'" in err


def test_every_kind_of_state_is_named_by_its_key_text(capsys, tmp_path):
    doc = dict(_NUMERIC, carriers={"a": [1], "b": [2, True, 2.5, "x"]},
               maps={"a<=b": {"2": 1, "true": 1, "2.5": 1, "x": 1}})
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "sections", "--in", str(tmp_path / "doc.json"))
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 4


def test_states_sharing_a_key_text_exit_2(capsys, tmp_path):
    doc = dict(_NUMERIC, carriers={"a": [1], "b": [2, "2"]})
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "sections", "--in", str(tmp_path / "doc.json"))
    assert code == 2
    assert out == "" and err.startswith("error:") and "carrier 'b'" in err and "'2'" in err


@pytest.mark.parametrize("state, text", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                         (float("-inf"), "-Infinity")])
def test_non_finite_states_exit_2(capsys, tmp_path, state, text):
    doc = {"poset": {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["a", "c"]]},
           "carriers": {"a": [state], "b": ["u"], "c": ["v"]},
           "maps": {"a<=b": {"u": state}, "a<=c": {"v": state}}}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "sections", "--in", str(tmp_path / "doc.json"))
    assert code == 2 and out == ""
    assert err == f"error: carrier 'a' holds {text}, which is not a finite number\n"


def test_string_state_sections_keep_their_bytes(capsys, tmp_path):
    presheaf = {
        "poset": {"elements": ["y", "h", "x"], "leq": [["y", "h"], ["h", "x"], ["y", "x"]]},
        "carriers": {"x": ["a", "b", "c"], "h": ["u", "v"], "y": ["0", "1"]},
        "maps": {"h<=x": {"a": "u", "b": "v", "c": "v"}, "y<=h": {"u": "0", "v": "1"}},
    }
    (tmp_path / "doc.json").write_text(json.dumps(presheaf))
    code, out, _ = run(capsys, "sections", "--in", str(tmp_path / "doc.json"))
    assert code == 0
    assert out == (
        '{\n  "count": 3,\n  "sections": [\n    {\n      "h": "u",\n      "x": "a",\n'
        '      "y": "0"\n    },\n    {\n      "h": "v",\n      "x": "b",\n      "y": "1"\n'
        '    },\n    {\n      "h": "v",\n      "x": "c",\n      "y": "1"\n    }\n  ]\n}\n')


@pytest.mark.parametrize("predicate", [{"a": 1.5}, {"a": [["x"]]}], ids=["number", "list-state"])
def test_cats_manifold_malformed_predicate_exit_2(capsys, tmp_path, predicate):
    (tmp_path / "doc.json").write_text(json.dumps(
        {"poset": {"elements": ["a"], "leq": []}, "carriers": {"a": ["x"]}}))
    (tmp_path / "pred.json").write_text(json.dumps(predicate))
    code, out, err = run(capsys, "cats-manifold", "--in", str(tmp_path / "doc.json"),
                         "--predicate", str(tmp_path / "pred.json"))
    assert code == 2
    assert out == "" and err.startswith("error:") and "predicate on 'a'" in err


def test_info_does_not_depend_on_hash_seed(tmp_path):
    """Measures of sets are summed independently of frozenset order."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": ["a", "b", "c", "d", "e", "f"], "measure": {
        "a": 0.1, "b": 0.2, "c": 0.3, "d": 0.7, "e": 1.3, "f": 0.11}}))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", "info", "--in", str(path),
                               "--theory", "a,b,c,d", "--q", "a,b,e", "--q2", "c,d,f"],
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["sections", "info"])
def test_top_level_list_document_exit_2(capsys, tmp_path, command):
    path = tmp_path / "list.json"
    path.write_text(json.dumps(["00", "01"]))
    code, out, err = run(capsys, command, "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_carnap_report(capsys):
    code, out, _ = run(capsys, "carnap", "--subjects", "3", "--attributes", "2,2")
    assert code == 0
    report = json.loads(out)
    assert report["states"] == 64
    assert report["group_order"] == 48
    assert sorted(o["size"] for o in report["orbits"]) == [4, 12, 24, 24]
    assert report["simples"]["count"] == 12
    assert report["proposition_count"] == str(2 ** 64)


def test_carnap_one_state_language_has_the_trivial_group(capsys):
    code, out, err = run(capsys, "carnap", "--subjects", "1", "--attributes", "1")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["states"] == 1 and report["group_order"] == 1
    assert [(o["size"], o["stabilizer"]) for o in report["orbits"]] == [(1, 1)]
    assert report["simples"]["single_orbit"] is True


# The report manifest: each command line with its exit code and the sha256
# of its stdout.  "{tmp}" is a directory holding the bundled fixtures and
# MANIFEST_DOCUMENTS.  The entries are grouped by the test that runs them; a
# change to a report's bytes changes its entry here.
REPORT_MANIFEST = {
    "site": {
        "chain": ("site --in {tmp}/chain.json", 0,
                  "e1397d0b18c7be348fd1d9ced823bd89aa081fa81895c8d999a11beb38242c1e"),
        "diamond": ("site --in {tmp}/diamond.json", 0,
                    "88f782d54a5961c114d7b84e0e4a0de9454df16f6f00b9306d0503986b5fc21e"),
        "lstm": ("site --in {tmp}/lstm.json", 0,
                 "718b5daa8eee96d41282e0a127c6df2c6fa9285354299757561f24ca336e8d60"),
        "gru": ("site --in {tmp}/gru.json", 0,
                "09008b2a8a66fe775b0ca5898b9a2ebc952e1f8a59ae7165d38f89b3365b9b6e"),
        "mgu2": ("site --in {tmp}/mgu2.json", 0,
                 "72afdab488b21bed1a91d0336437f3648ab4611aa5b269bc59202f65849f27a6"),
    },
    "gradcheck": {
        "chain": ("dyn gradcheck --arch {tmp}/chain.json --seed 0", 0,
                  "f43f91b8a89b739c1024d1dc3f1b7d2bccf2b7f29ca6435b6607315a72cbd136"),
        "diamond": ("dyn gradcheck --arch {tmp}/diamond.json --seed 0", 0,
                    "ca0297add20b41255e22fdb0fe23e63bedfd88b1979fca569d74a1a3285c43a6"),
        "lstm": ("dyn gradcheck --arch {tmp}/lstm.json --seed 0", 0,
                 "dc1611a73e49cde673de5418727e20e0cfb9cf73d09a2f64df523a334eb3321e"),
        "gru": ("dyn gradcheck --arch {tmp}/gru.json --seed 0", 0,
                "9f6fca4f8f06d4f5cc23a048959621ad94c9b8a6f6e4f9b949985b63dc7e9793"),
        "mgu2": ("dyn gradcheck --arch {tmp}/mgu2.json --seed 0", 0,
                 "bef981675b40e934ee89f5f3153c334653643dc4a45fa6de0690c68d4e756f43"),
        # 128 paths from a0 and b0 to the readout
        "diamonds-8": ("dyn gradcheck --arch {tmp}/diamonds8.json --seed 0", 0,
                       "50ce7d449585f527346f60bc1fe34e5379d20b6659ff33306a4fc91b8d3a6fb0"),
    },
    # the benchmark languages
    "carnap": {
        "2x2,2,2": ("carnap --subjects 2 --attributes 2,2,2", 0,
                    "c3209cf4642bcecaea89d60e93965df0e7fc62660b5774788c8e212e7a108cfe"),
        "3x2,2": ("carnap --subjects 3 --attributes 2,2", 0,
                  "c819ca699f69fa71aba8d0e45fdaa40e582c8a6a52a39096d4644f94b2a4a3cb"),
        "3x2,2,2": ("carnap --subjects 3 --attributes 2,2,2", 0,
                    "acdee5a74ea01e48c8b40e8f7bdc70e7e139218173a4df5e896417215e482288"),
        "3x3,2": ("carnap --subjects 3 --attributes 3,2", 0,
                  "36712460cfb19e47e8ae0f0b20dee3f2c56eaa2e6ace67c6bed34afaa2a7478d"),
        "4x2,2": ("carnap --subjects 4 --attributes 2,2", 0,
                  "64663988bcb33cdf6785cf3f3fdfc261ed06113f742386b2d6c15144e86e585b"),
        # a content of int 0: the simples of the one-value attribute exclude nothing
        "2x3,1": ("carnap --subjects 2 --attributes 3,1", 0,
                  "f69610570161d2f52ff236f3160f5cb289a8d1ed0bf735de7d60ac66f914d6b8"),
        # an arity of 11, where the states' str order is not their index order
        "2x11,2": ("carnap --subjects 2 --attributes 11,2 --bound 1000000000", 0,
                   "626a2eccf086e9bc2998d160f6e89415ecde723f47fb202a1ba5a84c95998f5c"),
    },
    "other": {
        "verify-all-seed-0": ("verify --all --seed 0", 1,
                              "f0d39b62ccdd166cab6b4b4e959db73c09637c9aa4cad88d8e705a684380b7be"),
        "heyting-arch-diamond": ("heyting --arch {tmp}/diamond.json", 0,
                                 "39ce87f332bde484e297c13e0f307520be795c57b00f356c17b329e57182c896"),
        "heyting-in": ("heyting --in {tmp}/poset.json", 0,
                       "4798c93fac7563791d55700c16ce2e5672f0382bf128c5bf859fed374027c6ec"),
        "sections": ("sections --in {tmp}/presheaf.json", 0,
                     "f78e665c17fcbe7806e94d4eb635c44901b5c6b19288f73d96113ceeb8f77d31"),
        "sections-limit-1": ("sections --in {tmp}/presheaf.json --limit 1", 0,
                             "b5572fae2f398793fd75eed0685c4a33c5a5d5667d7ef43f8ae195d51e5aad0e"),
        "cats-manifold": ("cats-manifold --in {tmp}/presheaf.json "
                          "--predicate {tmp}/predicate.json", 0,
                          "b3161c6783716362f32d791dd2f041c3174a9c0106dd7fbc9a96d74200319fca"),
        "check-fibrant-sets": ("stack check-fibrant --in {tmp}/sets.json", 1,
                               "b9cd8456fcea69f61f1242ff6a83f6f31e06f02669b25ef2cc1e21c29390d9c1"),
        "check-fibrant-groupoids": ("stack check-fibrant --in {tmp}/stack.json", 0,
                                    "adc5de38b1b98f5e94cde7dac7d8983340cab94f626784db1286926403ee1bce"),
        "adjunction": ("stack adjunction --in {tmp}/functor.json", 0,
                       "56bae25d3b0b5cec221046cb8368fa7d7f0c56f1a5204bd84b3e2c6690a7fa5b"),
        "info": ("info --in {tmp}/lang.json --theory 00,01 --q 01,11 --q2 10,11 --delta 1,0.5",
                 0, "a5bb93c40eb4a006238d286a0ead64f04b8c90d5e999badf59bce1f4edcfc69f"),
        "info-p": ("info --in {tmp}/lang.json --theory 01 --p 00 --seed 4", 0,
                   "c2dc3b1cbc4f3cb2ab38b000e4bf621a11e3f686b93b390e2bbca182a147f979"),
        # past 21 states `seminfo.sample` hands each draw to random.sample,
        # which takes its set branch for small samples
        "info-30-states": ("info --in {tmp}/lang30.json --theory s1,s2,s3 --q s0,s3,s4,s7 "
                           "--q2 s0,s7,s9 --p s0,s7 --seed 3", 0,
                           "355a1e889e5289ea5518a06e5fa41eee9064df139a2e78843014b3cb385acfa2"),
        "dyn-cell-mgu2": ("dyn --cell mgu2 --m 3 --n 2 --steps 5 --seed 0", 0,
                          "20c93916447c0bc9058ec904b71bcb27e982ebc796da374bfb4d2f300a818463"),
        "dyn-cell-lstm": ("dyn --seed 2", 0,
                          "9f94d1ce2966a82b4ff06f5c1b4f81b4b54ab2d0879a7310d4b3e411d903e7de"),
        "dyn-cell-gru": ("dyn --cell gru --m 2 --n 3 --steps 4 --seed 1", 0,
                         "3fd002b5ac233eccb084ed957fb326159ebd206f1978d07369e873f9b97c29cd"),
        "dyn-cell-cubic": ("dyn --cell cubic --m 3 --n 2 --steps 6 --seed 5", 0,
                           "179b99ee2ced77dd8b3898b4313467f47a7458211ea6221a1d17f728fda33253"),
        "dyn-cusp": ("dyn cusp --grid 30", 0,
                     "39a4d7313a9f82ae8f64a801d41228a200e353473a7930c0fea0acb6a03fdf25"),
        "gradcheck-seed-3-chain": (
            "dyn gradcheck --arch {tmp}/chain.json --seed 3", 0,
            "5c33265e16e0f7f299021be93d61712f54e981afccb53ece58782ec5c4a9c298"),
        "gradcheck-seed-3-diamond": (
            "dyn gradcheck --arch {tmp}/diamond.json --seed 3", 0,
            "1eff2d3aed81f2f0e3a63bc8b8378b1bc51233c5e5868403850617cdcf9da802"),
        "gradcheck-seed-3-lstm": (
            "dyn gradcheck --arch {tmp}/lstm.json --seed 3", 0,
            "cf2098b08a51796c361800a8773de11bdb496228dd45991b53b61bcf209f5975"),
        "gradcheck-seed-3-gru": (
            "dyn gradcheck --arch {tmp}/gru.json --seed 3", 0,
            "46ea63d145999f6eee7873544634c7e9fa9549009128d28ea72250f44f19b050"),
        "gradcheck-seed-3-mgu2": (
            "dyn gradcheck --arch {tmp}/mgu2.json --seed 3", 0,
            "5fa66a9a0db4fd14e168b6a15b3d26b940e20df2295770720aba6f2f3f8eaa84"),
        "carnap-1x1": ("carnap --subjects 1 --attributes 1", 0,
                       "6149a44f90b660670adaea69efd208d3dc9d54ff2d3925031e00c94372b83edb"),
        "carnap-bound-47": ("carnap --subjects 3 --attributes 2,2 --bound 47", 2,
                            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}

MANIFEST_DOCUMENTS = {
    "presheaf.json": {
        "poset": {"elements": ["y", "h", "x"], "leq": [["y", "h"], ["h", "x"], ["y", "x"]]},
        "carriers": {"x": ["a", "b", "c"], "h": ["u", "v"], "y": ["0", "1"]},
        "maps": {"h<=x": {"a": "u", "b": "v", "c": "v"}, "y<=h": {"u": "0", "v": "1"}},
    },
    "predicate.json": {"y": ["1"]},
    "poset.json": {"elements": ["a", "b", "c", "d"],
                   "leq": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]},
    "sets.json": {
        "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "carriers": {"0": ["a", "b"], "1": ["u", "v"]},
        "maps": {"0<=1": {"u": "a", "v": "a"}},
    },
    "stack.json": groupoid_stack_doc(
        {"elements": ["l", "r", "t"], "leq": [["l", "t"], ["r", "t"]]},
        {"t": (["a", "b"], [("a", "b")]), "l": (["p"], []), "r": (["u", "v"], [("v", "u")])},
        {"l<=t": {"a": "p", "b": "p"}, "r<=t": {"a": "u", "b": "v"}}),
    "functor.json": {
        "source": {"objects": ["x", "y"], "generators": []},
        "target": {"objects": ["u", "v", "w"], "generators": [{"src": "v", "dst": "w"}]},
        "object_map": {"x": "u", "y": "u"},
    },
    # eight stacked diamonds v_i -> a_i, b_i -> v_(i+1)
    "diamonds8.json": {
        "nodes": [f"v{i}" for i in range(9)] + [f"{c}{i}" for i in range(8) for c in "ab"],
        "edges": [[f"v{i}", f"{c}{i}"] for i in range(8) for c in "ab"]
        + [[f"{c}{i}", f"v{i + 1}"] for i in range(8) for c in "ab"],
    },
    "lang.json": {"states": ["00", "01", "10", "11"]},
    "lang30.json": {"states": [f"s{i}" for i in range(30)],
                    "measure": {f"s{i}": 1 + i % 7 for i in range(30)}},
}


def check_manifest_entry(capsys, tmp_path, group, key):
    """Run one manifest command in process; its exit code and the sha256 of
    its stdout must be the pinned ones."""
    command, want_code, want_sha = REPORT_MANIFEST[group][key]
    for name in ("chain", "diamond", "lstm", "gru", "mgu2"):
        (tmp_path / f"{name}.json").write_text(fixture_text(name))
    for name, doc in MANIFEST_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run(capsys, *(a.format(tmp=tmp_path) for a in command.split()))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_sha)


@pytest.mark.parametrize("key", REPORT_MANIFEST["other"])
def test_report_bytes_are_pinned(capsys, tmp_path, key):
    check_manifest_entry(capsys, tmp_path, "other", key)


@pytest.mark.parametrize("name", REPORT_MANIFEST["site"])
def test_site_report_bytes_are_pinned(capsys, tmp_path, name):
    check_manifest_entry(capsys, tmp_path, "site", name)


@pytest.mark.parametrize("name", REPORT_MANIFEST["gradcheck"])
def test_gradcheck_report_bytes_are_pinned(capsys, tmp_path, name):
    check_manifest_entry(capsys, tmp_path, "gradcheck", name)


@pytest.mark.parametrize("language", REPORT_MANIFEST["carnap"])
def test_carnap_report_bytes_are_pinned(capsys, tmp_path, language):
    check_manifest_entry(capsys, tmp_path, "carnap", language)


def reference_gradcheck_order(g):
    """Round by round, the vertices whose predecessors are all placed, each
    round sorted by name."""
    order = []
    remaining = {v: {s for s, d in g.edges if d == v} for v in g.vertices}
    while remaining:
        ready = sorted(v for v, preds in remaining.items() if not preds)
        for v in ready:
            order.append(v)
            del remaining[v]
        for preds in remaining.values():
            preds.difference_update(ready)
    return order


def test_gradcheck_network_order_matches_round_by_round_peeling():
    """On random DAGs whose vertex list is neither topological nor sorted,
    the gradcheck network lists its nodes in the reference's order, each
    with its predecessors sorted by name as parents, then the readout."""
    rng = random.Random(11)
    for _ in range(200):
        names = rng.sample([f"{c}{k}" for c in "zyxw" for k in range(3)], rng.randint(1, 9))
        edges = [(s, d) for i, s in enumerate(names) for d in names[i + 1:]
                 if rng.random() < 0.35]
        g = SiteGraph.build(rng.sample(names, len(names)), edges)
        net = network_from_architecture(g, random.Random(0))
        assert net.order == reference_gradcheck_order(g) + ["__loss_readout"]
        assert all(net.nodes[v].parents == tuple(sorted(s for s, d in edges if d == v))
                   for v in names)


def test_carnap_bound_limits_the_group(capsys):
    """|G| = 48 for three subjects over two binary attributes."""
    argv = ("carnap", "--subjects", "3", "--attributes", "2,2")
    code, out, err = run(capsys, *argv, "--bound", "47")
    assert code == 2
    assert out == "" and err == "error: group closure exceeds bound 47\n"
    assert run(capsys, *argv, "--bound", "48") == run(capsys, *argv)


def test_carnap_bound_counts_the_identity(capsys):
    """One state has the trivial group, the identity alone, with no
    generator: --bound 0 refuses it as --bound 47 refuses |G| = 48."""
    argv = ("carnap", "--subjects", "1", "--attributes", "1")
    code, out, err = run(capsys, *argv, "--bound", "0")
    assert code == 2
    assert out == "" and err == "error: group closure exceeds bound 0\n"
    assert run(capsys, *argv, "--bound", "1") == run(capsys, *argv)


def test_carnap_non_integer_attributes_exit_2(capsys):
    code, out, err = run(capsys, "carnap", "--subjects", "3", "--attributes", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'x'" in err


def test_dyn_cell_and_param_count(capsys):
    code, out, _ = run(capsys, "dyn", "--cell", "mgu2", "--m", "3", "--n", "2",
                       "--steps", "2", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["parameter_count"] == report["parameter_count_formula"] == 24
    assert len(report["trajectory"]) == 2


def test_dyn_deterministic_under_seed(capsys):
    _, out1, _ = run(capsys, "dyn", "--cell", "gru", "--seed", "9")
    _, out2, _ = run(capsys, "dyn", "--cell", "gru", "--seed", "9")
    assert out1 == out2


def test_dyn_gradcheck(capsys, datadir):
    code, out, _ = run(capsys, "dyn", "gradcheck", "--arch",
                       str(datadir / "diamond.json"))
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["max_error_vs_reverse_mode"] <= 1e-12


def test_dyn_cusp_csv(capsys):
    code, out, _ = run(capsys, "dyn", "cusp", "--grid", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,v,delta,root_count"
    assert len(lines) == 17


@pytest.mark.parametrize("argv", [
    ["dyn", "cusp", "--grid", "1"],
    ["dyn", "cusp", "--grid", "-1"],
    ["dyn", "--m", "0"],
    ["dyn", "--n", "0"],
    ["dyn", "--steps", "-1"],
])
def test_dyn_out_of_range_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least" in captured.err


def test_format_option_is_rejected_by_the_parser(capsys, datadir):
    with pytest.raises(SystemExit) as exc:
        main(["site", "--in", str(datadir / "chain.json"), "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_out_file(capsys, datadir, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "site", "--in", str(datadir / "chain.json"),
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["loop_rank"] == 0


@pytest.mark.parametrize("argv, says", [
    (["heyting"], "--in"),
    (["dyn", "gradcheck"], "--arch"),
    (["heyting", "--arch", ""], "No such file or directory: ''"),
], ids=["heyting-without-input", "gradcheck-without-arch", "heyting-empty-arch"])
def test_missing_input_exits_2_without_traceback(argv, says):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert says in proc.stderr


# The IO edge: every flag that names an input file, on files that cannot be
# opened, decoded or parsed.  Each run is an input error, said on one line.
READING_FLAGS = {
    "site --in": ["site", "--in", "{bad}"],
    "sections --in": ["sections", "--in", "{bad}"],
    "cats-manifold --in": ["cats-manifold", "--in", "{bad}",
                           "--predicate", "{tmp}/predicate.json"],
    "cats-manifold --predicate": ["cats-manifold", "--in", "{tmp}/presheaf.json",
                                  "--predicate", "{bad}"],
    "heyting --in": ["heyting", "--in", "{bad}"],
    "heyting --arch": ["heyting", "--arch", "{bad}"],
    "stack check-fibrant --in": ["stack", "check-fibrant", "--in", "{bad}"],
    "stack adjunction --in": ["stack", "adjunction", "--in", "{bad}"],
    "info --in": ["info", "--in", "{bad}"],
    "dyn gradcheck --arch": ["dyn", "gradcheck", "--arch", "{bad}"],
}
BAD_FILES = {
    "missing": None,
    "directory": None,
    "not-utf-8": b"\xff\xfe{",
    "not-json": b"not json at all {",
    "too-deep": b"[" * 200_000,
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("flag", sorted(READING_FLAGS))
def test_unreadable_input_files_exit_2(capsys, tmp_path, flag, bad):
    for name in ("presheaf.json", "predicate.json"):
        (tmp_path / name).write_text(json.dumps(MANIFEST_DOCUMENTS[name]))
    path = tmp_path / bad
    if bad == "directory":
        path.mkdir()
    elif BAD_FILES[bad] is not None:
        path.write_bytes(BAD_FILES[bad])
    argv = [a.format(tmp=tmp_path, bad=path) for a in READING_FLAGS[flag]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["site", "--in", "{tmp}/chain.json"],
                                  ["dyn", "cusp", "--grid", "2"]], ids=["json", "csv"])
@pytest.mark.parametrize("out", ["", "missing/"], ids=["directory", "missing-parent"])
def test_unwritable_out_exits_2(capsys, datadir, argv, out):
    target = datadir / out / "report"
    if not out:
        target.mkdir()
    code, stdout, err = run(capsys, *(a.format(tmp=datadir) for a in argv),
                            "--out", str(target))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {str(target)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["dyn", "cusp", "--grid", "3", "--cell", "gru", "--m", "4"], "--cell"),
    (["dyn", "gradcheck", "--arch", "{tmp}/diamond.json", "--grid", "5", "--steps", "9"],
     "--steps"),
    (["dyn", "--cell", "gru", "--grid", "7", "--arch", "nothing.json"], "--arch"),
    (["dyn", "cusp", "--seed", "5"], "--seed"),
    (["dyn", "--steps", "2", "gradcheck", "--arch", "{tmp}/diamond.json"], "--steps"),
    (["dyn", "cusp", "--arch", "{tmp}/diamond.json"], "--arch"),
    (["dyn", "gradcheck", "--arch", "{tmp}/diamond.json", "--cell", "lstm"], "--cell"),
], ids=["cusp-cell-m", "gradcheck-grid-steps", "cell-grid-arch", "cusp-seed",
        "steps-before-gradcheck", "cusp-arch", "gradcheck-default-cell"])
def test_dyn_modes_refuse_the_flags_of_other_modes(capsys, datadir, argv, flag):
    code, out, err = run(capsys, *(a.format(tmp=datadir) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: dyn ") and f"does not take {flag}" in err


@pytest.mark.parametrize("argv", [
    ["dyn", "--m", "3", "cell"],
    ["dyn", "--seed", "1", "gradcheck", "--arch", "{tmp}/chain.json"],
    ["dyn", "--grid", "3", "cusp"],
], ids=["m-before-cell", "seed-before-gradcheck", "grid-before-cusp"])
def test_dyn_modes_take_their_own_flags_before_the_mode_word(capsys, datadir, argv):
    code, out, err = run(capsys, *(a.format(tmp=datadir) for a in argv))
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, doc", [
    (["site", "--in"], {"nodes": [True, False], "edges": [[True, False]]}),
    (["heyting", "--in"], {"elements": [True, "x"], "leq": [[True, "x"]]}),
    (["stack", "adjunction", "--in"], {"source": {"objects": [True]},
                                       "target": {"objects": ["z"]}, "object_map": {"True": "z"}}),
], ids=["site", "heyting", "groupoid"])
def test_json_true_and_false_are_not_names(capsys, tmp_path, argv, doc):
    """Python's bool is an int, but JSON true and false are neither strings
    nor numbers."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert "must be a " in err and "string" in err and err.count("\n") == 1


def test_unwritable_out_is_refused_before_the_command_runs(capsys, tmp_path, monkeypatch):
    from sheafnet import cli

    def run_all(seed):
        raise AssertionError("verify ran although --out cannot be written")

    monkeypatch.setattr(cli, "run_all", run_all)
    code, out, err = run(capsys, "verify", "--all", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {str(tmp_path)!r}: ")


def _split_component_doc(command):
    """An object map sending the connected objects a and b to the two
    unconnected objects y and z."""
    source = {"objects": ["a", "b"], "generators": [{"src": "a", "dst": "b"}]}
    target = {"objects": ["y", "z"]}
    object_map = {"a": "y", "b": "z"}
    if command == "adjunction":
        return {"source": source, "target": target, "object_map": object_map}
    return groupoid_stack_doc({"elements": ["0", "1"], "leq": [["0", "1"]]},
                              {"1": (source["objects"], [("a", "b")]), "0": (["y", "z"], [])},
                              {"0<=1": object_map})


@pytest.mark.parametrize("command", ["adjunction", "check-fibrant"])
def test_object_map_splitting_a_component_exits_2(capsys, tmp_path, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_split_component_doc(command)))
    code, out, err = run(capsys, "stack", command, "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: object map splits the component of 'a': " \
                  "'y' and 'z' are not connected\n"


def _capped(limit_bytes):
    """A preexec function that caps the child's address space."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    return cap


@pytest.mark.parametrize("command", ["adjunction", "check-fibrant"])
def test_ten_thousand_object_component_under_a_memory_cap(tmp_path, command):
    """One connected component of 10**4 objects (a chain of generators),
    mapped by the identity, in a child process capped at 1 GiB of address
    space: the groupoid is its components and vertex groups, so no table
    grows with the square of the objects."""
    objects = [f"o{i}" for i in range(10**4)]
    groupoid = {"objects": objects,
                "generators": [{"src": a, "dst": b} for a, b in zip(objects, objects[1:])]}
    identity = {o: o for o in objects}
    if command == "adjunction":
        doc = {"source": groupoid, "target": groupoid, "object_map": identity}
    else:
        doc = {"poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
               "fibers": {"0": groupoid, "1": groupoid}, "glue": {"0<=1": identity}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", "stack", command,
                           "--in", str(path)], env=env, capture_output=True, timeout=30,
                          preexec_fn=_capped(2**30))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report.get("fibrant", report.get("adjunction_ok")) is True


def test_carnap_group_closure_past_its_bound_under_a_memory_cap():
    """Seven subjects over two binary attributes: 16,384 states and a group
    of order 7! * 8 = 40,320, in a child process capped at 600 MB of address
    space.  The order is known by formula and tested against the bound of
    2,000 before any generator array is built, so the command exits 2
    without closing the group, where closing it past the bound once ran out
    of memory in numpy and ended in a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", "carnap", "--subjects", "7",
                           "--attributes", "2,2", "--bound", "2000"], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_capped(600 * 2**20))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: group closure exceeds bound 2000\n"


@pytest.mark.parametrize("subjects,attributes", [("2", "300"), ("1", "30000")])
def test_carnap_group_order_past_the_default_bound_under_a_memory_cap(subjects, attributes):
    """One attribute of 300 values on two subjects (90,000 states, order
    2 * 300!) and one of 30,000 values on one subject (order 30,000!), each
    inside the default state bound, in a child process capped at 1.5 GB of
    address space: both exit 2 on the group bound before any generator or
    product array is built, where the closure once ended in a memory
    error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("SHEAFNET_BOUND", None)
    proc = subprocess.run([sys.executable, "-m", "sheafnet.cli", "carnap", "--subjects", subjects,
                           "--attributes", attributes], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_capped(1536 * 2**20))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: group closure exceeds bound 10000\n"


def _capped_carnap(*argv):
    """``sheafnet carnap argv`` in a child process capped at 1.5 GB of
    address space, under the default bounds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("SHEAFNET_BOUND", None)
    return subprocess.run([sys.executable, "-m", "sheafnet.cli", "carnap", *argv], env=env,
                          capture_output=True, timeout=60, preexec_fn=_capped(1536 * 2**20))


def test_carnap_sixty_five_thousand_states_under_a_memory_cap():
    """Four subjects over four binary attributes: 65,536 states and a group
    of order 4! * 2^4 * 4! = 9,216, inside both default bounds.  The report
    is built from the generators and the simples' digit rows, so it exits 0
    under the cap with its pinned bytes."""
    proc = _capped_carnap("--subjects", "4", "--attributes", "2,2,2,2")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "a051950d31c2279dc29149feddb577b83b0c97ab01329a0ed459ab9d887aba4a"


def test_carnap_state_count_past_its_bound_under_a_memory_cap():
    """Twenty million subjects over one ternary attribute: 3^20,000,000
    states.  The count is multiplied up factor by factor and refused once it
    passes the state bound, so the command exits 2 with one error line,
    with no 9.5-million-digit integer computed or printed."""
    proc = _capped_carnap("--subjects", "20000000", "--attributes", "3")
    assert (proc.returncode, proc.stdout) == (2, b"")
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
