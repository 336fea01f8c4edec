"""Command-line entry point.

Subcommands: site, sections, cats-manifold, heyting, stack, info, carnap,
dyn, verify.  Every subcommand takes --out.  Only the commands that read a
flag take it, so a flag a command would ignore exits 2: --bound goes on
sections, cats-manifold, heyting and carnap, --seed on info, dyn and verify.
Each `dyn` mode takes only its own flags (`DYN_FLAGS`): --cell, --m, --n and
--steps go on cell, --arch on gradcheck, --grid on cusp, --seed on cell and
gradcheck.  An absent --bound takes the SHEAFNET_BOUND environment variable
(unset or empty: the library's default); `main` is the one place that reads
it.  Reports are JSON, except the CSV table of `dyn cusp`.  Exit codes: 0
success, 1 check failure, 2 input error.  An input file that cannot be read,
is not UTF-8 JSON or nests too deep to parse, and an --out that cannot be
written, are input errors: `_load_json` and `_write` are the only places
that open files.  Reports are stable-ordered (sorted JSON keys, fixed row
order) so identical configurations diff byte-identically.
"""

import argparse
import functools
import json
import math
import os
import random
import sys

import numpy as np

from . import heyting as hey
from .arch_site import (
    FinitePoset,
    build_poset,
    fork_surgery,
    parse_architecture,
    site_report,
)
from .carnap import (
    build_language,
    build_symmetry_group,
    orbit_report,
    self_duality_holds,
    simple_content_report,
    simple_propositions,
    simples_form_single_orbit,
)
from .chains import DeltaSequence
from .dynamics import (
    CELLS,
    PARAM_COUNTS,
    SumLoss,
    cubic_cell_step,
    cusp_scan,
    gradient_agreement,
    gru_step,
    lstm_step,
    mgu2_step,
    network_from_architecture,
)
from .errors import GroupoidError, SheafnetError
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    StackOverPoset,
    check_adjunction_and_section,
    check_fibrant_injective,
)
from .presheaf import Presheaf, cats_manifold, sections
from .seminfo import (
    BooleanLanguage,
    ambiguity,
    check_cocycle,
    check_concavity,
    check_independence,
    content,
    localized_precision,
    mutual_information,
    sample,
)
from .unionfind import UnionFind
from .verify import run_all


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def emit_report(data, out=None):
    """Bit-stable JSON (sorted keys)."""
    _write(json.dumps(data, sort_keys=True, indent=2, default=str) + "\n", out)


def _write(text, out):
    """``text`` to the file ``out``, or to stdout if ``out`` is empty."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SheafnetError(f"cannot write {out!r}: {exc}") from exc


def _check_out(out):
    """Refuse, before any work, an ``out`` that `_write` could not open: an
    existing directory, or a file in a directory that does not exist."""
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or os.curdir)):
        raise SheafnetError(f"cannot write {out!r}: not a file in an existing directory")


def _load_json(path):
    """The JSON object in the UTF-8 file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers JSONDecodeError and UnicodeDecodeError
    except (OSError, ValueError, RecursionError) as exc:
        raise SheafnetError(f"cannot read {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SheafnetError(f"{path!r} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _json_object(value, what):
    """``value`` if it is a JSON object, else an input error naming ``what``."""
    if not isinstance(value, dict):
        raise SheafnetError(f"{what} must be a JSON object")
    return value


def _field(doc, key, what="document"):
    """``doc[key]``; a missing key is an input error naming it."""
    if key not in _json_object(doc, what):
        raise SheafnetError(f"{what} has no {key!r}")
    return doc[key]


def _scalars(xs):
    """Are all of ``xs`` JSON strings or numbers?  A state may also be JSON
    true or false (Python's bool is an int), named by its key text."""
    return all(isinstance(x, (str, int, float)) for x in xs)


def _names(xs):
    """Are all of ``xs`` JSON strings or numbers, never true or false, as
    the names of poset elements and groupoid objects must be?"""
    return _scalars(xs) and not any(isinstance(x, bool) for x in xs)


def _scalar_list(value, what, test):
    """``value`` if it is a JSON list that passes ``test`` (`_scalars` or
    `_names`), else an input error naming ``what``."""
    if not isinstance(value, list) or not test(value):
        raise SheafnetError(f"{what} must be a list of strings or numbers")
    return value


def _load_poset(doc):
    """The poset of a document.  Its elements are JSON strings or numbers,
    named in the document by their ``str``, so the names must differ."""
    elements = _scalar_list(_field(doc, "elements", "poset"), "poset 'elements'", _names)
    leq = doc.get("leq", [])
    if not isinstance(leq, list) or \
            not all(isinstance(p, list) and len(p) == 2 and _names(p) for p in leq):
        raise SheafnetError("poset 'leq' must be a list of [x, y] pairs of elements")
    if len(set(map(str, elements))) != len(elements):
        raise SheafnetError("poset elements must have distinct names")
    return FinitePoset.from_dict(doc)


def _key_text(state):
    """The text naming ``state`` as a JSON object key: a string is its own
    key, a number is named by its JSON text."""
    return state if isinstance(state, str) else json.dumps(state)


def _state_names(states, what):
    """The key texts (`_key_text`) of a JSON list of states; a state that is
    not a finite number is an input error naming ``what``."""
    for s in states:
        if isinstance(s, float) and not math.isfinite(s):
            raise SheafnetError(f"{what} holds {_key_text(s)}, which is not a finite number")
    return [_key_text(s) for s in states]


def _load_presheaf(doc):
    """The presheaf of a document.  A map names each state of its domain
    carrier by its key text (`_key_text`), so the key texts of a carrier
    must differ."""
    poset = _load_poset(_field(doc, "poset"))
    table = _field(doc, "carriers")
    carriers = {x: _scalar_list(_field(table, str(x), "'carriers'"), f"carrier {str(x)!r}",
                                 _scalars)
                for x in poset.elements}
    states_by_key = {x: {} for x in carriers}
    for x, states in carriers.items():
        for key, s in zip(_state_names(states, f"carrier {str(x)!r}"), states):
            if states_by_key[x].setdefault(key, s) != s:
                raise SheafnetError(f"carrier {str(x)!r} has two states named by the key "
                                    f"{key!r}")
    maps = doc.get("maps", {})
    if not isinstance(maps, dict) or not all(
            isinstance(m, dict) and _scalars(m.values()) for m in maps.values()):
        raise SheafnetError("'maps' must send each 'x<=y' key to an object "
                            "of states (strings or numbers)")
    typed = {}
    for key, m in maps.items():
        pair = _covering_pair(key, poset)
        named = states_by_key[pair[1]]
        typed[pair] = {named.get(k, k): v for k, v in m.items()}
    return Presheaf(poset, carriers, typed)


def _covering_pair(key, poset):
    """The pair (x, y) of poset elements named by a "x<=y" key, each element
    named by its ``str`` (as in `_load_poset`)."""
    names = {str(x): x for x in poset.elements}
    pair = key.split("<=")
    if len(pair) != 2 or not set(pair) <= names.keys():
        raise SheafnetError(f"key {key!r} must name two poset elements as 'x<=y'")
    return tuple(names[s] for s in pair)


def _component_functor(source, target, table, what):
    """The functor of component groupoids sending each object ``o`` to
    ``table[str(o)]``, and each morphism to the one between its ends' images."""
    missing = sorted(str(o) for o in source.objects if str(o) not in _json_object(table, what))
    if missing:
        raise SheafnetError(f"{what} leaves out objects {missing}")
    return GroupoidFunctor.of_object_map(source, target,
                                         {o: str(table[str(o)]) for o in source.objects})


def _component_groupoid(doc):
    """One codiscrete component per class of the generated relation, with
    the trivial vertex group, objects named by their ``str``."""
    objects = [str(o) for o in _scalar_list(_field(doc, "objects", "groupoid"),
                                            "groupoid 'objects'", _names)]
    # a repeated name is one object
    known, uf = set(objects), UnionFind(dict.fromkeys(objects))
    generators = doc.get("generators", [])
    if not isinstance(generators, list):
        raise SheafnetError("groupoid 'generators' must be a list")
    for gen in generators:
        ends = (str(_field(gen, "src", "generator")), str(_field(gen, "dst", "generator")))
        if not known.issuperset(ends):
            raise GroupoidError(f"generator {ends} names an object missing from 'objects'")
        uf.union(*ends)
    return FiniteGroupoid.of((members, ()) for members in uf.groups())


def _states(text):
    return frozenset(s for s in text.split(",") if s)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_site(args):
    g = parse_architecture(_load_json(args.infile))
    emit_report(site_report(g), args.out)
    return 0


def cmd_sections(args):
    p = _load_presheaf(_load_json(args.infile))
    return _emit_sections(sections(p, args.bound), args)


def cmd_cats_manifold(args):
    p = _load_presheaf(_load_json(args.infile))
    names = {str(x): x for x in p.poset.elements}      # as in `_covering_pair`
    predicate = {names.get(k, k): _scalar_list(v, f"predicate on {k!r}", _scalars)
                 for k, v in _load_json(args.predicate).items()}
    return _emit_sections(cats_manifold(p, predicate, args.bound), args)


def _emit_sections(secs, args):
    """The count and the first ``--limit`` sections, states as strings."""
    emit_report({"count": len(secs),
                 "sections": [{str(k): str(v) for k, v in s.items()}
                              for s in secs.tuples[:args.limit]]},
                args.out)
    return 0


def cmd_heyting(args):
    if args.arch is not None:
        poset = build_poset(fork_surgery(parse_architecture(_load_json(args.arch))))
    else:
        poset = _load_poset(_load_json(args.infile))
    emit_report(hey.implication_table(poset, bound=args.bound), args.out)
    return 0


def cmd_stack(args):
    doc = _load_json(args.infile)
    if args.stack_cmd == "check-fibrant":
        if "carriers" in doc:
            diagram = _load_presheaf(doc)
        else:
            poset = _load_poset(_field(doc, "poset"))
            table = _field(doc, "fibers")
            fibers = {x: _component_groupoid(_field(table, str(x), "'fibers'"))
                      for x in poset.elements}
            glue = {}
            for key, omap in _json_object(_field(doc, "glue"), "'glue'").items():
                x, y = _covering_pair(key, poset)
                glue[(x, y)] = _component_functor(fibers[y], fibers[x], omap,
                                                  f"glue object map {key!r}")
            diagram = StackOverPoset(poset, fibers, glue)
        report = check_fibrant_injective(diagram)
        emit_report(report.as_dict(), args.out)
        return 0 if report.fibrant else 1
    # adjunction
    src = _component_groupoid(_field(doc, "source"))
    dst = _component_groupoid(_field(doc, "target"))
    report = check_adjunction_and_section(
        _component_functor(src, dst, _field(doc, "object_map"), "object_map"))
    emit_report(dict(vars(report), failures=[str(f) for f in report.failures]), args.out)
    return 0 if report.ok else 1


def cmd_info(args):
    doc = _load_json(args.infile)
    states = _state_names(_scalar_list(_field(doc, "states"), "'states'", _scalars), "'states'")
    measure = doc.get("measure")
    if measure is not None and not isinstance(measure, dict):
        raise SheafnetError("'measure' must be a JSON object of state weights")
    lang = BooleanLanguage(states, measure)
    alg = hey.OpenAlgebra.discrete(lang.states)
    if args.theory is not None and not _states(args.theory):
        raise SheafnetError("--theory names no state: the empty theory has precision -inf")
    p = alg.check(_states(args.p)) if args.p else frozenset()
    # by default the largest theory psi grades: every state, or not P
    theory = alg.check(_states(args.theory)) if args.theory else alg.top - p
    q = alg.check(_states(args.q)) if args.q else alg.top
    q2 = alg.check(_states(args.q2)) if args.q2 else alg.top
    psi = localized_precision(lang, p)
    rng = random.Random(args.seed)
    # the sweeps take masks of the discrete poset: state i is bit i
    bits = [1 << i for i in range(len(lang.states))]
    p_mask = alg.poset.mask_of(p)
    allowed = hey.top_mask(alg.poset) & ~p_mask
    first_allowed = allowed & -allowed

    def sample_theory():
        return sum(sample(rng, bits, 1, len(bits))) & allowed or first_allowed

    def sample_prop():
        return sum(sample(rng, bits, 1, len(bits))) | p_mask

    triples = [(sample_theory(), sample_prop(), sample_prop()) for _ in range(2000)]
    cocycle = check_cocycle(psi, triples)
    domain = []
    for _ in range(2000):
        t, t2 = sample_theory(), sample_theory()
        if not t & ~t2:
            domain.append((sample_prop(), t, t2))
    concavity = check_concavity(psi, domain)
    independent, residual = check_independence(lang, q, q2)
    report = {
        "content": content(lang, theory),
        "psi": psi(theory),
        "ambiguity": ambiguity(psi, theory, q),
        "mutual_information": mutual_information(psi, theory, q, q2),
        "checks": {
            "cocycle": {"samples": cocycle.samples,
                        "max_residual": cocycle.max_residual,
                        "ok": cocycle.passed(args.tolerance)},
            "concavity": {"samples": concavity.samples,
                          "minimum": concavity.minimum,
                          "ok": concavity.passed(args.tolerance)},
            "independence": {"independent": independent,
                             "additivity_residual": residual},
        },
    }
    if args.delta:
        try:
            values = [float(x) for x in args.delta.split(",")]
        except ValueError:
            raise SheafnetError(
                f"--delta must be comma-separated numbers, got {args.delta!r}") from None
        delta = DeltaSequence.of(values)
        report["delta"] = {"values": list(delta.values), "dominated": True}
    emit_report(report, args.out)
    ok = report["checks"]["cocycle"]["ok"] and report["checks"]["concavity"]["ok"]
    return 0 if ok else 1


def cmd_carnap(args):
    try:
        counts = [int(c) for c in args.attributes.split(",") if c]
    except ValueError:
        raise SheafnetError(
            f"--attributes must be comma-separated integers, got {args.attributes!r}") from None
    lang = build_language(args.subjects, counts)
    group = build_symmetry_group(lang, args.bound)
    report = orbit_report(lang, group)
    simples = simple_propositions(lang)
    out = {
        "states": len(lang.states),
        "proposition_count": lang.proposition_count_text,
        "group_order": group.order,
        "orbits": report.orbit_rows(lang),
        "simples": {
            "count": len(simples),
            "labels": sorted(s.label for s in simples),
            "self_dual": self_duality_holds(lang, simples),
            "single_orbit": simples_form_single_orbit(lang, group, simples),
            "content": simple_content_report(lang, simples),
        },
    }
    emit_report(out, args.out)
    return 0


#: Each `dyn` flag that not every mode reads: flag -> (the modes that read
#: it, its default).  Their parser default is None, so `cmd_dyn` can tell a
#: flag given to a mode that does not read it from one left out.
DYN_FLAGS = {
    "cell": (("cell",), "lstm"),
    "m": (("cell",), 2),
    "n": (("cell",), 2),
    "steps": (("cell",), 3),
    "arch": (("gradcheck",), None),
    "grid": (("cusp",), 100),
    "seed": (("cell", "gradcheck"), 0),
}


def cmd_dyn(args):
    for flag, (modes, default) in DYN_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.dyn_cmd not in modes:
            raise SheafnetError(f"dyn {args.dyn_cmd} does not take --{flag}")
    rng = random.Random(args.seed)
    if args.dyn_cmd == "cusp":
        rows = cusp_scan(grid=args.grid)
        lines = [("u", "v", "delta", "root_count")] + rows
        _write("".join(",".join(str(x) for x in row) + "\n" for row in lines), args.out)
        return 0
    if args.dyn_cmd == "gradcheck":
        if args.arch is None:
            raise SheafnetError("dyn gradcheck needs --arch, an architecture file")
        g = parse_architecture(_load_json(args.arch))
        net = network_from_architecture(g, rng)
        inputs = {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
                  for name in net.inputs}
        vs_rev, vs_fd, res = gradient_agreement(net, inputs, SumLoss())
        report = {
            "max_error_vs_reverse_mode": vs_rev,
            "max_error_vs_finite_differences": vs_fd,
            "path_counts": {k: v for k, v in sorted(res.path_counts.items())},
            "saturated_nodes": list(res.saturated),
            "ok": vs_rev <= 1e-12 and vs_fd <= 1e-6,
        }
        emit_report(report, args.out)
        return 0 if report["ok"] else 1
    # cell trajectory
    m, n = args.m, args.n
    params = CELLS[args.cell].init(m, n, rng)
    h = np.zeros(m)
    c = np.zeros(m)
    rows = []
    for step in range(args.steps):
        x = np.array([rng.uniform(-1, 1) for _ in range(n)])
        if args.cell == "lstm":
            h, c = lstm_step(params, x, h, c)
        elif args.cell == "gru":
            h = gru_step(params, x, h)
        elif args.cell == "mgu2":
            h = mgu2_step(params, x, h)
        else:
            h = cubic_cell_step(params, x, h)
        rows.append({"step": step, "h": [round(float(v), 12) for v in h]})
    report = {
        "cell": args.cell,
        "m": m,
        "n": n,
        "parameter_count": params.n_parameters,
        "parameter_count_formula": PARAM_COUNTS[args.cell](m, n),
        "trajectory": rows,
    }
    emit_report(report, args.out)
    return 0


def cmd_verify(args):
    results = run_all(seed=args.seed)
    for res in results:
        sys.stderr.write(res.line() + "\n")
    report = {
        "criteria": [
            {"number": r.number, "name": r.name,
             "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
    emit_report(report, args.out)
    return 0 if report["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int_at_least(low):
    """An argparse type for integers >= ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _finite_at_least(low):
    """An argparse type for finite numbers >= ``low``."""
    def number(text):
        value = float(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be a finite number at least {low}, got {text}")
        return value
    return number


@functools.cache
def make_parser():
    """The argument parser, built once per process.  It names no command
    function: `main` looks up ``cmd_<command>`` when it runs one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--bound", type=int, default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="sheafnet",
        description="Finite sites, sheaves, stacks and semantic information "
                    "measures for layered network architectures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, flags=(), **kw):
        return sub.add_parser(name, parents=[common, *flags], **kw)

    p = add_parser("site", help="poset site report for an architecture")
    p.add_argument("--in", dest="infile", required=True)

    p = add_parser("sections", [bounded], help="global sections of a presheaf")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--limit", type=_int_at_least(0), default=100)

    p = add_parser("cats-manifold", [bounded], help="sections filtered by an output predicate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--predicate", required=True)
    p.add_argument("--limit", type=_int_at_least(0), default=100)

    p = add_parser("heyting", [bounded], help="implication table of the open-set algebra")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile")
    source.add_argument("--arch", help="derive the poset from an architecture file")

    p = add_parser("stack", help="stack checks over a poset")
    p.add_argument("stack_cmd", choices=("check-fibrant", "adjunction"))
    p.add_argument("--in", dest="infile", required=True)

    p = add_parser("info", [seeded], help="semantic information report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--theory", default=None,
                   help="comma-separated states (default: every state, or not P with --p)")
    p.add_argument("--q", default=None, help="conditioning proposition")
    p.add_argument("--q2", default=None, help="second proposition")
    p.add_argument("--p", default=None, help="localizing proposition")
    p.add_argument("--delta", default=None, help="comma-separated weights")
    p.add_argument("--tolerance", type=_finite_at_least(0), default=1e-12,
                   help="slack of the cocycle and concavity checks")

    p = add_parser("carnap", [bounded], help="subject/attribute language report")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--attributes", required=True, help='e.g. "2,2"')

    # defaults in DYN_FLAGS
    p = add_parser("dyn", help="cells, gradient checks, cusp scans")
    p.add_argument("dyn_cmd", nargs="?", default="cell",
                   choices=("cell", "gradcheck", "cusp"))
    p.add_argument("--seed", type=int)
    p.add_argument("--cell", choices=tuple(CELLS))
    p.add_argument("--m", type=_int_at_least(1))
    p.add_argument("--n", type=_int_at_least(1))
    p.add_argument("--steps", type=_int_at_least(0))
    p.add_argument("--arch")
    p.add_argument("--grid", type=_int_at_least(2))

    p = add_parser("verify", [seeded], help="run the acceptance suite")
    p.add_argument("--all", action="store_true")

    return parser


def _environment_bound():
    """SHEAFNET_BOUND read as --bound reads its value; None if it is unset
    or empty."""
    text = os.environ.get("SHEAFNET_BOUND", "")
    try:
        return int(text) if text else None
    except ValueError:
        raise SheafnetError(f"SHEAFNET_BOUND must be an integer, got {text!r}") from None


def main(argv=None):
    args = make_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_out(args.out)
        if "bound" in vars(args) and args.bound is None:
            args.bound = _environment_bound()
        return command(args)
    except SheafnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
