"""The three benchmark workloads.

Each workload has the same shape:

* ``generate(seed, workdir)`` builds every input from the seed and returns
  them with a plain-data description (hashed into the input digest);
* ``run(inputs)`` makes one closed-loop pass over the items on one thread
  and returns ``(latencies, outputs)`` (``acceptance`` times only the whole
  ``run_all`` call, as one latency); the item spans hold the calls into
  ``sheafnet`` and, for ``pipeline``, the re-keying of the join tables by
  the tip order that fork surgery chose;
* ``check(inputs, outputs)`` compares the outputs with independent
  expectations outside any span and returns one ``(ok, why)`` per item;
  ``why`` explains a failure, or remarks on a passing item.

Why these three: ``acceptance`` is the job users run (``verify --all``)
and is dominated by bulk lattice sweeps; ``symmetry`` spends nearly all of
its time closing permutation groups and never touches the lattice or
presheaf code; ``pipeline`` runs many small instances through every layer
per call (surgery, opens, Heyting operations, presheaf closure, sections,
gradients, semantic measures) plus every CLI subcommand except ``verify``.
A change aimed at one of them is expected to leave the others unchanged.

Generators never draw random numbers while iterating a set: every choice is
made from a sorted list, so the inputs do not depend on PYTHONHASHSEED.
"""

import contextlib
import io
import json
import math
import random
import re
from importlib import resources
import traceback
from itertools import product as iproduct
from time import perf_counter


class Failure:
    """An item whose call into the library raised; counted as failed."""

    def __init__(self, exc):
        self.why = "".join(traceback.format_exception_only(exc)).strip()


def timed(fn, *args):
    """(latency, output) of one item; an exception becomes a Failure so
    that one broken item does not end the run."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001  (the item loop must keep running)
        out = Failure(exc)
    return perf_counter() - t0, out


# ---------------------------------------------------------------------------
# acceptance: verify.run_all(seed), one item per criterion
# ---------------------------------------------------------------------------

# minimum coverage of the lattice sweeps (criterion 2, criterion 3)
C2_FLOOR = {"shapes": 456, "literal_pairs": 32_402, "kernel_pairs": 19_964_958,
            "sampled_scans": 1_500}
C2_DETAIL = re.compile(r"(\d+) shapes; (\d+) pairs vs literal sup-scan, (\d+) pairs via "
                       r"validated kernels, (\d+) sampled sup-scans")
C3_DETAIL = re.compile(r"concavity: (\d+) triples")
# Criteria 1, 2 and 6 also fail when they run past a wall-clock limit (5 s,
# 30 s, 10 s), which depends on the machine's load as much as on the code.
# The benchmark measures time itself, so such a miss is reported as a gate
# miss, not as a wrong output, when the detail shows the work completed
# exactly.
WALL_CLOCK_GATED = {
    1: lambda detail: "open pairs, exact" in detail,
    2: lambda detail: bool(C2_DETAIL.search(detail)) and detail.endswith("; exact"),
    6: lambda detail: "FAIL" not in detail,
}


class Acceptance:
    name = "acceptance"

    def generate(self, seed, workdir):
        from sheafnet import verify

        criteria = [c.__name__ for c in getattr(verify, "CRITERIA", ())]
        return {"seed": seed, "verify": verify}, {"seed": seed, "criteria": criteria}

    def run(self, inputs):
        # per-criterion times come from the traced run (spans.py)
        wall, results = timed(inputs["verify"].run_all, inputs["seed"])
        return [wall], results

    def check(self, inputs, results):
        if isinstance(results, Failure):
            return [(False, f"run_all raised {results.why}")] * 16
        verdicts = []
        for r in results:
            if r.number == 3:
                ok = not r.passed and "double-difference=-0.5" in r.detail
                verdicts.append((ok, "" if ok else f"criterion 3 changed: {r.detail}"))
            elif r.passed:
                verdicts.append((True, ""))
            elif r.number in WALL_CLOCK_GATED and WALL_CLOCK_GATED[r.number](r.detail):
                verdicts.append((True, f"gate miss: criterion {r.number} exact but over "
                                       "its time limit"))
            else:
                verdicts.append((False, f"criterion {r.number} failed: {r.detail}"))
        got = self.coverage(results)
        for i, r in enumerate(results):
            if r.number == 2 and verdicts[i][0] and \
                    not all(got[k] >= v for k, v in C2_FLOOR.items()):
                verdicts[i] = (False, f"criterion 2 coverage {got} below {C2_FLOOR}")
        verdicts += [(False, "criterion missing")] * max(0, 16 - len(results))
        return verdicts

    @staticmethod
    def coverage(results):
        """Coverage counts parsed from the criterion 2 and 3 details."""
        out = dict.fromkeys(("shapes", "literal_pairs", "kernel_pairs", "sampled_scans",
                             "triples"), 0)
        if isinstance(results, Failure):
            return out
        for r in results:
            m = (C2_DETAIL if r.number == 2 else C3_DETAIL).search(r.detail)
            if m and r.number == 2:
                out.update(zip(("shapes", "literal_pairs", "kernel_pairs", "sampled_scans"),
                               map(int, m.groups())))
            elif m and r.number == 3:
                out["triples"] = int(m.group(1))
        return out


# ---------------------------------------------------------------------------
# symmetry: Carnap languages through their symmetry groups
# ---------------------------------------------------------------------------

# (subjects, attribute arities); group orders 48, 96, 72, 192, 288
LANGUAGES = ((3, (2, 2)), (2, (2, 2, 2)), (3, (3, 2)), (4, (2, 2)), (3, (2, 2, 2)))


def expected_group_order(subjects, counts):
    """s! * prod(c_a!) * prod(len(run)!) over runs of adjacent equal arities."""
    order = math.factorial(subjects)
    for c in counts:
        order *= math.factorial(c)
    run = 1
    for a, b in zip(counts, counts[1:] + (None,)):
        if a == b:
            run += 1
        else:
            order *= math.factorial(run)
            run = 1
    return order


class Symmetry:
    name = "symmetry"

    def generate(self, seed, workdir):
        # the seed orders the attributes; the language order stays fixed, since
        # it moves the peak memory by up to 7% through allocation order
        rng = random.Random(seed)
        specs = [(s, tuple(rng.sample(counts, len(counts)))) for s, counts in LANGUAGES]
        return {"specs": specs}, {"specs": specs}

    def run(self, inputs):
        return tuple(zip(*(timed(_symmetry_item, subjects, counts)
                           for subjects, counts in inputs["specs"])))

    def check(self, inputs, outputs):
        verdicts = []
        for (subjects, counts), out in zip(inputs["specs"], outputs):
            if isinstance(out, Failure):
                verdicts.append((False, f"{subjects},{list(counts)}: {out.why}"))
                continue
            lang, group, report, simples, dual, single = out
            order = expected_group_order(subjects, counts)
            fixed = sum(sum(1 for x, y in perm.items() if x == y)
                        for perm in group.elements.values())
            binary = all(c == 2 for c in counts)
            checks = {
                "|G|": group.order == order == len(group.elements),
                "orbit sizes sum to |E|": sum(report.sizes()) == len(lang.states),
                "Burnside": fixed == order * len(report.orbits),
                "simples": len(simples) == subjects * sum(counts),
                "self-duality": dual is (True if binary else None),
                "single orbit": single == (len(set(counts)) == 1),
            }
            bad = [k for k, v in checks.items() if not v]
            verdicts.append((not bad, f"{subjects},{list(counts)}: {bad}" if bad else ""))
        return verdicts


def _symmetry_item(subjects, counts):
    from sheafnet import carnap

    lang = carnap.build_language(subjects, counts)
    group = carnap.build_symmetry_group(lang)
    report = carnap.orbit_report(lang, group)
    simples = carnap.simple_propositions(lang)
    return (lang, group, report, simples, carnap.self_duality_holds(lang, simples),
            carnap.simples_form_single_orbit(lang, group, simples))


# ---------------------------------------------------------------------------
# pipeline: many small seeded instances through every layer, plus the CLI
# ---------------------------------------------------------------------------

# The sizes below set the mix of one pass.  Measured as inclusive time per
# stage, untraced, at seeds 0 and 7 on a 2-core x86 machine: implies and
# oracle_implies 40%, gradient_agreement 21%, CLI 15%, presheaf closure and
# sections 14-15%, surgery to opens 4%, seminfo 3%, fixtures 2%.
PIPELINE_ITEMS = 300        # enough items for a p90 with 30 samples beyond it
# Item sizes follow fixed ladders over the item index, and the seed draws the
# instances within each size, so that a pass costs nearly the same for every
# seed.  Posets up to 12 elements are also checked by brute force.
ELEMENT_LADDER = range(5, 17)          # poset elements after fork surgery
STATE_LADDER = range(4, 11)            # states of the seminfo language
# Each sampled open pair goes through implies and oracle_implies (which
# enumerates the opens again on every call).  With 20 pairs per item the
# Heyting calls are over a third of the pass, so doubling their per-call
# cost moves wall_s past its 0.25 bound, and the architecture part of an item
# (surgery to the last Heyting call) takes 1.4-2 ms p50 and 7-11 ms p90.
HEYTING_PAIRS = 20
# Finite differences run one forward pass per weight; networks of at most 3
# layers of 2 units keep gradient_agreement near a fifth of the pass (4
# layers of 3 units made it two fifths).
NETWORK_CANDIDATES = 5                 # the median-cost one is kept
NETWORK_LAYERS = 3
NETWORK_UNITS = 2
SEMINFO_BATCH = 8
FIXTURE_OPENS = {"lstm": 77_702, "gru": 25_357, "mgu2": 6_592}
FIXTURE_LOOP_RANKS = {"lstm": 3, "gru": 5}      # as documented in the README
FIXTURE_BOUND = 32          # lstm has 25 elements; the default bound is 20
ITEM_BOUND = 32
BRUTE_FORCE_MAX = 12


def _architecture(rng, n_layers, max_width=2):
    """Layered DAG: every vertex reads only the previous layer, so the
    standard feed-forward presheaf is functorial."""
    layers = [[f"in{i}" for i in range(rng.randint(1, 3))]]
    edges = []
    for d in range(n_layers):
        layer = []
        for k in range(rng.randint(1, max_width)):
            name = f"v{d}_{k}"
            parents = sorted(rng.sample(layers[-1], rng.randint(1, len(layers[-1]))))
            edges += [(p, name) for p in parents]
            layer.append(name)
        layers.append(layer)
    for v in layers[0]:
        if all(s != v for s, _ in edges):
            edges.append((v, layers[1][0]))
    return [v for layer in layers for v in layer], edges


def _site_size(vertices, edges):
    """Elements of the fork site: every vertex, one tang per join, and one
    tip per input that feeds a join directly."""
    indeg = {v: sum(1 for _, d in edges if d == v) for v in vertices}
    joins = {v for v in vertices if indeg[v] >= 2}
    fed = {s for s, d in edges if d in joins and indeg[s] == 0}
    return len(vertices) + len(joins) + len(fed)


def _architecture_of_size(rng, size):
    best = None
    for _ in range(1000):
        vertices, edges = _architecture(rng, rng.randint(1, 6))
        gap = abs(_site_size(vertices, edges) - size)
        if best is None or gap < best[0]:
            best = (gap, vertices, edges)
        if gap == 0:
            break
    return best[1], best[2]


def _instance(seed, index):
    """Plain-data description of one pipeline item."""
    rng = random.Random(f"pipeline:{seed}:{index}")
    size = ELEMENT_LADDER[index % len(ELEMENT_LADDER)]
    vertices, edges = _architecture_of_size(rng, size)
    parents = {v: sorted(s for s, d in edges if d == v) for v in vertices}
    sinks = [v for v in vertices if all(s != v for s, _ in edges)]
    carriers = {v: [f"{v}:{k}" for k in range(rng.randint(1, 3))] for v in vertices}
    # dynamics of plain edges, and of joins on sorted-parent state tuples
    edge_maps = {f"{s}>{d}": [rng.choice(carriers[d]) for _ in carriers[s]]
                 for s, d in edges if len(parents[d]) == 1}
    join_tables = {v: [rng.choice(carriers[v])
                       for _ in iproduct(*(carriers[p] for p in ps))]
                   for v, ps in parents.items() if len(ps) >= 2}
    predicate = {v: sorted(rng.sample(carriers[v], rng.randint(1, len(carriers[v]))))
                 for v in sinks}
    pairs = [(rng.random(), rng.random()) for _ in range(HEYTING_PAIRS)]
    states = [f"e{j}" for j in range(STATE_LADDER[index % len(STATE_LADDER)])]
    batch = []
    for _ in range(SEMINFO_BATCH):
        t, q1, q2, s0 = (sorted(rng.sample(states, rng.randint(1, len(states))))
                         for _ in range(4))
        s1 = sorted(set(rng.sample(states, rng.randint(0, len(states)))) | {rng.choice(s0)})
        batch.append((t, q1, q2, s0, s1))
    return {"vertices": vertices, "edges": edges, "carriers": carriers,
            "edge_maps": edge_maps, "join_tables": join_tables, "predicate": predicate,
            "pairs": pairs, "states": states, "batch": batch,
            "network_seed": f"network:{seed}:{index}"}


def _network(spec):
    from sheafnet.dynamics import random_fork_network

    rng = random.Random(spec["network_seed"])
    # cost proxy: weights times nodes (one forward pass per weight in the
    # finite differences)
    nets = sorted((random_fork_network(rng, max_layers=NETWORK_LAYERS, max_units=NETWORK_UNITS)
                   for _ in range(NETWORK_CANDIDATES)),
                  key=lambda n: (sum(x.weight.size for x in n.nodes.values()
                                     if x.weight is not None) * len(n.nodes)))
    net = nets[len(nets) // 2]
    inputs = {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
              for name in net.inputs}
    return net, inputs


def _tree_presheaf_doc(rng):
    """A presheaf on a rooted tree poset (one lower cover per element), so
    any restriction maps are functorial; "r" is the only minimal element."""
    elements = ["r"]
    leq = []
    for i in range(rng.randint(3, 6)):
        name = f"a{i}"
        leq.append([rng.choice(elements), name])
        elements.append(name)
    carriers = {x: [f"{x}{k}" for k in range(rng.randint(1, 3))] for x in elements}
    maps = {f"{x}<={y}": {s: rng.choice(carriers[x]) for s in carriers[y]} for x, y in leq}
    doc = {"poset": {"elements": elements, "leq": leq}, "carriers": carriers, "maps": maps}
    return doc, {"r": sorted(rng.sample(carriers["r"], rng.randint(1, len(carriers["r"]))))}


def _fibrant_docs(rng):
    """A two-element chain with a surjective restriction (fibrant, exit 0)
    and with a constant one onto a carrier of two or more states (exit 1)."""
    k = rng.randint(2, 3)
    m = rng.randint(k, 4)
    low = [f"x{j}" for j in range(k)]
    high = [f"y{j}" for j in range(m)]
    shift = rng.randrange(k)
    poset = {"elements": ["0", "1"], "leq": [["0", "1"]]}
    good = {"poset": poset, "carriers": {"0": low, "1": high},
            "maps": {"0<=1": {s: low[(j + shift) % k] for j, s in enumerate(high)}}}
    bad = {"poset": poset, "carriers": {"0": low, "1": high},
           "maps": {"0<=1": {s: low[shift] for s in high}}}
    return good, bad


def _adjunction_doc(rng):
    """A functor between component groupoids that is well defined: every
    source component lands in one target component."""
    n_tgt = rng.randint(1, 3)
    target = {"objects": [f"t{i}" for i in range(n_tgt)], "generators": []}
    sources, gens, omap = [], [], {}
    for c in range(rng.randint(1, 4)):
        size = rng.randint(1, 2)
        objs = [f"s{c}_{i}" for i in range(size)]
        sources += objs
        gens += [{"src": objs[i], "dst": objs[i + 1]} for i in range(size - 1)]
        image = f"t{rng.randrange(n_tgt)}"
        omap.update({o: image for o in objs})
    return {"source": {"objects": sources, "generators": gens}, "target": target,
            "object_map": omap}


def _cli_calls(seed, workdir):
    """(argv, expected exit code) for every CLI subcommand but verify."""
    rng = random.Random(f"cli:{seed}")
    data = resources.files("sheafnet.data")
    fixture = {name: str(data.joinpath(f"{name}.json"))
               for name in ("chain", "diamond", "lstm", "gru", "mgu2")}

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    presheaf, predicate = _tree_presheaf_doc(rng)
    good, bad = _fibrant_docs(rng)
    n = rng.randint(3, 5)
    poset = {"elements": [f"p{i}" for i in range(n)],
             "leq": [[f"p{i}", f"p{j}"] for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]}
    states = [f"e{j}" for j in range(rng.randint(3, 6))]
    theory, q, q2 = (",".join(sorted(rng.sample(states, rng.randint(1, len(states)))))
                     for _ in range(3))
    cell = rng.choice(["lstm", "gru", "mgu2", "cubic"])
    subjects, attributes = rng.choice([(2, "2,2"), (2, "3"), (3, "2"), (2, "2,3")])
    s = str(seed)
    calls = [(["site", "--in", path], 0) for path in fixture.values()]
    calls += [
        (["heyting", "--arch", fixture["diamond"]], 0),
        (["heyting", "--in", write("poset.json", poset)], 0),
        (["sections", "--in", write("presheaf.json", presheaf)], 0),
        (["cats-manifold", "--in", str(workdir / "presheaf.json"),
          "--predicate", write("predicate.json", predicate)], 0),
        (["stack", "check-fibrant", "--in", write("fibrant.json", good)], 0),
        (["stack", "check-fibrant", "--in", write("not_fibrant.json", bad)], 1),
        (["stack", "adjunction", "--in", write("functor.json", _adjunction_doc(rng))], 0),
        (["info", "--in", write("language.json", {"states": states}), "--theory", theory,
          "--q", q, "--q2", q2, "--seed", s], 0),
        (["carnap", "--subjects", str(subjects), "--attributes", attributes], 0),
        (["dyn", "--cell", cell, "--m", str(rng.randint(1, 4)), "--n", str(rng.randint(1, 4)),
          "--steps", "4", "--seed", s], 0),
        (["dyn", "gradcheck", "--arch", fixture["diamond"], "--seed", s], 0),
        (["dyn", "cusp", "--grid", "30"], 0),
        (["site", "--in", str(workdir / "missing.json")], 2),
    ]
    return calls


class Pipeline:
    name = "pipeline"

    def generate(self, seed, workdir):
        from sheafnet.arch_site import SiteGraph
        from sheafnet.data import fixture_graph
        from sheafnet.seminfo import BooleanLanguage

        specs = [_instance(seed, i) for i in range(PIPELINE_ITEMS)]
        items = []
        for spec in specs:
            net, net_inputs = _network(spec)
            items.append({
                "spec": spec,
                "graph": SiteGraph.build(spec["vertices"], spec["edges"]),
                "edge_maps": _edge_maps(spec),
                "network": net, "network_inputs": net_inputs,
                "language": BooleanLanguage(spec["states"]),
                "batch": [tuple(frozenset(x) for x in quad) for quad in spec["batch"]],
            })
        fixtures = {name: fixture_graph(name) for name in FIXTURE_OPENS}
        calls = _cli_calls(seed, workdir)
        described = {"specs": specs,
                     "networks": [_describe_network(item["network"], item["network_inputs"])
                                  for item in items],
                     "cli": [[a.replace(str(workdir), "<workdir>") for a in argv] + [rc]
                             for argv, rc in calls],
                     "cli_documents": {p.name: p.read_text() for p in sorted(workdir.iterdir())}}
        return {"items": items, "fixtures": fixtures, "cli": calls}, described

    def run(self, inputs):
        timings = [timed(_run_item, item) for item in inputs["items"]]
        timings += [timed(_run_fixture, graph) for graph in inputs["fixtures"].values()]
        # the CLI calls are not items: they count in the pass, not in the latencies
        cli_out = [[timed(_cli_call, argv)[1] for _ in range(2)] for argv, _ in inputs["cli"]]
        latencies, outputs = zip(*timings)
        return latencies, (outputs, cli_out)

    def check(self, inputs, outputs):
        item_out, cli_out = outputs
        verdicts = [(False, out.why) if isinstance(out, Failure) else _check_item(item, out)
                    for item, out in zip(inputs["items"], item_out)]
        for (name, _), out in zip(inputs["fixtures"].items(), item_out[len(inputs["items"]):]):
            if isinstance(out, Failure):
                verdicts.append((False, f"fixture {name}: {out.why}"))
                continue
            ok = out["classification"].ok and len(out["opens"]) == FIXTURE_OPENS[name] and \
                out["loop_rank"] == FIXTURE_LOOP_RANKS.get(name, out["loop_rank"])
            verdicts.append((ok, "" if ok else f"fixture {name}: {len(out['opens'])} opens, "
                                               f"loop rank {out['loop_rank']}"))
        for (argv, want), runs in zip(inputs["cli"], cli_out):
            raised = [r.why for r in runs if isinstance(r, Failure)]
            if raised:
                verdicts.append((False, f"cli {argv[:2]}: {raised}"))
                continue
            ok = runs[0][0] == runs[1][0] == want and runs[0][1] == runs[1][1]
            verdicts.append((ok, "" if ok else
                             f"cli {argv[:2]}: exit {[r[0] for r in runs]}, want {want}"))
        return verdicts


def _cli_call(argv):
    """Exit code and standard output of one `sheafnet` command."""
    from sheafnet import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(argv))
    return rc, stdout.getvalue()


def _describe_network(net, inputs):
    return [[name, node.op, node.dim, list(node.parents), node.activation,
             None if node.weight is None else node.weight.tobytes().hex()]
            for name, node in net.nodes.items()] + [sorted(inputs.items())]


def _edge_maps(spec):
    """Plain-edge dynamics keyed the way the library takes them."""
    out = {}
    for key, images in spec["edge_maps"].items():
        s, d = key.split(">")
        out[(s, d)] = dict(zip(spec["carriers"][s], images))
    return out


def _handle_maps(fg, spec):
    """Join tables re-keyed by tip-state tuples in the fork's tip order."""
    carriers, tables = spec["carriers"], spec["join_tables"]
    out = {}
    for fork in fg.forks:
        # a tip minted by input duplication stands for the input feeding it
        origin = [t if t in carriers else fg.predecessors(t)[0] for t in fork.tips]
        order = sorted(range(len(origin)), key=lambda i: origin[i])
        index = {v: {s: k for k, s in enumerate(carriers[v])} for v in origin}
        sizes = [len(carriers[origin[i]]) for i in order]
        table = tables[fork.handle]
        mapping = {}
        for tup in iproduct(*(carriers[v] for v in origin)):
            flat = 0
            for i, size in zip(order, sizes):
                flat = flat * size + index[origin[i]][tup[i]]
            mapping[tup] = table[flat]
        out[fork.tang] = mapping
    return out


def _run_item(item):
    from sheafnet import arch_site, heyting, presheaf
    from sheafnet.dynamics import SumLoss, gradient_agreement
    from sheafnet.seminfo import (ambiguity, cbh_precision, condition, kl_divergence,
                                  mutual_information)

    spec = item["spec"]
    fg = arch_site.fork_surgery(item["graph"])
    poset = arch_site.build_poset(fg)
    cls = arch_site.classify_vertices(poset)
    opens = arch_site.open_masks(poset, bound=ITEM_BOUND)
    implications = []
    for a, b in spec["pairs"]:
        q = poset.set_of(opens[int(a * len(opens))])
        t = poset.set_of(opens[int(b * len(opens))])
        implications.append((heyting.implies(poset, q, t),
                             heyting.oracle_implies(poset, q, t, bound=ITEM_BOUND)))
    sheaf = presheaf.standard_feedforward_presheaf(
        fg, spec["carriers"], item["edge_maps"], _handle_maps(fg, spec))
    secs = presheaf.sections(sheaf)
    cats = presheaf.cats_manifold(sheaf, spec["predicate"])
    vs_reverse, _, _ = gradient_agreement(item["network"], item["network_inputs"], SumLoss())
    psi = cbh_precision(item["language"])
    alg = psi.algebra
    measures = [(condition(alg, t, q1), ambiguity(psi, t, q1),
                 mutual_information(psi, t, q1, q2), kl_divergence(psi, q1, s0, s1))
                for t, q1, q2, s0, s1 in item["batch"]]
    return {"poset": poset, "classification": cls, "opens": opens,
            "implications": implications, "sections": secs, "cats": cats,
            "vs_reverse": vs_reverse, "measures": measures}


def _run_fixture(graph):
    from sheafnet import arch_site

    fg = arch_site.fork_surgery(graph)
    poset = arch_site.build_poset(fg)
    return {"classification": arch_site.classify_vertices(poset),
            "opens": arch_site.open_masks(poset, bound=FIXTURE_BOUND),
            "loop_rank": arch_site.loop_rank(graph)}


def _brute_force_opens(poset):
    """Every downward-closed subset, from pairwise order queries alone."""
    import numpy as np

    n = len(poset.elements)
    masks = np.arange(1 << n, dtype=np.int64)
    closed = np.ones(1 << n, dtype=bool)
    for i, x in enumerate(poset.elements):
        down = sum(1 << j for j, y in enumerate(poset.elements) if poset.leq(y, x))
        closed &= ((masks >> i) & 1 == 0) | (masks & down == down)
    return masks[closed].tolist()


def _check_item(item, out):
    spec = item["spec"]
    why = []
    poset = out["poset"]
    if not out["classification"].ok:
        why.append("classification")
    if len(poset.elements) <= BRUTE_FORCE_MAX and \
            sorted(out["opens"]) != _brute_force_opens(poset):
        why.append("opens vs brute force")
    if any(a != b for a, b in out["implications"]):
        why.append("implies vs oracle_implies")
    inputs = [v for v in spec["vertices"] if all(d != v for _, d in spec["edges"])]
    if len(out["sections"]) != math.prod(len(spec["carriers"][v]) for v in inputs):
        why.append("|H0| vs product of input carriers")
    elements = out["sections"].elements
    accepted = {v: set(states) for v, states in spec["predicate"].items()}
    want = sorted(tuple(s[x] for x in elements) for s in out["sections"]
                  if all(s[v] in acc for v, acc in accepted.items()))
    if sorted(tuple(s[x] for x in elements) for s in out["cats"]) != want:
        why.append("cats_manifold vs filtered sections")
    if not out["vs_reverse"] <= 1e-12:
        why.append(f"path sum vs reverse mode {out['vs_reverse']:.2e}")
    universe = frozenset(spec["states"])

    def given(x, q):
        return (universe - q) | x

    # CBH precision with the counting measure: psi(T) = ln(|T| / |E|)
    for (t, q1, q2, s0, s1), (cond, amb, mi, kl) in zip(item["batch"], out["measures"]):
        ref_amb = math.log(len(given(t, q1)) / len(t))
        ref_mi = (math.log(len(given(t, q1))) + math.log(len(given(t, q2)))
                  - math.log(len(given(t, q1 & q2))) - math.log(len(t)))
        m = s0 & s1
        ref_kl = (math.log(len(given(m, q1))) - math.log(len(m))
                  - math.log(len(given(s0, q1))) + math.log(len(s0)))
        if cond != given(t, q1) or abs(amb - ref_amb) > 1e-12 or \
                abs(mi - ref_mi) > 1e-12 or abs(kl - ref_kl) > 1e-12:
            why.append("seminfo vs closed form")
            break
    return not why, f"pipeline item: {why}" if why else ""


WORKLOADS = {w.name: w for w in (Acceptance(), Symmetry(), Pipeline())}
