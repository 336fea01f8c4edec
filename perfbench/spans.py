"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces each public function listed in `TARGETS` with a
timing wrapper: in its defining module, in every ``sheafnet`` module that
imported it by name, and inside module-level lists such as
``verify.CRITERIA``.  A wrapper keeps, per function, the call count, the
self time (its span minus the spans of wrapped functions it called) and,
where the layer has one, a work count read from the result.  Names that do
not exist at the checked-out commit are skipped and reported as absent.
Per-element methods (``FinitePoset.leq``, ``Presheaf.restrict``,
``ChainSub.meet/join/leq``) are deliberately not in the list: their
wrappers would cost more than their bodies.
"""

import functools
import sys
from time import perf_counter


def _count_result(field):
    def extract(stat, args, kwargs, result):
        stat.work[field] = stat.work.get(field, 0) + len(result)
    return extract


def _chain_subs(stat, args, kwargs, result):
    stat.work["subs"] = stat.work.get("subs", 0) + len(result)
    stat.keys.add(args[0] if args else kwargs["chain"])


def _group_elements(stat, args, kwargs, result):
    stat.work["elements"] = stat.work.get("elements", 0) + len(result)
    gens = args[0] if args else kwargs["generators"]
    stat.keys.add(tuple(sorted(
        (name, tuple(sorted(perm.items(), key=repr))) for name, perm in gens.items())))


def _path_count(stat, args, kwargs, result):
    stat.work["paths"] = stat.work.get("paths", 0) + sum(result.path_counts.values())


CS = ("calls", "self_s")

# (module, attribute path, metric stem, reported fields, work extractor).  A
# field is a _Stat attribute, a work count, or "calls_per_key" (calls per
# distinct argument, e.g. chain or generating set); a (field, name) pair
# reports it under an explicit metric name.
TARGETS = [
    ("arch_site", "fork_surgery", "arch_site.fork_surgery", CS, None),
    ("arch_site", "build_poset", "arch_site.build_poset", CS, None),
    ("arch_site", "classify_vertices", "arch_site.classify_vertices", CS, None),
    ("arch_site", "loop_rank", "arch_site.loop_rank", CS, None),
    ("arch_site", "open_masks", "arch_site.open_masks", ("calls", "opens", "self_s"),
     _count_result("opens")),
    ("heyting", "implies", "heyting.implies", CS, None),
    ("heyting", "oracle_implies", "heyting.oracle_implies", CS, None),
    ("heyting", "implies_mask", "heyting.implies_mask", CS, None),
    ("heyting", "oracle_implies_mask", "heyting.oracle_implies_mask", CS, None),
    ("chains", "all_chain_subs", "chains.all_chain_subs",
     ("calls", "subs", "self_s", ("calls_per_key", "chains.all_chain_subs.calls_per_chain")),
     _chain_subs),
    ("chains", "chain_oracle_implies", "chains.chain_oracle_implies", CS, None),
    ("chains", "chain_implication", "chains.chain_implication", CS, None),
    ("chains", "psi_delta", "chains.psi_delta", CS, None),
    ("presheaf", "Presheaf.__init__", "presheaf.Presheaf.init", CS, None),
    ("presheaf", "sections", "presheaf.sections", ("calls", "sections", "self_s"),
     _count_result("sections")),
    ("presheaf", "cats_manifold", "presheaf.cats_manifold", ("calls", "sections", "self_s"),
     _count_result("sections")),
    ("presheaf", "standard_feedforward_presheaf", "presheaf.standard_feedforward_presheaf",
     ("self_s",), None),
    ("groupoids", "close_permutation_group", "groupoids.close_permutation_group",
     ("calls", "elements", "self_s",
      ("calls_per_key", "groupoids.close_permutation_group.calls_per_group")),
     _group_elements),
    ("groupoids", "group_action_orbits", "groupoids.group_action_orbits", ("self_s",), None),
    ("groupoids", "check_adjunction_and_section", "groupoids.check_adjunction_and_section",
     CS, None),
    ("groupoids", "check_fibrant_injective", "groupoids.check_fibrant_injective", CS, None),
    ("carnap", "build_symmetry_group", "carnap.build_symmetry_group", ("self_s",), None),
    ("carnap", "orbit_report", "carnap.orbit_report", ("self_s",), None),
    ("carnap", "simples_form_single_orbit", "carnap.simples_form_single_orbit", ("self_s",),
     None),
    ("seminfo", "condition", "seminfo.condition", CS, None),
    ("seminfo", "ambiguity", "seminfo.ambiguity", CS, None),
    ("seminfo", "mutual_information", "seminfo.mutual_information", CS, None),
    ("seminfo", "kl_divergence", "seminfo.kl_divergence", CS, None),
    ("dynamics", "WeightedNetwork.backprop_paths", "dynamics.WeightedNetwork.backprop_paths",
     CS + (("paths", "dynamics.backprop_paths.paths"),), _path_count),
    ("dynamics", "WeightedNetwork.reverse_mode", "dynamics.WeightedNetwork.reverse_mode",
     CS, None),
    ("dynamics", "WeightedNetwork.finite_difference",
     "dynamics.WeightedNetwork.finite_difference", CS, None),
]
# criterion spans: the whole span as verify.criterion_NN_s, self time for the
# two lattice sweeps whose children are wrapped
TARGETS += [("verify", f"criterion_{n:02d}", f"verify.criterion_{n:02d}",
             (("total_s", f"verify.criterion_{n:02d}_s"),)
             + (("self_s",) if n in (2, 3) else ()), None)
            for n in range(1, 17)]
CLI_SUBCOMMANDS = ("site", "sections", "cats_manifold", "heyting", "stack", "info",
                   "carnap", "dyn")
TARGETS += [("cli", f"cmd_{name}", f"cli.{name}", CS, None) for name in CLI_SUBCOMMANDS]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "work", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = {}
        self.keys = set()


class Tracer:
    """Installs span wrappers, accumulates per-function statistics and
    removes the wrappers again."""

    def __init__(self):
        self.stats = {stem: _Stat() for _, _, stem, _, _ in TARGETS}
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, fn, stat, extract):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if extract is not None:
                t1 = perf_counter()
                extract(stat, args, kwargs, result)
                if stack:       # reading the work count is not the caller's time
                    stack[-1] += perf_counter() - t1
            return result

        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sheafnet" or name.startswith("sheafnet.")}
        replaced = {}
        for mod_name, attr, stem, _, extract in TARGETS:
            owner = modules.get(f"sheafnet.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(stem)
                continue
            wrapper = self._wrap(fn, self.stats[stem], extract)
            self._set(owner, leaf, wrapper)
            if not path:
                replaced[id(fn)] = (fn, wrapper)
        # imported-by-name copies and lists of functions (verify.CRITERIA)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((value, i, item))
                            value[i] = hit[1]

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, list):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def metrics(self, passes):
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        out = {}
        for _, _, stem, fields, _ in TARGETS:
            stat = self.stats[stem]
            for field in fields:
                field, name = field if isinstance(field, tuple) else (field, f"{stem}.{field}")
                if field == "calls_per_key":
                    # calls per distinct argument per pass
                    keys = len(stat.keys) * passes
                    out[name] = (stat.calls / keys if keys else 0.0, "ratio")
                elif field in ("calls", "self_s", "total_s"):
                    out[name] = (getattr(stat, field) / passes,
                                 "count" if field == "calls" else "s")
                else:
                    out[name] = (stat.work.get(field, 0) / passes, "count")
        return out
