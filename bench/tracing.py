"""Per-layer tracing of the gkmfaces package from outside it.

`Tracer.install` wraps each layer's public functions and methods at
every place they are bound: the defining module and every other
gkmfaces module (or the package itself) that imported the name with
`from … import`.  Each wrapped call records a span (name, start, end,
parent, job) in flat in-memory arrays; `write_spans` dumps them once,
at the end of a run.  Self time is a span's duration minus the time its
child spans cover, after the wrapper's own cost per span, measured on
a no-op at install, is taken off (see `Tracer.calibrate`).  `uninstall`
restores every original binding.

Only the listed names are wrapped.  Cheap, very hot helpers such as
`GradedPoset.leq` are left alone, so their time counts towards the
calling span's layer.  Names that no longer exist are skipped.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("ratlinalg", "matroid", "poset", "complexes", "gkm", "reconstruct", "formats", "cli")

WRAPPED = {
    "ratlinalg": [
        "EchelonBasis.add", "EchelonBasis.contains", "Subspace.span", "Subspace.contains",
        "rank_of", "in_span", "span_equal",
    ],
    "matroid": [
        "WeightSystem.span_of", "WeightSystem.rank", "closure", "all_flats", "flats_lattice",
        "independence_complex", "h_vector", "independence_degree",
    ],
    "poset": [
        "GradedPoset.__init__", "GradedPoset.hasse_covers", "GradedPoset.induced",
        "GradedPoset.upper_ideal", "GradedPoset.proper_part", "computed_ranks", "is_graded",
        "grading_of", "is_geometric_lattice", "is_locally_geometric", "mobius", "atoms_of",
        "check_coherent", "check_gkm_coherent", "compactify", "projectivize", "glue_top",
        "are_isomorphic",
    ],
    "complexes": [
        "order_complex", "_simplices_by_dim", "reduced_betti", "euler_characteristic",
        "verify_wedge_prediction",
    ],
    "gkm": [
        "GkmGraph.__init__", "validate_graph", "require_valid", "connection_violations",
        "validate_connection", "check_connection", "canonical_connection", "subgraph_flat",
        "subgraph_degree", "enumerate_face_subgraphs", "is_totally_geodesic", "enumerate_faces",
        "enumerate_tg_faces", "representation_face_poset", "local_face_poset",
    ],
    "reconstruct": ["reconstruct_face_poset", "pi_map", "verify_galois"],
    "formats": [
        "parse_matroid", "format_matroid", "parse_poset", "format_poset", "poset_to_json",
        "poset_to_dot", "matroid_to_json", "parse_graph_with_connection", "parse_graph",
        "format_graph", "graph_to_json", "dump_json",
    ],
    "cli": ["main", "build_parser"],  # plus every cmd_* handler, found at install time
}

# Spans whose inclusive time is reported as a metric of its own.
ENUMERATE = "gkm.enumerate_face_subgraphs"
PARSER = ("cli.build_parser", "cli.parse_args")


def _encoded_len(text) -> int:
    return len(text.encode()) if isinstance(text, str) else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_layer: list[str] = []  # name id -> layer
        # one entry per span, in start order
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job_id = array("i")
        self.stack: list[int] = []  # indices of the open spans
        self.counts = Counter()
        self.errors = Counter()
        self.origin: dict = {}  # exception -> innermost layer it escaped from
        self.job = -1
        self.overhead_in_ns = self.overhead_out_ns = 0.0
        self._error_type: type[BaseException] = Exception
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, layer: str, qualname: str, fn, after=None):
        tracer = self
        if qualname not in self.ids:
            self.ids[qualname] = len(self.names)
            self.names.append(qualname)
            self.name_layer.append(layer)
        nid = self.ids[qualname]
        clock = time.perf_counter_ns
        stack, start, end = self.stack, self.start, self.end
        name_id, parent, job_id = self.name_id, self.parent, self.job_id
        error_type = self._error_type

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_id.append(tracer.job)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                tracer.origin.setdefault(exc, layer)
                if len(stack) == 2:  # escaping to the outermost span: the job's error
                    tracer.errors[tracer.origin[exc]] += 1
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self) -> None:
        """Measure what the wrapper adds to each span, in ns per call.

        `overhead_in_ns` is the wrapper's cost inside a span's own window
        (one clock read, the call through `*args`); `overhead_out_ns` is
        its bookkeeping before the start and after the end clock read,
        which lands in the calling span.  Both are timed on an outer span
        that calls a wrapped no-op in a loop, against a bare loop of the
        same calls, and `_totals` takes them off again.  The no-op keeps
        the heap small, so the garbage collector's share of the wrapper's
        cost in a large run is not covered.
        """

        rounds = 20000

        def noop():
            pass

        def bare():
            for _ in range(rounds):
                noop()

        inside, outside = [], []
        for _ in range(5):
            probe = Tracer()
            inner = probe._wrap("inner", "inner", noop)

            def loop():
                for _ in range(rounds):
                    inner()

            probe._wrap("outer", "outer", loop)()
            t0 = time.perf_counter_ns()
            bare()
            bare_ns = time.perf_counter_ns() - t0
            durations = [e - s for s, e in zip(probe.start, probe.end)]
            children = sum(durations[1:])
            inside.append((children - bare_ns) / rounds)
            outside.append((durations[0] - children) / rounds)
        self.overhead_in_ns = max(statistics.median(inside), 0.0)
        self.overhead_out_ns = max(statistics.median(outside), 0.0)

    def _hooks(self) -> dict:
        counts = self.counts

        def add(key, measure):
            def hook(result, args):
                counts[key] += measure(result, args)

            return hook

        def parser_built(parser, args):
            parser.parse_args = self._wrap("cli", "cli.parse_args", parser.parse_args)

        def text_in(result, args):
            return _encoded_len(args[0]) if args else 0

        return {
            "matroid.all_flats": add("matroid.flats", lambda r, a: len(r)),
            "matroid.flats_lattice": add("matroid.covers", lambda r, a: len(r.covers)),
            "matroid.independence_complex": add("matroid.bases", lambda r, a: len(r.facets)),
            "poset.GradedPoset.__init__": add(
                "poset.built_elements", lambda r, a: len(a[0].elements)
            ),
            "complexes.order_complex": add("complexes.chains", lambda r, a: len(r.facets)),
            "complexes._simplices_by_dim": add(
                "complexes.simplices", lambda r, a: sum(len(level) for level in r)
            ),
            "gkm.validate_graph": add("gkm.validations", lambda r, a: 1),
            "gkm.enumerate_face_subgraphs": add("gkm.faces", lambda r, a: len(r)),
            "reconstruct.reconstruct_face_poset": add(
                "reconstruct.survivors", lambda r, a: len(r.faces.elements)
            ),
            "formats.parse_matroid": add("formats.bytes_in", text_in),
            "formats.parse_poset": add("formats.bytes_in", text_in),
            "formats.parse_graph_with_connection": add("formats.bytes_in", text_in),
            "formats.format_matroid": add("formats.bytes_out", lambda r, a: _encoded_len(r)),
            "formats.format_poset": add("formats.bytes_out", lambda r, a: _encoded_len(r)),
            "formats.poset_to_dot": add("formats.bytes_out", lambda r, a: _encoded_len(r)),
            "formats.format_graph": add("formats.bytes_out", lambda r, a: _encoded_len(r)),
            "formats.dump_json": add("formats.bytes_out", lambda r, a: _encoded_len(r)),
            "cli.build_parser": parser_built,
        }

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "gkmfaces" or name.startswith("gkmfaces."))
        }
        self._error_type = modules["gkmfaces.errors"].GkmFacesError
        self.calibrate()
        hooks = self._hooks()
        wrapped = dict(WRAPPED)
        cli = modules["gkmfaces.cli"]
        wrapped["cli"] = wrapped["cli"] + sorted(n for n in vars(cli) if n.startswith("cmd_"))
        functions: dict[int, object] = {}  # id(original) -> wrapper
        for layer, names in wrapped.items():
            mod = modules[f"gkmfaces.{layer}"]
            for name in names:
                qualname = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                if owner_name:
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(layer, qualname, raw.__func__, hooks.get(qualname)))
                    else:
                        new = self._wrap(layer, qualname, raw, hooks.get(qualname))
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, new)
                else:
                    functions[id(raw)] = (raw, self._wrap(layer, qualname, raw, hooks.get(qualname)))
        # rebind at every site: defining module and every `from … import`
        for mod in modules.values():
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results

    def end_job(self) -> None:
        self.origin.clear()

    def _corrected(self) -> list[float]:
        """Each span's inclusive ns without the wrapper's own cost.

        A span loses `overhead_in_ns` for itself and both overheads for
        every span nested inside it.
        """
        own, per_nested = self.overhead_in_ns, self.overhead_in_ns + self.overhead_out_ns
        out = [0.0] * len(self.start)
        nested = [0] * len(self.start)
        for i in range(len(out) - 1, -1, -1):  # children start after their parent
            out[i] = self.end[i] - self.start[i] - own - nested[i] * per_nested
            p = self.parent[i]
            if p >= 0:
                nested[p] += nested[i] + 1
        return out

    def _totals(self) -> tuple[Counter, Counter, Counter]:
        """Self ns per layer, inclusive ns per name and calls per layer.

        Self time is a span's corrected inclusive time minus that of its
        children.
        """
        layer = [self.name_layer[k] for k in self.name_id]
        self_ns, incl_ns, calls = Counter(), Counter(), Counter()
        for i, inclusive in enumerate(self._corrected()):
            self_ns[layer[i]] += inclusive
            p = self.parent[i]
            if p >= 0:
                self_ns[layer[p]] -= inclusive
            incl_ns[self.names[self.name_id[i]]] += inclusive
            calls[layer[i]] += 1
        return self_ns, incl_ns, calls

    def _reconstruct_enumerations(self) -> int:
        """Face enumerations run from inside a reconstruct span."""
        enumerate_id = self.ids.get(ENUMERATE)
        inside = [False] * len(self.start)
        count = 0
        for i, nid in enumerate(self.name_id):
            p = self.parent[i]
            outer = p >= 0 and inside[p]
            inside[i] = outer or self.name_layer[nid] == "reconstruct"
            count += outer and nid == enumerate_id
        return count

    def metrics(self) -> dict[str, float]:
        self_ns, incl_ns, calls = self._totals()
        out: dict[str, float] = {}
        for layer in LAYERS:
            # a layer that only passes calls on can read just below zero after the correction
            out[f"{layer}.self_ms"] = max(self_ns[layer], 0) / 1e6
            out[f"{layer}.errors"] = self.errors[layer]
        out["ratlinalg.calls"] = calls["ratlinalg"]
        out["poset.calls"] = calls["poset"]
        out["gkm.enumerate_ms"] = incl_ns[ENUMERATE] / 1e6
        out["cli.parser_ms"] = sum(incl_ns[name] for name in PARSER) / 1e6
        out["reconstruct.enumerations"] = self._reconstruct_enumerations()
        for key in (
            "matroid.flats", "matroid.covers", "matroid.bases", "poset.built_elements",
            "complexes.chains", "complexes.simplices", "gkm.faces", "gkm.validations",
            "reconstruct.survivors", "formats.bytes_in", "formats.bytes_out",
        ):
            out[key] = self.counts[key]
        return out

    def per_job(self, labels: list[str]) -> dict[str, dict[str, list]]:
        """Calls and inclusive ms per (job, span name), corrected as in `_totals`."""
        out: dict[str, dict[str, list]] = {}
        for i, inclusive in enumerate(self._corrected()):
            job = self.job_id[i]
            entry = out.setdefault(labels[job], {}).setdefault(self.names[self.name_id[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += inclusive / 1e6
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.job_id[i]}\n"
                )
