"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with a wrapper at
every module binding (the defining module, every ``from .x import f`` copy in
the other flowmcg modules, and the package namespace), so a call nested
inside ``assemble_mcg`` is attributed to its own layer.  Nothing is wrapped
unless a traced run asks for it, and ``Tracer.enable(False)`` puts the
original bindings back.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
import types

LAYERS = (
    "substitution",
    "numberfield",
    "pf",
    "intlat",
    "coinvariants",
    "asymptotics",
    "automorphisms",
    "flows",
    "mcg",
    "cli",
)

# Scalar helpers called thousands of times per job; a span each would cost
# more than the work they do.
HOT = {
    "numberfield": {"eval_ascending", "poly_from_ascending", "ascending_from_poly"},
    "intlat": {"mat_from", "identity", "transpose", "mat_mul", "mat_vec", "vec_mat", "mat_pow"},
    "substitution": {"incidence_matrix", "abelianization", "cycle_lengths"},
    "mcg": {"algebraic_to_json"},
}

# Public methods that are layer entry points.
METHODS = {
    "substitution": (("Substitution", "language"),),
    "numberfield": (("AlgebraicNumber", "real_roots_of"),),
}


def _matrix_shape(m) -> tuple[int, int]:
    if isinstance(m, (list, tuple)) and m and isinstance(m[0], (list, tuple)):
        return len(m), max(len(row) for row in m)
    return 0, 0


def _max_bits(obj, depth: int = 3) -> int:
    """Largest integer bit length in nested tuples or lists of ints."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return abs(obj).bit_length()
    if depth and isinstance(obj, (list, tuple)):
        return max((_max_bits(x, depth - 1) for x in obj), default=0)
    return 0


def _probe(layer: str, name: str, args, kwargs, result) -> dict | None:
    """Size counters read off one call's arguments and result."""
    if name == "language":
        n = args[1] if len(args) > 1 else kwargs.get("n_max", 0)
        return {"n": n}
    if name == "generate_language":
        n = args[1] if len(args) > 1 else kwargs.get("n_max", 0)
        return {"n": n}
    if name == "block_frequencies":
        return {"blocks": len(result)}
    if name == "search_automorphisms":
        return {"codes": len(result.codes), "elements": len(result.elements)}
    if name == "asymptotic_classes":
        return {"classes": result.count}
    if name == "induce":
        return {"returns": len(result.return_words)}
    if name == "build_coinvariants":
        return {"dimension": result.dimension}
    if layer == "intlat":
        rows, cols = _matrix_shape(args[0]) if args else (0, 0)
        return {"dim": max(rows, cols), "bits": _max_bits(result)}
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [name, layer, start_ns, end_ns, parent, job, error, counters]
        self.spans: list = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.wrapped = 0
        # (owner, attribute, original, wrapper) of every binding replaced
        self.bindings: list[tuple] = []

    def wrap(self, layer: str, name: str, func):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if tracer.job is None:
                return func(*args, **kwargs)
            idx = len(spans)
            span = [name, layer, clock(), 0, stack[-1] if stack else -1, tracer.job, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            span[7] = _probe(layer, name, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer at every binding."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"flowmcg.{layer}")
            if module is None:
                __import__(f"flowmcg.{layer}")
                module = sys.modules[f"flowmcg.{layer}"]
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not name.startswith("_")
                    and value.__module__ == module.__name__
                    and name not in HOT.get(layer, ())
                ):
                    replacements[id(value)] = self.wrap(layer, name, value)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer, meth, raw.__func__))
                else:
                    new = self.wrap(layer, meth, raw)
                self.bindings.append((cls, meth, raw, new))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "flowmcg" or mod_name.startswith("flowmcg.")):
                continue
            for name, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self.bindings.append((module, name, value, new))
        self.wrapped = len(self.bindings)
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers (``on``) or the original functions at every
        binding ``install`` replaced."""
        for owner, name, original, wrapper in self.bindings:
            setattr(owner, name, wrapper if on else original)

    def write(self, path: str) -> None:
        write_spans(self.spans, path)


SPAN_KEYS = ("name", "layer", "start_ns", "end_ns", "parent", "job", "error", "counters")


def write_spans(spans: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(SPAN_KEYS, span)), sort_keys=True) + "\n")


def read_spans(path: str, offset: int, job: int) -> list:
    """Spans of one process, re-indexed to follow ``offset`` earlier spans
    and tagged with ``job``."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            s = json.loads(line)
            parent = s["parent"] + offset if s["parent"] >= 0 else -1
            spans.append([s[k] for k in SPAN_KEYS])
            spans[-1][4] = parent
            spans[-1][5] = job
    return spans


def layer_metrics(spans: list, jobs: int) -> dict:
    """Per-layer metrics of one traced pass: self time, counts and sizes.

    A span's ``parent`` is its caller's index in ``spans`` (-1 at a job's
    top); ``jobs`` is the number of jobs the pass ran.
    """
    child_ns = [0] * len(spans)
    children_names: list[set] = [set() for _ in spans]
    for span in spans:
        parent = span[4]
        if parent >= 0:
            child_ns[parent] += span[3] - span[2]
            children_names[parent].add(span[0])
    self_ms = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    by_name_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    maxima: dict[str, int] = {}
    totals: dict[str, int] = {}
    lang_calls = lang_hits = 0
    for i, (name, layer, start, end, parent, _job, error, counters) in enumerate(spans):
        own = (end - start - child_ns[i]) / 1e6
        self_ms[layer] += own
        key = f"{layer}.{name}"
        by_name_ms[key] = by_name_ms.get(key, 0.0) + own
        calls[key] = calls.get(key, 0) + 1
        if error is not None and error != "Deadline" and (parent < 0 or spans[parent][1] != layer):
            errors[layer] += 1
        if name == "language":
            lang_calls += 1
            if "generate_language" not in children_names[i]:
                lang_hits += 1
        for counter, value in (counters or {}).items():
            maxima[f"{name}.{counter}"] = max(maxima.get(f"{name}.{counter}", 0), value)
            totals[f"{name}.{counter}"] = totals.get(f"{name}.{counter}", 0) + value

    def ms(*keys: str) -> float:
        return sum(by_name_ms.get(k, 0.0) for k in keys)

    out = {
        "substitution.language_ms": ms("substitution.language", "substitution.generate_language"),
        "substitution.language_calls": lang_calls,
        "substitution.language_generations": calls.get("substitution.generate_language", 0),
        "substitution.language_hit_ratio": lang_hits / lang_calls if lang_calls else 0.0,
        "substitution.language_n_max": maxima.get("language.n", 0),
        "numberfield.ms": self_ms["numberfield"],
        "numberfield.factor_calls": calls.get("numberfield.factor_charpoly", 0),
        "pf.pf_data_ms": ms("pf.pf_data"),
        "pf.pf_data_calls_per_job": calls.get("pf.pf_data", 0) / jobs if jobs else 0.0,
        "pf.cr_check_ms": ms("pf.cr_check"),
        "pf.block_frequencies_ms": ms("pf.block_frequencies"),
        "pf.block_frequencies_calls": calls.get("pf.block_frequencies", 0),
        "pf.block_count_max": maxima.get("block_frequencies.blocks", 0),
        "pf.field_kernel_ms": ms("pf.field_kernel"),
        "intlat.ms": self_ms["intlat"],
        "intlat.matrix_dim_max": max(
            (v for k, v in maxima.items() if k.endswith(".dim")), default=0
        ),
        "intlat.entry_bits_max": max(
            (v for k, v in maxima.items() if k.endswith(".bits")), default=0
        ),
        "coinvariants.ms": self_ms["coinvariants"],
        "coinvariants.dimension_max": maxima.get("build_coinvariants.dimension", 0),
        "asymptotics.ms": self_ms["asymptotics"],
        "asymptotics.class_count": totals.get("asymptotic_classes.classes", 0),
        "automorphisms.ms": self_ms["automorphisms"],
        "automorphisms.codes_found": totals.get("search_automorphisms.codes", 0),
        "automorphisms.elements_mod_shift": totals.get("search_automorphisms.elements", 0),
        "flows.ms": self_ms["flows"],
        "flows.induce_calls": calls.get("flows.induce", 0),
        "flows.return_words": totals.get("induce.returns", 0),
        "mcg.ms": self_ms["mcg"],
        "cli.ms": self_ms["cli"],
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
