"""Span tracer for the traced run; the untraced run never imports it.

Each span wraps one layer's public function at the name a calling module
reaches it under (the bindings below), so recursion inside a layer goes
unwrapped. A reentrancy guard keeps only the outermost call of a binding;
nested calls are still counted in `.calls`. Spans record name, start, end,
parent and root, stay in memory in flat arrays, and are written out when the
run ends. Each root span is one problem's preprocessing or checking; its
self time is the part of the driver that no layer covers.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TRANSFORMS = ("get_def", "expand", "eliminate_fix", "eliminate_pattern_matching",
              "monomorphize", "interp_alg_types")

# (module, attribute path, layer name, extra per-problem stats). The stats
# `.s` (self time) and `.calls` are reported for every binding.
BINDINGS = (
    ("folbridge.parser", "parse_problem", "parser.parse_problem", ()),
    ("folbridge.parser", "tokenize", "parser.tokenize", ("parser.tokens", "parser.tokens_per_s")),
    ("folbridge.parser", "infer", "parser.infer", ()),
    ("folbridge.transforms", "typecheck", "conversion.typecheck", ()),
    ("folbridge.transforms", "beta_reduce", "conversion.beta_reduce", ()),
    ("folbridge.conversion", "random_truth_check", "conversion.random_truth_check", ()),
    ("folbridge.conversion", "min_term_size", "conversion.min_term_size", ()),
    ("folbridge.transforms", "alpha_eq", "terms.alpha_eq", ()),
    ("folbridge.transforms", "lift", "terms.lift", ()),
    ("folbridge.transforms", "subst", "terms.subst", ()),
    ("folbridge.transforms", "subst_list", "terms.subst_list", ()),
    *(("folbridge.transforms", t, f"transforms.{t}",
       (f"transforms.{t}.hyps", f"transforms.{t}.not_applicable")) for t in TRANSFORMS),
    ("folbridge.transforms", "collect_type_instances", "transforms.collect_type_instances", ()),
    ("folbridge.transforms", "ProofState.has_alpha", "transforms.has_alpha", ("transforms.dedup_dropped",)),
    ("folbridge.printer", "print_term", "printer.print_term", ("printer.chars",)),
)

# Layers that run only while checking outputs; all others are measured
# inside the preprocessing roots.
CHECK_LAYERS = ("conversion.random_truth_check", "conversion.min_term_size")

PREPROCESS, CHECK = "driver.preprocess", "driver.check"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for _module, _attr, layer, extra in BINDINGS:
        names += [f"{layer}.s", f"{layer}.calls", *extra]
    return names + ["driver.s", "trace.preprocess_s", "trace.overhead_frac"]


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans of one thread nest, so the children cover disjoint intervals."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root_of = array("i")
        self.roots: dict[int, tuple[str, int]] = {}   # root span -> (kind, problem id)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._root = -1
        self._kind = ""

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root_of.append(self._root)
        self.end.append(0.0)
        self._stack.append(i)
        self._active.add(name)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, name: str) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active.discard(name)

    def count(self, metric: str, amount: float = 1) -> None:
        self.counts[self._kind, metric] += amount

    @contextmanager
    def root(self, kind: str, problem: int):
        """A root span around one problem's preprocessing or checking."""
        self._root = len(self.name)
        self._kind = kind
        self.roots[self._root] = (kind, problem)
        i = self._open(kind)
        try:
            yield
        finally:
            self._close(i, kind)
            self._root = -1

    def wrap(self, layer: str, fn, on_result=None, not_applicable=None):
        calls = f"{layer}.calls"
        na = f"{layer}.not_applicable"

        def wrapper(*args, **kwargs):
            self.count(calls)
            if layer in self._active:
                return fn(*args, **kwargs)
            i = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if not_applicable is not None and isinstance(e, not_applicable):
                    self.count(na)
                raise
            finally:
                self._close(i, layer)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, problems: int) -> dict[str, float]:
        """Per-problem means: self time and calls of every layer, the extra
        stats, and `driver.s`, the preprocessing time no layer covers."""
        own = self_times(self.parent, self.start, self.end)
        selfs: dict[tuple[str, str], float] = defaultdict(float)
        for i, r in enumerate(self.root_of):
            selfs[self.roots[r][0], self.names[self.name[i]]] += own[i]
        out: dict[str, float] = {}
        for _module, _attr, layer, extra in BINDINGS:
            kind = CHECK if layer in CHECK_LAYERS else PREPROCESS
            out[f"{layer}.s"] = selfs[kind, layer] / problems
            out[f"{layer}.calls"] = self.counts[kind, f"{layer}.calls"] / problems
            for name in extra:
                out[name] = self.counts[kind, name] / problems
        tokenize_s = selfs[PREPROCESS, "parser.tokenize"]
        out["parser.tokens_per_s"] = (self.counts[PREPROCESS, "parser.tokens"] / tokenize_s
                                      if tokenize_s else 0.0)
        out["driver.s"] = selfs[PREPROCESS, PREPROCESS] / problems
        out["trace.preprocess_s"] = sum(
            self.end[r] - self.start[r] for r, (kind, _) in self.roots.items()
            if kind == PREPROCESS) / problems
        return out

    def path_profile(self) -> dict[str, float]:
        """Total inclusive time per call path (`a > b > c`) under the
        preprocessing roots."""
        path_ids: dict[tuple[int, int], int] = {}
        labels: list[str] = []
        totals: list[float] = []
        span_path = array("i")
        for i, p in enumerate(self.parent):
            parent_path = span_path[p] if p >= 0 else -1
            key = (parent_path, self.name[i])
            pid = path_ids.get(key)
            if pid is None:
                pid = path_ids[key] = len(labels)
                name = self.names[self.name[i]]
                labels.append(name if p < 0 else f"{labels[parent_path]} > {name}")
                totals.append(0.0)
            span_path.append(pid)
            totals[pid] += self.end[i] - self.start[i]
        return {label: t for label, t in zip(labels, totals)
                if label.startswith(PREPROCESS)}

    def write(self, path: Path) -> None:
        """A JSON header line, then the raw span arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {"name": self.name, "start": self.start, "end": self.end,
                  "parent": self.parent, "root": self.root_of}
        header = {"names": self.names, "spans": len(self.name),
                  "roots": [[i, kind, problem] for i, (kind, problem) in self.roots.items()],
                  "arrays": [[k, a.typecode] for k, a in arrays.items()]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                a.tofile(f)


def _resolve(module: str, attr_path: str):
    owner = importlib.import_module(module)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding with a tracing wrapper; restore each original
    attribute on exit, also when an error is raised."""
    from folbridge import transforms

    def hooks(layer: str):
        if layer == "parser.tokenize":
            return {"on_result": lambda toks: tracer.count("parser.tokens", len(toks) - 1)}
        if layer == "printer.print_term":
            return {"on_result": lambda s: tracer.count("printer.chars", len(s))}
        if layer.startswith("transforms.") and layer.split(".")[1] in TRANSFORMS:
            hyps = f"{layer}.hyps"
            return {"on_result": lambda out: tracer.count(hyps, len(out) if isinstance(out, list) else 1),
                    "not_applicable": transforms.TransformError}
        return {}

    saved = []
    try:
        for module, attr_path, layer, _extra in BINDINGS:
            owner, attr = _resolve(module, attr_path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original, **hooks(layer)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
