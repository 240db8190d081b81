"""The traced run: spans and counters recorded from outside the library.

Public functions are wrapped where callers look them up: a name that
``classify`` imported from ``onefact`` is patched in ``classify`` as well as
in ``onefact``.  Coarse calls record spans in memory (duration, and self time
net of nested spans); hot operations only bump a counter.  The field and
plane ns/op figures are timed on seeded operand batches after the traced
work, with every wrapper removed.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric and
workload it is expected to move.  A patch site that a later version of the
library no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import random
import time

# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("onefact.enumerate.s", "s", "lower", "wall_s on enumerate-k8 (about all of it)"),
    ("onefact.enumerate.classes", "count", "higher", "wall_s on enumerate-k8"),
    ("onefact.closure.s", "s", "lower", "wall_s on classify-q16"),
    ("onefact.closure.calls", "count", "lower", "wall_s on classify-q16"),
    ("onefact.closure.rounds", "count", "lower", "wall_s on classify-q16"),
    ("onefact.closure.family", "count", "lower", "wall_s on classify-q16"),
    ("onefact.embed.s", "s", "lower", "wall_s on classify-q16"),
    ("onefact.embed.calls", "count", "lower", "wall_s on classify-q16"),
    ("onefact.embed.embeddings", "count", "higher", "wall_s on classify-q16"),
    ("onefact.embed.exhausted_ratio", "ratio", "higher", "wall_s on classify-q16"),
    ("blocking.canonical.s", "s", "lower", "wall_s on classify-q16 (most of it)"),
    ("blocking.canonical.calls", "count", "lower", "wall_s on classify-q16"),
    ("blocking.canonical.cache_hit_ratio", "ratio", "higher", "wall_s on classify-q16"),
    ("blocking.exact_cover.s", "s", "lower", "wall_s on arcs-sweep"),
    ("blocking.exact_cover.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("blocking.exact_cover.solutions", "count", "higher", "wall_s on arcs-sweep"),
    ("blocking.ghf.s", "s", "lower", "wall_s on classify-q16"),
    ("arcs.subgroups.s", "s", "lower", "wall_s on arcs-sweep"),
    ("arcs.subgroups.yielded", "count", "higher", "wall_s on arcs-sweep"),
    ("arcs.sample.accept_ratio", "ratio", "higher", "wall_s on arcs-sweep"),
    ("arcs.translation_arc.s", "s", "lower", "wall_s on arcs-sweep"),
    ("arcs.translation_arc.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("arcs.hyperfocus.s", "s", "lower", "wall_s on arcs-sweep"),
    ("arcs.hyperfocus.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("arcs.completion.s", "s", "lower", "wall_s on arcs-sweep"),
    ("projplane.line_through.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("projplane.meet.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("projplane.incident.calls", "count", "lower", "wall_s on arcs-sweep"),
    ("projplane.line_through.ns.q16", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("projplane.line_through.ns.q1024", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("projplane.meet.ns.q16", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("projplane.meet.ns.q1024", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("gf2.mul.calls", "count", "lower", "wall_s on classify-q16"),
    ("gf2.inv.calls", "count", "lower", "wall_s on classify-q16"),
    ("gf2.mul.ns.r4", "ns/op", "lower", "wall_s on classify-q16"),
    ("gf2.mul.ns.r8", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("gf2.mul.ns.r10", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("gf2.mul.ns.r16", "ns/op", "lower", "peak_rss_mib and setup_s once tables cover r = 16"),
    ("gf2.inv.ns.r4", "ns/op", "lower", "wall_s on classify-q16"),
    ("gf2.inv.ns.r10", "ns/op", "lower", "wall_s on arcs-sweep"),
    ("gf2.inv.ns.r16", "ns/op", "lower", "peak_rss_mib and setup_s once tables cover r = 16"),
    ("classify.self.s", "s", "lower", "wall_s on classify-q16"),
    ("cli.dispatch.self_s", "s", "lower", "wall_s on arcs-sweep"),
    ("trace.wall_s", "s", "lower", "none: raw wall time of a traced unit, the base of the shares above"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced median wall time, rescaled"),
]

# span name -> the (module, attribute) sites where callers look it up
SPAN_SITES = {
    "onefact.enumerate": [("onefact", "enumerate_factorizations"),
                          ("classify", "enumerate_factorizations"),
                          ("cli", "enumerate_factorizations")],
    "onefact.closure": [("onefact", "closure"), ("classify", "closure")],
    "onefact.embed": [("onefact", "embed_search"), ("classify", "embed_search"),
                      ("cli", "embed_search")],
    "blocking.canonical": [("blocking", "arc_canonical_form"),
                           ("classify", "arc_canonical_form")],
    "blocking.exact_cover": [("blocking", "min_blocking_sets"),
                             ("cli", "min_blocking_sets")],
    "blocking.ghf": [("blocking", "ghf_eight"), ("classify", "ghf_eight"),
                     ("cli", "ghf_eight")],
    "arcs.translation_arc": [("arcs", "translation_arc"), ("blocking", "translation_arc")],
    "arcs.hyperfocus": [("arcs", "is_hyperfocused_line")],
    "arcs.completion": [("arcs", "build_complete_translation_arc"),
                        ("cli", "build_complete_translation_arc")],
    "classify": [("classify", "classify_ghf"), ("cli", "classify_ghf")],
    "cli.dispatch": [("cli", "dispatch")],
}

# counter name -> (module, owner attribute or None, function attribute)
COUNT_SITES = {
    "gf2.mul.calls": ("gf2", "FieldSpec", "mul"),
    "gf2.inv.calls": ("gf2", "FieldSpec", "inv"),
    "projplane.line_through.calls": ("projplane", None, "line_through"),
    "projplane.meet.calls": ("projplane", None, "meet"),
    "projplane.incident.calls": ("projplane", None, "incident"),
}

# what a span adds to its counters from the call's result
RESULT_COUNTS = {
    "onefact.enumerate": lambda res: {"classes": len(res)},
    "onefact.closure": lambda res: {"rounds": res.depth, "family": len(res.family)},
    "onefact.embed": lambda res: {"embeddings": len(res[0]), "exhausted": int(res[1])},
    "blocking.exact_cover": lambda res: {"solutions": len(res)},
}


def _module(name: str):
    return importlib.import_module(f"hyperarcs.{name}")


class Tracer:
    """Installs the wrappers, records into memory, and restores on uninstall."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, list[int]] = {}  # name -> [count]
        self._stack: list[list[float]] = []  # [start, seconds covered by children]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        extract = RESULT_COUNTS.get(name)
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                took = time.perf_counter() - frame[0]
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if extract is not None:
                for key, value in extract(result).items():
                    counts.setdefault(f"{name}.{key}", [0])[0] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _subgroups(self, fn):
        """Time spent inside next() of the enumerate_arc_subgroups generator."""
        totals = self.spans.setdefault("arcs.subgroups", [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    totals[1] += time.perf_counter() - start
                    return
                totals[1] += time.perf_counter() - start
                totals[0] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        cell = [0]
        self.counts[name] = cell

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self) -> None:
        for name, sites in SPAN_SITES.items():
            for mod, attr in sites:
                self._patch(_module(mod), attr, lambda fn, name=name: self._span(name, fn))
        self._patch(_module("arcs"), "enumerate_arc_subgroups", self._subgroups)
        for name, (mod, owner_name, attr) in COUNT_SITES.items():
            owner = _module(mod)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self._patch(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, stats: dict) -> dict[str, float]:
        """Every per-layer metric this unit can give; missing layers read 0.
        Call after uninstall, when the library's own functions are back."""
        out = {name: 0 for name, *_ in LAYER_METRICS if not name.startswith("trace.")}

        def span(name):
            return self.spans.get(name, [0, 0.0, 0.0])

        def count(name):
            return self.counts.get(name, [0])[0]

        for name in ("onefact.enumerate", "onefact.closure", "onefact.embed",
                     "blocking.canonical", "blocking.exact_cover", "blocking.ghf",
                     "arcs.subgroups", "arcs.translation_arc", "arcs.hyperfocus",
                     "arcs.completion"):
            calls, secs, _ = span(name)
            out[f"{name}.s"] = secs
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = calls
        out["arcs.subgroups.yielded"] = span("arcs.subgroups")[0]
        out["onefact.enumerate.classes"] = count("onefact.enumerate.classes")
        out["onefact.closure.rounds"] = count("onefact.closure.rounds")
        out["onefact.closure.family"] = count("onefact.closure.family")
        out["onefact.embed.embeddings"] = count("onefact.embed.embeddings")
        embeds = span("onefact.embed")[0]
        if embeds:
            out["onefact.embed.exhausted_ratio"] = count("onefact.embed.exhausted") / embeds
        out["blocking.exact_cover.solutions"] = count("blocking.exact_cover.solutions")
        info = getattr(getattr(_module("blocking"), "arc_canonical_form", None), "cache_info", None)
        if info is not None:
            ci = info()
            if ci.hits + ci.misses:
                out["blocking.canonical.cache_hit_ratio"] = ci.hits / (ci.hits + ci.misses)
        if stats.get("sample_attempted"):
            out["arcs.sample.accept_ratio"] = stats["sample_accepted"] / stats["sample_attempted"]
        for name in COUNT_SITES:
            out[name] = count(name)
        out["classify.self.s"] = span("classify")[2]
        out["cli.dispatch.self_s"] = span("cli.dispatch")[2]
        return out


# ---------------------------------------------------------------------------
# ns/op on seeded operand batches, through the checked public operations


def _per_op_ns(op, batch) -> float:
    start = time.perf_counter_ns()
    for args in batch:
        op(*args)
    return (time.perf_counter_ns() - start) / len(batch)


def micro_metrics(rng: random.Random) -> dict[str, float]:
    from hyperarcs import projplane as pp
    from hyperarcs.gf2 import field_make

    out = {}
    for r, n_mul, n_inv in ((4, 20000, 20000), (8, 20000, 0), (10, 4000, 300),
                           (16, 4000, 150)):
        spec = field_make(r)
        spec.mul(1, 1)  # build any lazy tables before timing
        spec.inv(1)
        pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(n_mul)]
        out[f"gf2.mul.ns.r{r}"] = _per_op_ns(spec.mul, pairs)
        if n_inv:
            singles = [(rng.randrange(1, spec.q),) for _ in range(n_inv)]
            out[f"gf2.inv.ns.r{r}"] = _per_op_ns(spec.inv, singles)
    for r, n in ((4, 5000), (10, 300)):
        spec = field_make(r)
        # affine triples (a, b, 1) read both as points and as lines
        pairs = []
        while len(pairs) < n:
            p = (rng.randrange(spec.q), rng.randrange(spec.q), 1)
            q = (rng.randrange(spec.q), rng.randrange(spec.q), 1)
            if p != q:
                pairs.append((spec, p, q))
        pp.line_through(*pairs[0])
        out[f"projplane.line_through.ns.q{spec.q}"] = _per_op_ns(pp.line_through, pairs)
        out[f"projplane.meet.ns.q{spec.q}"] = _per_op_ns(pp.meet, pairs)
    return out
