"""Spans around katoflow's public layer boundaries, and the per-layer metrics.

The tracer patches the attributes callers look up (module functions, and
methods on the state-space and potential classes) from outside ``src/``;
nothing in the program changes.  Spans live in memory and are written out
once the run ends.  A span is a dict with ``id``, ``name``, ``start``,
``end``, ``parent``, ``run``, ``thread`` and ``attrs``.

Private helpers (``_chunk_leaves``, ``_actions_from_leaves``,
``_sphere_walk``) are deliberately not wrapped: their time shows as the self
time of the public span that calls them.
"""

import contextlib
import functools
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records nested spans; each thread keeps its own stack of open spans."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, attrs=None, parent=None):
        """Open a span; ``parent`` defaults to this thread's innermost span.

        Worker threads start with an empty stack, so a span opened there
        names its parent explicitly."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
               "thread": threading.get_ident(), "attrs": dict(attrs or {})}
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a spanned call of the original.

        ``before(arguments)`` and ``after(result)`` return span attributes;
        ``arguments`` maps every parameter name, defaults applied."""
        original = vars(owner)[attr]
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                attrs = before(call.arguments)
            with self.span(name, attrs) as rec:
                result = original(*args, **kwargs)
            if after is not None:
                rec["attrs"].update(after(result))
            return result

        self._patch(owner, attr, original, traced)

    def wrap_map_chunks(self, streams):
        """Span ``streams.map_chunks`` and every chunk it runs, in any thread."""
        original = vars(streams)["map_chunks"]
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            fn = call.arguments["fn"]
            attrs = {"tag": call.arguments["tag"], "workers": call.arguments["workers"]}
            with self.span("streams.map_chunks", attrs) as rec:

                def chunk(rng, size, k):
                    with self.span("streams.chunk", {"size": size}, parent=rec["id"]):
                        return fn(rng, size, k)

                call.arguments["fn"] = chunk
                return original(*call.args, **call.kwargs)

        self._patch(streams, "map_chunks", original, traced)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _rows(pts):
    arr = np.asarray(pts)
    return int(arr.shape[0]) if arr.ndim >= 2 else 1


def _first_argument(arguments):
    """The first parameter after ``self``, whatever a subclass names it."""
    return list(arguments.values())[1]


def _subclasses(cls):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def install(tracer):
    """Wrap every layer boundary of katoflow that the per-layer metrics use."""
    from katoflow import bounds, cli, coupling, paths, spaces, streams
    from katoflow import feynman_kac as fk
    from katoflow import potentials as pot

    tracer.wrap(cli, "run_suite", "cli.suite", before=lambda a: {"suite": a["suite"]})
    tracer.wrap_map_chunks(streams)
    tracer.wrap(
        spaces.StateSpace, "sample_transition_batch", "spaces.transition",
        before=lambda a: {"kind": a["self"].kind, "n": int(a["n"])},
    )
    tracer.wrap(paths, "sample_paths_batch", "paths.sample_paths_batch",
                before=lambda a: {"n": int(a["n"])})
    for cls in sorted(_subclasses(pot.Potential), key=lambda c: c.__qualname__):
        for attr, name in (("__call__", "potentials.eval"),
                           ("singularity_distance", "potentials.singularity_distance")):
            if attr in vars(cls):
                tracer.wrap(cls, attr, name,
                            before=lambda a: {"points": _rows(_first_argument(a))})
    tracer.wrap(pot, "kato_integral", "potentials.kato_integral",
                after=lambda cert: {"method": cert.method})
    tracer.wrap(
        fk, "fk_evaluate", "feynman_kac.fk_evaluate",
        after=lambda est: {
            "paths": int(est.n_paths),
            "leaves": int(est.action_integrator.get("n_leaves", 0)),
            "flagged": bool(est.flags),
        },
    )
    tracer.wrap(fk, "exp_action_moment", "feynman_kac.exp_action_moment")
    tracer.wrap(fk, "duhamel_residual", "feynman_kac.duhamel_residual")
    for attr in ("simulate_reflection_taus", "simulate_reflection_endpoints"):
        tracer.wrap(coupling, attr, "coupling.reflection",
                    before=lambda a: {"runs": int(a["n_runs"])})
    tracer.wrap(bounds, "verify_main_theorem", "bounds.verify_main_theorem",
                after=lambda rep: {"stderr": float(rep.stderr)})
    tracer.wrap(bounds, "measured_holder_quotient_mc",
                "bounds.measured_holder_quotient_mc")
    for attr in ("heat_semigroup_1d", "sphere_semigroup_zonal"):
        tracer.wrap(bounds, attr, "bounds.quadrature")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def duration(span):
    return span["end"] - span["start"]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(span, children):
    """Duration minus the part of it that the children's spans cover.

    Children from several worker threads may overlap; the union counts once."""
    clipped = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
               for c in children]
    return duration(span) - covered([iv for iv in clipped if iv[1] > iv[0]])


def latency_pmax(values):
    """The highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the maximum stands in."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


class SpanIndex:
    def __init__(self, spans):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            self.children[s["parent"]].append(s)

    def parent(self, span):
        return self.by_id.get(span["parent"])

    def outermost(self, name):
        """Spans of ``name`` not nested directly in another span of ``name``
        (a scaled or negated potential calls its base potential)."""
        out = []
        for s in self.by_name[name]:
            p = self.parent(s)
            if p is None or p["name"] != name:
                out.append(s)
        return out


def layer_metrics(spans, suites):
    """Per-layer metrics (names as in BENCHMARK.json) from one run's spans.

    ``busy_s`` sums span durations, so two worker threads in one layer count
    twice: it is thread time spent in the layer, not wall time."""
    ix = SpanIndex(spans)

    def busy(name, where=lambda s: True):
        return sum(duration(s) for s in ix.outermost(name) if where(s))

    def total(name, key, where=lambda s: True):
        return sum(s["attrs"].get(key, 0) for s in ix.outermost(name) if where(s))

    m = {}
    for suite in suites:
        m[f"cli.suite.{suite}.wall_s"] = busy("cli.suite", lambda s: s["attrs"]["suite"] == suite)

    maps = ix.by_name["streams.map_chunks"]
    chunks = ix.by_name["streams.chunk"]
    capacity = sum(duration(s) * max(1, s["attrs"]["workers"]) for s in maps)
    m["streams.chunks"] = len(chunks)
    m["streams.single_chunk_ratio"] = (
        sum(len(ix.children[s["id"]]) == 1 for s in maps) / len(maps) if maps else 0.0
    )
    m["streams.worker_idle_ratio"] = (
        1.0 - sum(duration(c) for c in chunks) / capacity if capacity > 0 else 0.0
    )

    def sphere(s):
        return s["attrs"]["kind"] == "sphere2"

    m["spaces.sphere.transitions"] = total("spaces.transition", "n", sphere)
    m["spaces.sphere.busy_s"] = busy("spaces.transition", sphere)
    m["spaces.sphere.transitions_per_s"] = (
        m["spaces.sphere.transitions"] / m["spaces.sphere.busy_s"]
        if m["spaces.sphere.busy_s"] > 0 else 0.0
    )
    m["spaces.euclidean.busy_s"] = busy("spaces.transition", lambda s: not sphere(s))
    m["paths.sample_paths_batch.paths"] = total("paths.sample_paths_batch", "n")
    m["paths.sample_paths_batch.busy_s"] = busy("paths.sample_paths_batch")
    for name in ("potentials.eval", "potentials.singularity_distance"):
        m[f"{name}.points"] = total(name, "points")
        m[f"{name}.busy_s"] = busy(name)
    for method in ("closed_form", "quadrature", "monte_carlo"):
        def by_method(s, method=method):
            return s["attrs"].get("method") == method
        m[f"potentials.kato_integral.{method}.calls"] = sum(
            by_method(s) for s in ix.by_name["potentials.kato_integral"])
        m[f"potentials.kato_integral.{method}.busy_s"] = busy(
            "potentials.kato_integral", by_method)

    fk_calls = ix.outermost("feynman_kac.fk_evaluate")
    latencies = [duration(s) for s in fk_calls]
    paths = sum(s["attrs"].get("paths", 0) for s in fk_calls)
    leaves = sum(s["attrs"].get("leaves", 0) for s in fk_calls)
    m["feynman_kac.fk_evaluate.calls"] = len(fk_calls)
    m["feynman_kac.fk_evaluate.paths"] = paths
    m["feynman_kac.fk_evaluate.busy_s"] = sum(latencies)
    m["feynman_kac.fk_evaluate.latency_p50_s"] = (
        statistics.median(latencies) if latencies else 0.0)
    m["feynman_kac.fk_evaluate.latency_pmax_s"] = latency_pmax(latencies)
    m["feynman_kac.engine.self_s"] = sum(
        fk_engine_self_time(chunk, ix) for chunk in chunks
        if _grandparent_is(ix, chunk, "feynman_kac.fk_evaluate")
    )
    m["feynman_kac.leaves"] = leaves
    m["feynman_kac.leaves_per_path"] = leaves / paths if paths else 0.0
    m["feynman_kac.flagged_ratio"] = (
        sum(s["attrs"].get("flagged", False) for s in fk_calls) / len(fk_calls) if fk_calls else 0.0
    )
    m["feynman_kac.exp_action_moment.busy_s"] = busy("feynman_kac.exp_action_moment")
    m["feynman_kac.duhamel_residual.busy_s"] = busy("feynman_kac.duhamel_residual")
    m["coupling.reflection.runs"] = total("coupling.reflection", "runs")
    m["coupling.reflection.busy_s"] = busy("coupling.reflection")
    m["bounds.verify_main_theorem.busy_s"] = busy("bounds.verify_main_theorem")
    m["bounds.verify_main_theorem.stderr"] = max(
        (s["attrs"].get("stderr", 0.0) for s in ix.by_name["bounds.verify_main_theorem"]),
        default=0.0,
    )
    m["bounds.measured_holder_quotient_mc.busy_s"] = busy(
        "bounds.measured_holder_quotient_mc")
    m["bounds.quadrature.busy_s"] = busy("bounds.quadrature")
    return m


def _grandparent_is(ix, span, name):
    parent = ix.parent(span)
    grand = ix.parent(parent) if parent is not None else None
    return grand is not None and grand["name"] == name


def fk_engine_self_time(chunk, ix):
    """A Feynman-Kac chunk's time outside potential evaluation: path draws,
    bridge refinement and the cap-ladder reduction."""
    kids = [c for c in ix.children[chunk["id"]] if c["name"].startswith("potentials.")]
    return self_time(chunk, kids)
