"""Span and call-count tracing of polartree from outside the package.

The tracer replaces public entry points at the module names through which
the pipeline calls them (``pipeline.expand_roots``, ``jacoracle.jacobian``,
...) with wrappers that record a span, and wraps a few arithmetic methods
with plain call counters.  ``uninstall`` puts every original back, so no
program file and no later untraced pass is affected.

A span is ``[name, start, end, parent_index, error_type_or_None]``; spans
stay in memory and are summarised after the pass.  The benchmark opens one
root span per pair, named by the pair id; every other span nests in one.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (module, attribute, span name): the call sites the pipeline uses.
# None of these functions calls itself, so a span never nests in a span of
# the same name and inclusive times can simply be summed.
SPAN_SITES = (
    ("pipeline", "parse_expression", "parsing.parse_expression"),
    ("pipeline", "analyze_polys", "pipeline.attempt"),
    ("pipeline", "expand_roots", "npsolve.expand_germs"),
    ("jacoracle", "expand_roots", "npsolve.expand_jacobian"),
    ("npsolve", "multiplicity_split", "npsolve.multiplicity_split"),
    ("pipeline", "build_tree", "treemodel.build_tree"),
    ("pipeline", "analyze_all", "baranalysis.analyze_all"),
    ("pipeline", "polar_roots", "jacoracle.polar_roots"),
    ("jacoracle", "jacobian", "jacoracle.jacobian"),
    ("pipeline", "verify", "jacoracle.verify"),
    ("jacoracle", "order_along_arc", "puiseux.order_along_arc"),
    ("pipeline", "conjugacy_classes", "treemodel.conjugacy_classes"),
    ("pipeline", "group_factors", "factorrep.group_factors"),
    ("pipeline", "intersection_mults", "factorrep.intersection_mults"),
    ("pipeline", "run_document", "pipeline.run_document"),
)

# (module, class, methods, counter name): operation counts, not times.
COUNT_SITES = (
    ("exactalg", "CycloRational", ("__add__", "__radd__"), "exactalg.CycloRational.add.calls"),
    ("exactalg", "CycloRational", ("inverse",), "exactalg.CycloRational.inverse.calls"),
    ("exactalg", "BiPoly", ("__mul__",), "exactalg.BiPoly.mul.calls"),
    ("exactalg", "UniPoly", ("__divmod__",), "exactalg.UniPoly.divmod.calls"),
    ("puiseux", "PuiseuxSeries", ("__mul__",), "puiseux.PuiseuxSeries.mul.calls"),
)
CYCLO_MUL = "exactalg.CycloRational.mul.calls"
CYCLO_MUL_RATIONAL = "exactalg.CycloRational.mul.rational"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = self._enter(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            rec[4] = type(e).__name__
            raise
        finally:
            self._exit(rec)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_cyclo_mul(self, fn, cyclo_type):
        counts = self.counts

        def wrapper(a, b):
            counts[CYCLO_MUL] += 1
            if (type(b) is not cyclo_type or not any(b.coords[1:])
                    or not any(a.coords[1:])):
                counts[CYCLO_MUL_RATIONAL] += 1
            return fn(a, b)
        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = {name: getattr(self.package, name) for name in
                   ("pipeline", "jacoracle", "npsolve", "exactalg", "puiseux")}
        try:
            for mod, attr, name in SPAN_SITES:
                owner = modules[mod]
                self._patch(owner, attr, self._spanned(name, owner.__dict__[attr]))
            for mod, cls_name, methods, name in COUNT_SITES:
                cls = getattr(modules[mod], cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._counted(name, cls.__dict__[meth]))
            cyclo = modules["exactalg"].CycloRational
            for meth in ("__mul__", "__rmul__"):
                self._patch(cyclo, meth,
                            self._counted_cyclo_mul(cyclo.__dict__[meth], cyclo))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _duration(rec) -> float:
    return rec[2] - rec[1]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [_duration(r) for r in spans]
    for r in spans:
        if r[3] is not None:
            out[r[3]] -= _duration(r)
    return out


def restart_waste(spans) -> float:
    """Time of pipeline attempts that ended in a field restart, with the
    parsing done for them: the work a restart throws away."""
    waste = 0.0
    pending = 0.0
    for r in spans:
        if r[3] is None or spans[r[3]][3] is not None:
            continue  # only the direct children of a pair span
        if r[0] == "parsing.parse_expression":
            pending += _duration(r)
        elif r[0] == "pipeline.attempt":
            if r[4] == "NeedsLargerField":
                waste += pending + _duration(r)
            pending = 0.0
    return waste


def summarise(spans, counts) -> dict[str, float]:
    """Per-layer values of one traced pass (or several, summed)."""
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    raised: Counter = Counter()
    for r, s in zip(spans, selfs):
        total[r[0]] += _duration(r)
        own[r[0]] += s
        calls[r[0]] += 1
        if r[4] is not None:
            raised[r[0]] += 1
    out: dict[str, float] = {}
    for _mod, _attr, name in SPAN_SITES:
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.calls"] = calls[name]
    out["npsolve.expand_roots.raised"] = (raised["npsolve.expand_germs"]
                                          + raised["npsolve.expand_jacobian"])
    attempts = calls["pipeline.attempt"]
    restarts = sum(1 for r in spans
                   if r[0] == "pipeline.attempt" and r[4] == "NeedsLargerField")
    out["pipeline.attempts"] = attempts
    out["pipeline.restarts"] = restarts
    out["pipeline.restart_waste_s"] = restart_waste(spans)
    out["pipeline.useful_attempt_ratio"] = (
        (attempts - raised["pipeline.attempt"]) / attempts if attempts else 1.0)
    for _m, _c, _meths, name in COUNT_SITES:
        out[name] = counts[name]
    out[CYCLO_MUL] = counts[CYCLO_MUL]
    out["exactalg.CycloRational.mul.rational_share"] = (
        counts[CYCLO_MUL_RATIONAL] / counts[CYCLO_MUL] if counts[CYCLO_MUL] else 0.0)
    return out


# layers shown per pair: span name -> row column
_ROW_COLUMNS = {
    "npsolve.multiplicity_split": "multiplicity_split",
    "npsolve.expand_jacobian": "expand_jacobian",
    "jacoracle.verify": "verify",
}


def per_pair_rows(spans) -> dict[str, dict[str, float]]:
    """For each pair id, summed over its spans: its time, the time in a few
    telling layers, and its number of Jacobian computations."""
    rows: dict[str, dict[str, float]] = {}
    pair_of: dict[int, str] = {}
    for i, r in enumerate(spans):
        if r[3] is None:
            pair_of[i] = r[0]
            row = rows.setdefault(r[0], {"total": 0.0, "jacobian_calls": 0,
                                         **{c: 0.0 for c in _ROW_COLUMNS.values()}})
            row["total"] += _duration(r)
            continue
        pair_of[i] = pair_of[r[3]]
        row = rows[pair_of[i]]
        if r[0] in _ROW_COLUMNS:
            row[_ROW_COLUMNS[r[0]]] += _duration(r)
        elif r[0] == "jacoracle.jacobian":
            row["jacobian_calls"] += 1
    return rows
