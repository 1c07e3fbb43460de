"""Spans around udspin's public functions, installed from outside the program.

Tracer.install replaces every public function of the traced modules, in
every udspin module namespace that refers to it, with a wrapper that
records a span (name, start, end, parent) in memory; uninstall puts the
originals back.  SymmetricBasis construction is wrapped through its
__init__.  Nothing under src/ is edited: the program runs unchanged,
only its module attributes are swapped while tracing is on.

task_metrics and process_metrics derive the per-layer figures from the
spans.  A layer's time is the total of its outermost spans, so a call
nested in another call of the same layer counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

TRACED_MODULES = ("basis", "lmg", "states", "rdm", "squeezing", "sweep", "cli")

RDM_FUNCTIONS = frozenset(
    {
        "rdm.level_populations",
        "rdm.one_qudit_rdm_from_tables",
        "rdm.two_qudit_rdm_from_tables",
        "rdm.entropies",
        "rdm.spectrum_entropies",
    }
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "n")

    def __init__(self, name, parent, n):
        self.name, self.parent, self.n = name, parent, n
        self.start = self.end = 0.0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def _particles(args):
    """N of the call, when its first argument carries it (params or basis)."""
    return getattr(args[0], "n_particles", None) if args else None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, _particles(args))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"udspin.{m}") for m in TRACED_MODULES}
        namespaces = [importlib.import_module("udspin"), *modules.values()]
        namespaces.append(importlib.import_module("udspin.selftest"))
        for short, module in modules.items():
            for attr in module.__all__:
                original = getattr(module, attr)
                if getattr(original, "__module__", None) != module.__name__ or isinstance(original, type):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self._undo.append((ns, key, original))
        cls = modules["basis"].SymmetricBasis
        original_init = cls.__init__
        cls.__init__ = self._wrap("basis.SymmetricBasis", original_init)
        self._undo.append((cls, "__init__", original_init))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _ancestors(spans, k):
    parent = spans[k].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def _outermost(spans, members, start, stop):
    """Spans in spans[start:stop] named in members with no such ancestor."""
    return [
        spans[k]
        for k in range(start, stop)
        if spans[k].name in members
        and not any(spans[p].name in members for p in _ancestors(spans, k))
    ]


def _total(found) -> float:
    return sum((span.end - span.start for span in found), 0.0)


def even_sector_dim(n: int) -> int:
    """Number of occupations (n1, n2, n3) of N with n2 and n3 even.

    Solves are classified by this size: the sweeps diagonalize in the
    even sector only.
    """
    half = n // 2
    return (half + 1) * (half + 2) // 2


def task_metrics(spans, start: int, stop: int, duration: float, dense_limit: int) -> dict:
    """Per-layer figures of one traced task, whose spans are spans[start:stop]."""
    solves = _outermost(spans, {"lmg.ground_state"}, start, stop)
    dims = [even_sector_dim(span.n) for span in solves]
    writes = _outermost(spans, {"sweep.write_records", "sweep.write_surface"}, start, stop)
    surface_in_writes = _outermost(spans, {"sweep.surface_table"}, start, stop)
    below_sweep = [
        span
        for k, span in enumerate(spans[start:stop], start)
        if _module(span.name) != "sweep"
        and all(_module(spans[p].name) == "sweep" for p in _ancestors(spans, k))
    ]
    moments = _outermost(spans, {"basis.expval_tables"}, start, stop)
    dcats = _outermost(spans, {"states.dcat"}, start, stop)
    rdms = _outermost(spans, RDM_FUNCTIONS, start, stop)
    return {
        "basis.moments_s": _total(moments),
        "basis.moments_calls": len(moments),
        "lmg.solve_s": _total(solves),
        "lmg.solve_calls": len(solves),
        "lmg.sector_dim": max(dims, default=0),
        "lmg.dense_solves": sum(d <= dense_limit for d in dims),
        "lmg.lanczos_solves": sum(d > dense_limit for d in dims),
        "lmg.variational_s": _total(
            _outermost(spans, {"lmg.variational_cat", "lmg.variational_energy"}, start, stop)
        ),
        "states.dcat_s": _total(dcats),
        "states.dcat_calls": len(dcats),
        "rdm.entropy_s": _total(rdms),
        "rdm.calls": len(rdms),
        "squeezing.report_s": _total(
            _outermost(spans, {"squeezing.squeezing_report_from_tables"}, start, stop)
        ),
        "sweep.write_s": _total(writes) - _total(surface_in_writes),
        "sweep.self_s": duration - _total(below_sweep),
    }


def process_metrics(spans) -> dict:
    """Figures over the whole traced process: basis builds and the first solve."""
    builds = _outermost(spans, {"basis.SymmetricBasis"}, 0, len(spans))
    solves = _outermost(spans, {"lmg.ground_state"}, 0, len(spans))
    return {
        "basis.build_s": _total(builds),
        "basis.builds": len(builds),
        "lmg.first_solve_s": _total(solves[:1]),
    }
