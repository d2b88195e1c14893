"""Spans around calls into go_metric_lab, installed from outside the package.

A `Tracer` replaces public functions of the package's modules with timing
wrappers for the length of a `with tracer.installed():` block and puts the
original objects back afterwards.  Every alias of a wrapped function across
the package's modules is replaced, so a call made through any module
attribute is seen.  With one worker process that is every internal call.

Stage functions get one span per call: [id, name, start, end, parent id,
child time].  Hot leaf functions (called up to hundreds of thousands of
times per pass) are not given spans of their own; their calls and time are
added to the enclosing span's `hot` table, and their time counts as child
time of that span so self times stay exact.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

PKG = "go_metric_lab"

# (module, attribute path, reported name)
STAGES: List[Tuple[str, str, str]] = [
    ("lie_core", "build_un", "lie_core.build_un"),
    ("decomp", "reductive_split", "decomp.reductive_split"),
    ("isotropy", "isotropy_action", "isotropy.isotropy_action"),
    ("isotropy", "decompose_isotypic", "isotropy.decompose_isotypic"),
    ("isotropy", "split_ideals", "isotropy.split_ideals"),
    ("stiefel", "build_stiefel", "stiefel.build_stiefel"),
    ("stiefel", "verify_family", "stiefel.verify_family"),
    ("stiefel", "check_witness_identities", "stiefel.check_witness_identities"),
    ("stiefel", "uniqueness_scan", "stiefel.uniqueness_scan"),
    ("stiefel", "reproduce_report", "stiefel.reproduce_report"),
    ("metric", "full_family", "metric.full_family"),
    ("go", "reduce_family", "go.reduce_family"),
    ("go", "search_go", "go.search_go"),
    ("go", "go_check", "go.go_check"),
    ("go", "go_solve_at", "go.go_solve_at"),
    ("go", "go_residual_sq", "go.go_residual_sq"),
]

HOT: List[Tuple[str, str, str]] = [
    ("lie_core", "bracket", "lie_core.bracket"),
    ("decomp", "ReductiveSplit.coords_in_m", "decomp.coords_in_m"),
    ("linalg", "least_squares", "linalg.least_squares"),
    ("linalg", "sym_positive_definite", "linalg.sym_positive_definite"),
]

# span fields
ID, NAME, START, END, PARENT, CHILD, HOTS = range(7)


def _span_name(name: str, args, kwargs) -> str:
    """search_go is split by what it scans: the grid or off-diagonal samples."""
    if name == "go.search_go":
        grid = kwargs.get("include_grid", args[3] if len(args) > 3 else True)
        return "go.search_go.grid" if grid else "go.search_go.offdiag"
    return name


def _resolve(module: str, path: str):
    """(owner object, attribute name) for `module.path` inside the package."""
    owner = sys.modules[f"{PKG}.{module}"]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _aliases(owner, attr: str) -> List[Tuple[object, str]]:
    """Every (module, name) in the package bound to the same object."""
    target = getattr(owner, attr)
    found = [(owner, attr)]
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PKG or modname.startswith(PKG + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is target and (mod, name) != (owner, attr):
                found.append((mod, name))
    return found


class Tracer:
    """In-memory spans for one process; install, run, remove, then read."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._hot_depth = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), 0.0, parent, 0.0, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += span[END] - span[START]

    @contextmanager
    def span(self, name: str):
        """A root or intermediate span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _stage_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(_span_name(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self._hot_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._hot_depth -= 1
                if self._stack:
                    top = self._stack[-1]
                    entry = top[HOTS].setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur
                    if self._hot_depth == 0:
                        # a nested hot call is already inside this interval
                        top[CHILD] += dur
        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self, stages=STAGES, hot=HOT):
        """Wrap the listed attributes; restore the original objects on exit."""
        try:
            for targets, make in ((stages, self._stage_wrapper),
                                  (hot, self._hot_wrapper)):
                for module, path, name in targets:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                    wrapper = make(name, original)
                    for holder, alias in _aliases(owner, attr):
                        self._saved.append((holder, alias, original))
                        setattr(holder, alias, wrapper)
            yield self
        finally:
            while self._saved:
                holder, alias, original = self._saved.pop()
                setattr(holder, alias, original)


# ---------------------------------------------------------------------------
# reading the spans
# ---------------------------------------------------------------------------

def subtree(spans: List[list], root: list) -> List[list]:
    """The root and every span opened while it was open (one thread)."""
    out = [root]
    for span in spans[root[ID] + 1:]:
        if span[START] > root[END]:
            break
        out.append(span)
    return out


def totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per name: calls, inclusive seconds and self seconds.

    Hot functions get calls and seconds from the span tables they were
    added to; their self time is taken as their time (none of them calls
    another).
    """
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        dur = span[END] - span[START]
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - span[CHILD]
        for name, (calls, secs) in span[HOTS].items():
            hot = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            hot["calls"] += calls
            hot["s"] += secs
            hot["self_s"] += secs
    return out


def to_json(spans: List[list]) -> List[dict]:
    return [{"id": s[ID], "name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "self_s": (s[END] - s[START]) - s[CHILD],
             "hot": {k: {"calls": v[0], "s": v[1]} for k, v in s[HOTS].items()}}
            for s in spans]
