"""Outside-in tracer: records a span around each call to chosen jkvkit
functions without changing any code under src/.

jkvkit modules import functions by name (``from .lp import solve_lp``), so
patching only the defining module would let those calls slip past.  The
tracer replaces every attribute of every loaded jkvkit module that *is* the
original function; function-local imports in the CLI then resolve to the
wrapper too.  ``uninstall`` puts every original back.

A span is (name, start, end, parent, request).  Spans stay in memory in flat
arrays and are written out by ``write``.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# Layer -> functions that get a span.  Left out on purpose: intlinalg.pairing,
# torus.limit and Fraction arithmetic, which run hundreds of thousands of
# sub-microsecond calls per run; a wrapper would cost more than the call, so
# their time lands in the caller's self time.
TARGETS = {
    "lp": ("solve_lp", "_pivot"),
    "polytope": ("origin_in_relint", "minimal_face_origin", "find_functional"),
    "torus": (
        "limit_survey",
        "jkv_decompose",
        "jkv_certify",
        "is_nilpotent",
        "same_orbit",
        "solve_multiplicative",
        "act",
        "lambda_min",
    ),
    "gln": (
        "limit_conj",
        "rational_conjugacy",
        "invariant_factors",
        "commutant_basis",
        "jordan_chevalley",
        "jkv_gln",
        "minpoly",
    ),
    "ratlinalg": ("qmul", "qinverse", "qdet", "kernel_basis"),
    "polys": ("poly_divmod", "rational_roots"),
    "intlinalg": ("solve_integer", "smith_normal_form", "solve_gf2"),
    "rationals": ("factorize_fraction",),
    "serialize": (
        "read_json",
        "load_torus_problem",
        "load_gln_matrix",
        "load_gln_pair",
        "vector_to_json",
        "matrix_to_json",
    ),
    "cli": ("main",),
    "suites": ("run_suite",),
    "oracles": (
        "sample_torus_instance",
        "sample_weight_set",
        "sample_rational_spectrum_matrix",
        "sample_gln_cocharacter",
        "oracle_relint",
    ),
}

REQUEST_SPAN = "request"


def span_name(module: str, func: str) -> str:
    """Metric prefix of a target: lp._pivot is reported as lp.pivots."""
    return "lp.pivots" if (module, func) == ("lp", "_pivot") else f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.names = [REQUEST_SPAN]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.certified = 0
        self._stack = [-1]
        self._request_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) inside a root span shared by the request's spans."""
        self._request_id = request_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts_ok = name == "torus.jkv_certify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts_ok and result.ok:
                self.certified += 1
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every jkvkit module attribute that is a target function."""
        import jkvkit.cli  # noqa: F401  (loads every module that holds a target)

        wrappers = {}
        for module, funcs in TARGETS.items():
            mod = sys.modules[f"jkvkit.{module}"]
            for func in funcs:
                original = getattr(mod, func)
                wrappers[id(original)] = (original, self._wrap(span_name(module, func), original))
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "jkvkit" or mod.__name__.startswith("jkvkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and total self time."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - covered[i]
        return out

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named child whose parent span is named parent."""
        p_id, c_id = self.names.index(parent), self.names.index(child)
        return sum(
            1
            for i in range(len(self.name))
            if self.name[i] == c_id and self.parent[i] >= 0 and self.name[self.parent[i]] == p_id
        )

    def write(self, path) -> None:
        """Write every span as gzipped JSON: names plus one row per span of
        [name index, start, end, parent span index, request index]."""
        rows = zip(self.name, self.start, self.end, self.parent, self.request)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "request"],
                    "spans": [list(r) for r in rows],
                },
                fh,
                separators=(",", ":"),
            )
