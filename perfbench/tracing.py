"""Spans at the library's layer boundaries, recorded from outside the library.

Each hook replaces a public function at the attribute its callers look it up
by (``cli.decide_positive``, ``fileformat.validate_char``,
``linalg.det_bareiss``, ...) with a wrapper that records a span: name, start,
end, parent span, the command (request) it belongs to, and a count taken
from the call's arguments or result. Spans stay in memory until the run
writes them out. ``remove`` puts the original functions back, so untraced
passes run the library exactly as shipped.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

from quasitoric import charpair, cli, constructions, fileformat, invariants, linalg
from quasitoric import polytope, positivity


def _result_vertices(args, result):
    return result.num_vertices


def _f_vector_subsets(args, result):
    poly = args[0]
    return poly.num_vertices * ((1 << poly.dim) - 1)


def _gf2(args, result):
    return (len(result.rows), result.num_unknowns)


def _decision(args, result):
    return (int(result.satisfiable), result.kernel_dim or 0, len(result.witness or ()))


# (module, attribute, span name, count taken from the call)
HOOKS = [
    (cli, "parse", "fileformat.parse", lambda args, result: len(args[0].encode())),
    (fileformat, "validate_polytope", "polytope.validate_polytope", _result_vertices),
    (charpair, "validate_polytope", "polytope.validate_polytope", _result_vertices),
    (constructions, "validate_polytope", "polytope.validate_polytope", _result_vertices),
    (charpair, "orient_dual_sphere", "polytope.orient_dual_sphere", None),
    (fileformat, "validate_char", "charpair.validate_char", None),
    (charpair, "validate_char", "charpair.validate_char", None),
    (constructions, "validate_char", "charpair.validate_char", None),
    (linalg, "det_bareiss", "linalg.det_bareiss", None),
    (cli, "f_vector", "polytope.f_vector", _f_vector_subsets),
    (polytope, "f_vector", "polytope.f_vector", _f_vector_subsets),
    (cli, "h_vector", "polytope.h_vector", None),
    (cli, "decide_positive", "positivity.decide_positive", _decision),
    (positivity, "build_system", "positivity.build_system", _gf2),
    (positivity, "solve", "positivity.solve", None),
    (cli, "compute_invariants", "invariants.compute_invariants", None),
    (invariants, "intersection_form", "invariants.intersection_form",
     lambda args, result: len(result.basis)),
    (invariants, "signature", "invariants.signature", None),
    # the certificate check inside decide_positive also calls all_signs; it is
    # left unwrapped so that decide_positive's self time is the verification
    (cli, "all_signs", "charpair.all_signs", None),
    (invariants, "all_signs", "charpair.all_signs", None),
    (constructions, "cpn", "constructions.cpn", None),
    (constructions, "product", "constructions.product", None),
    (constructions, "connected_sum_4d", "constructions.connected_sum_4d", None),
    (constructions, "vertex_cut", "constructions.vertex_cut", None),
    (fileformat, "serialize", "fileformat.serialize", None),
]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, request id, count]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in HOOKS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def root(self, name: str, request: int):
        """Open a span the benchmark itself closes (one command's cli.main)."""
        self.request = request
        rec = [name, perf_counter(), 0.0, -1, request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec) -> None:
        rec[2] = perf_counter()
        self._stack.pop()
        self.request = -1

    def write(self, path, segments) -> None:
        """Write spans as JSON lines, tagged by the (tag, first, last) range
        that holds them."""
        with open(path, "w", encoding="utf-8") as fh:
            for tag, first, last in segments:
                for i in range(first, last):
                    name, start, end, parent, request, count = self.spans[i]
                    fh.write(json.dumps({"tag": tag, "id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "request": request,
                                         "count": count}) + "\n")


def self_times(spans, first: int, last: int, scale) -> dict[str, float]:
    """Summed self time by span name over spans[first:last]: each span's
    duration minus the durations of its direct children (calls are
    sequential, so children never overlap), times scale(request)."""
    child = [0.0] * (last - first)
    for name, start, end, parent, _, _ in spans[first:last]:
        if parent >= first:
            child[parent - first] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, request, _) in enumerate(spans[first:last]):
        out[name] = out.get(name, 0.0) + ((end - start) - child[i]) * scale(request)
    return out


def layer_counts(spans, first: int, last: int) -> dict[str, float]:
    """Work counts taken at the same boundaries as the spans."""
    c = {
        "fileformat.parse_bytes": 0, "polytope.validate_polytope_vertices": 0,
        "linalg.det_bareiss_calls": 0, "polytope.f_vector_calls": 0,
        "polytope.f_vector_subsets": 0, "positivity.gf2_rows": 0,
        "positivity.gf2_unknowns": 0, "positivity.kernel_dim": 0,
        "positivity.witness_size": 0, "invariants.form_dim": 0,
        "charpair.all_signs_calls": 0, "constructions.revalidated_vertices": 0,
        "cli.commands": 0,
    }
    decisions = sat = 0
    for i in range(first, last):
        name, _, _, parent, _, count = spans[i]
        if name == "fileformat.parse":
            c["fileformat.parse_bytes"] += count
        elif name == "polytope.validate_polytope":
            c["polytope.validate_polytope_vertices"] += count
            p = parent
            while p >= first:
                if spans[p][0].startswith("constructions."):
                    c["constructions.revalidated_vertices"] += count
                    break
                p = spans[p][3]
        elif name == "linalg.det_bareiss":
            c["linalg.det_bareiss_calls"] += 1
        elif name == "polytope.f_vector":
            c["polytope.f_vector_calls"] += 1
            c["polytope.f_vector_subsets"] += count
        elif name == "positivity.build_system":
            c["positivity.gf2_rows"] += count[0]
            c["positivity.gf2_unknowns"] += count[1]
        elif name == "positivity.decide_positive":
            decisions += 1
            sat += count[0]
            c["positivity.kernel_dim"] += count[1]
            c["positivity.witness_size"] += count[2]
        elif name == "invariants.intersection_form":
            c["invariants.form_dim"] += count
        elif name == "charpair.all_signs":
            c["charpair.all_signs_calls"] += 1
        elif name == "cli.main":
            c["cli.commands"] += 1
    c["positivity.sat_ratio"] = sat / decisions if decisions else 0.0
    return c


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rows)
    return {k: median(r.get(k, 0.0) for r in rows) for k in keys}
