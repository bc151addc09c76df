"""Span tracer that wraps the public functions of ``unipjordan`` from the
outside, and the per-layer metrics computed from its spans.

A span records a name, its start and end (``perf_counter_ns``), the span
that caused it and the request it belongs to.  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus the time its child spans cover; every ``*_ms`` layer
metric below is a sum of self times, so no time is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> {module: [functions]}.  Character functions are wrapped only
# where sl2 calls them.
LAYERS = {
    "expr": {"unipjordan.expr": ["parse_expr"]},
    "sl2": {"unipjordan.sl2": ["eval_expr"]},
    "characters": {"unipjordan.sl2": ["char_add", "char_tensor", "char_twist",
                                      "weyl_character"]},
    "oracle.build": {"unipjordan.oracle": ["expr_matrix", "pascal_matrix", "kron"]},
    "oracle.rank": {"unipjordan.oracle": ["rank_sequence"]},
    "classtables.load": {"unipjordan.classtables": ["bundled_table", "load_class_table"]},
    "classtables.identify": {"unipjordan.classtables": ["identify_from_expr",
                                                        "identify_class"]},
    "extclassify": {"unipjordan.extclassify": ["ext1_nonzero", "nonsplit_ext_classify"]},
    "rootdata": {"unipjordan.rootdata": ["root_system", "qm_structure"]},
    "distinguished": {"unipjordan.distinguished": ["is_distinguished"]},
}


def elimination_flops(m: int, n: int, r: int) -> float:
    """Field operations to reduce an m x n matrix of rank r to echelon
    form: sum over pivots k < r of 2 (m - k) (n - k)."""
    return 2.0 * m * n * r - (m + n) * r * r + 2.0 * r ** 3 / 3


def rank_sequence_flops(n: int, ranks: list[int]) -> float:
    """Nominal flops of ``rank_sequence``, computed from the matrix shape
    and the returned ranks: one elimination per level, and between levels
    a triangular product of an r x n basis with the n x n matrix."""
    flops = elimination_flops(n, n, ranks[1] if len(ranks) > 1 else 0)
    for r, r_next in zip(ranks[1:], ranks[2:]):
        flops += float(r) * n * n + elimination_flops(r, n, r_next)
    return flops


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # (span id, parent id, request id, name index, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.stack: list[int] = [-1]
        self.request_id = -1
        self.counters = {"characters.weights_built": 0, "characters.support_max": 0,
                         "oracle.levels": 0, "oracle.n_max": 0, "oracle.flops": 0.0}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def span(self, idx: int, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[sid] = (sid, parent, self.request_id, idx, start, end)

    def request(self, rid: int, kind: str, fn, *args):
        """Run one request under a root span ``request.<kind>``."""
        name = f"request.{kind}"
        if name not in self.names:
            self._name_index(name, "request")
        self.request_id = rid
        return self.span(self.names.index(name), fn, args, {})

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, idx: int, name: str):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.span(idx, fn, args, kwargs)
            if tracer.layer_of[idx] == "characters":
                size = len(out.items)
                counters["characters.weights_built"] += size
                if size > counters["characters.support_max"]:
                    counters["characters.support_max"] = size
            elif name == "rank_sequence":
                n = args[0].rows
                counters["oracle.levels"] += len(out) - 1
                counters["oracle.n_max"] = max(counters["oracle.n_max"], n)
                counters["oracle.flops"] += rank_sequence_flops(n, out)
            return out

        return traced

    def install(self):
        """Patch each listed function in its module and in every
        ``unipjordan`` module (the package included) that imported it.
        Returns the functions that were not found."""
        for where in LAYERS.values():
            for modname in where:
                importlib.import_module(modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "unipjordan" or name.startswith("unipjordan.")}
        missing = []
        for layer, where in LAYERS.items():
            for modname, funcs in where.items():
                home = mods[modname]
                for fname in funcs:
                    orig = getattr(home, fname, None)
                    if orig is None:
                        missing.append(f"{modname}.{fname}")
                        continue
                    wrapped = self._wrapper(orig, self._name_index(fname, layer), fname)
                    targets = [home] if layer == "characters" else mods.values()
                    for mod in targets:
                        if getattr(mod, fname, None) is orig:
                            setattr(mod, fname, wrapped)
                            self._patched.append((mod, fname, orig))
        return missing

    def uninstall(self):
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for _sid, parent, _rid, _idx, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid]
                for sid, _parent, _rid, _idx, start, end in self.spans]

    def layer_metrics(self) -> dict:
        """Per-layer self time, call counts and counters."""
        self_ns = self.self_times_ns()
        ms: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        request_ns = 0
        for (_sid, _parent, _rid, idx, start, end), own in zip(self.spans, self_ns):
            layer = self.layer_of[idx]
            if layer == "request":
                request_ns += end - start
                continue
            ms[layer] += own / 1e6
            calls[self.names[idx]] = calls.get(self.names[idx], 0) + 1
        c = self.counters
        rank_ms = ms["oracle.rank"]
        out = {
            "expr.parse_ms": ms["expr"],
            "expr.parse_calls": calls.get("parse_expr", 0),
            "sl2.eval_ms": ms["sl2"],
            "sl2.eval_calls": calls.get("eval_expr", 0),
            "characters.ms": ms["characters"],
            "characters.tensor_calls": calls.get("char_tensor", 0),
            "characters.weights_built": c["characters.weights_built"],
            "characters.support_max": c["characters.support_max"],
            "oracle.build_ms": ms["oracle.build"],
            "oracle.rank_ms": rank_ms,
            "oracle.rank_calls": calls.get("rank_sequence", 0),
            "oracle.levels": c["oracle.levels"],
            "oracle.n_max": c["oracle.n_max"],
            "oracle.rank_share": rank_ms / (request_ns / 1e6) if request_ns else 0.0,
            "oracle.nominal_gflops": c["oracle.flops"] / rank_ms / 1e6 if rank_ms else 0.0,
            "classtables.load_ms": ms["classtables.load"],
            "classtables.identify_ms": ms["classtables.identify"],
            "extclassify.ms": ms["extclassify"],
            "rootdata.ms": ms["rootdata"],
            "distinguished.ms": ms["distinguished"],
        }
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, idx, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": rid,
                                     "name": self.names[idx], "layer": self.layer_of[idx],
                                     "start_ns": start, "end_ns": end}) + "\n")
