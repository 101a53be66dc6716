"""Span tracing of one CLI command from outside the package.

Run as ``python bench/tracer.py SPANS_JSON CLI_ARG...`` with the package
importable. It wraps the public functions of each layer, patching the
module attribute and every ``from .x import name`` binding of it in the
package, then calls ``sievecluster.cli.main``. Spans (name, start, end,
parent) stay in memory and are written to SPANS_JSON when the command
ends, whatever its exit code; each command has its own file, which is its
command id. ``layer_metrics`` turns the spans of several commands into the
per-layer metrics.

Hot recursive helpers (``_bk_pivot``, ``bits``, ``exists_clique``,
``components``) are left unwrapped: their cost per call is close to a
wrapper's, so timing them would mostly time the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name); span names are "<layer>.<function>"
TARGETS = (
    ("fileio", "ingest_space", "fileio.ingest_space"),
    ("fileio", "canonical_json_bytes", "fileio.canonical_json_bytes"),
    ("metric", "validate_metric", "metric.validate_metric"),
    ("metric", "space_from_points", "metric.space_from_points"),
    ("metric", "metric_closure", "metric.metric_closure"),
    ("metric", "FiniteMetricSpace.pairwise_distances", "metric.pairwise_distances"),
    ("graphs", "threshold_graph", "graphs.threshold_graph"),
    ("graphs", "max_vertex_connected_subgraphs", "graphs.max_vertex_connected_subgraphs"),
    ("graphs", "max_edge_connected_subgraphs", "graphs.max_edge_connected_subgraphs"),
    ("graphs", "bk_star_closure", "graphs.bk_star_closure"),
    ("_bitops", "maximal_cliques", "bitops.maximal_cliques"),
    ("_bitops", "degeneracy_order", "bitops.degeneracy_order"),
    ("_bitops", "vertex_cut_below", "bitops.vertex_cut_below"),
    ("_bitops", "_max_flow_vertex_cut", "bitops.max_flow"),
    ("_bitops", "edge_cut_below", "bitops.edge_cut_below"),
    ("_bitops", "closure_bk", "bitops.closure_bk"),
    ("covers", "FlagCover.__init__", "covers.FlagCover.init"),
    ("covers", "maximal_linked_sets", "covers.maximal_linked_sets"),
    ("covers", "flagify", "covers.flagify"),
    ("covers", "refines", "covers.refines"),
    ("covers", "preimage_cover", "covers.preimage_cover"),
    ("functors", "evaluate_method", "functors.evaluate_method"),
    ("functors", "clustering_parameter", "functors.clustering_parameter"),
    ("sieves", "build_sieve", "sieves.build_sieve"),
    ("sieves", "check_sieve_axioms", "sieves.check_sieve_axioms"),
    ("verify", "check_functoriality", "verify.check_functoriality"),
    ("verify", "check_sandwich", "verify.check_sandwich"),
    ("verify", "find_counterexample", "verify.find_counterexample"),
    ("verify", "random_metric", "verify.random_metric"),
    ("verify", "random_morphism", "verify.random_morphism"),
    ("verify", "verify_witness", "verify.verify_witness"),
)
ROOT_SPAN = "cli.main"

# counts read off a wrapped function's result: span name -> (counter, size)
RESULT_COUNTS = {
    "bitops.maximal_cliques": ("bitops.maximal_cliques.cliques", len),
    "fileio.canonical_json_bytes": ("fileio.canonical_json_bytes.bytes", len),
    "sieves.build_sieve": ("sieves.breakpoints", lambda s: len(s.breakpoints)),
}


class Tracer:
    """Spans as (name index, start, end, parent index); -1 is no parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter, size = RESULT_COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + size(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace each target everywhere the package holds a reference."""
        importlib.import_module("sievecluster.cli")
        package = [m for k, m in sys.modules.items() if k.split(".")[0] == "sievecluster"]
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(f"sievecluster.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from sievecluster.cli import main as cli_main

    run = tracer.wrap(ROOT_SPAN, cli_main.main)
    try:
        run(args=cli_args, prog_name="python -m sievecluster.cli")
    finally:
        tracer.dump(spans_path)


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: the span files of its commands."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    scales = candidates = 0
    for run in runs:
        for key, value in run["counts"].items():
            counts[key] = counts.get(key, 0) + value
        names = run["names"]
        spans = run["spans"]
        child_time = [0.0] * len(spans)
        # ancestors of interest, inherited down the tree (parents come first)
        in_sieve = [False] * len(spans)
        in_search = [False] * len(spans)
        sieve_id = names.index("sieves.build_sieve")
        search_id = names.index("verify.find_counterexample")
        replay_id = names.index("verify.verify_witness")
        eval_id = names.index("functors.evaluate_method")
        for i, (nid, start, end, parent) in enumerate(spans):
            if parent >= 0:
                pid = spans[parent][0]
                child_time[parent] += end - start
                in_sieve[i] = in_sieve[parent] or pid == sieve_id
                in_search[i] = (in_search[parent] or pid == search_id) and pid != replay_id
            if nid == eval_id:
                scales += in_sieve[i]
                candidates += in_search[i]
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
    out = {f"{name}.self_s": self_s.get(name, 0.0) for _, _, name in TARGETS}
    out.update({f"{name}.calls": calls.get(name, 0) for _, _, name in TARGETS})
    out["cli.self_s"] = self_s.get(ROOT_SPAN, 0.0)
    for counter, _ in RESULT_COUNTS.values():
        out[counter] = counts.get(counter, 0)
    evals = out["functors.evaluate_method.calls"]
    out["covers.flag_checks_per_eval"] = out["covers.FlagCover.init.calls"] / evals if evals else 0.0
    out["sieves.candidate_scales"] = scales
    out["sieves.breakpoints_per_eval"] = out["sieves.breakpoints"] / scales if scales else 0.0
    out["verify.candidates_evaluated"] = candidates
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
