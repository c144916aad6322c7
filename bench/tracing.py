"""Spans around the calls into each layer, for the benchmark's traced run.

The tracer replaces a layer's public functions, where their callers look
them up (`oddminors.cli.verify_odd_expansion`, `constructions.product`,
`Graph.content_hash`, ...), with wrappers that record a span: name, start,
end, parent span and the op it belongs to.  Spans stay in memory until the
run ends.  A span's self time is its length minus the time its child spans
cover.  Nothing inside `src/` is changed: `install` patches attributes and
`uninstall` restores them, so untraced passes run the original functions.

The per-layer metric names are listed in `BENCHMARK.json`.  A layer that a
workload does not call reads 0 there.  Which end-to-end metric each layer
metric should move, and on which workload:

- cli.startup_s, cli.self_s: pass_s, every workload; they are the fixed
  cost per command that the sums hide.
- graphs.product_*, graphs.host_edges: pass_s and peak_rss_mb on construct.
- graphs.hash_*, graphs.text_*: pass_s on construct and verify.
- expansion.connector_*: pass_s on construct; nothing on search.
- expansion.verify_strict_s: pass_s on construct and verify.
- expansion.verify_plain_s: pass_s on verify.
- expansion.serialize_s, expansion.parse_s, expansion.cert_bytes: pass_s on
  construct and verify.
- constructions.*: pass_s on construct.
- oracle.*: pass_s on search (exact ops and witness decisions).
- ops.<command>_s: the in-process time of a pass's ops by command, that is
  pass_s without process start-up, split by command.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

CONSTRUCTION_FUNCTIONS = ("cartesian_complete_model", "cartesian_lift", "hamming_model",
                          "strong_model", "star_model", "direct_k3_model",
                          "direct_general_model", "best_lower_bound")

THEOREM_IDS = ("cartesian-complete", "cartesian-lift", "strong", "lex", "stars",
               "direct-k3", "direct-general", "hamming", "best")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for an op's root span
    op: str
    label: str
    size: int = 0

    @property
    def length(self) -> float:
        return self.end - self.start


def _verify_name(args, kwargs) -> str:
    strict = kwargs.get("strict", args[2] if len(args) > 2 else False)
    return "expansion.verify_strict" if strict else "expansion.verify_plain"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = ("", "")

    def run_op(self, op, fn, *args):
        """Call fn as the root span of one op."""
        self._op = (op.name, op.label)
        return self._call("op", fn, args, {}, None)

    def _call(self, name, fn, args, kwargs, size):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, *self._op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if size is not None:
            span.size = size(args, result)
        return result

    def wrap(self, owner, attr: str, name, size=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self._call(span_name, original, args, kwargs, size)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, cli, constructions, graph_cls, witness):
        product_edges = lambda args, result: result.m
        text_in = lambda args, result: len(args[0])
        text_out = lambda args, result: len(result)
        for owner in (cli, constructions):
            self.wrap(owner, "product", "graphs.product", product_edges)
        self.wrap(graph_cls, "content_hash", "graphs.hash")
        self.wrap(cli, "write_graph_text", "graphs.text_write", text_out)
        for owner in (cli, witness):
            self.wrap(owner, "read_graph_text", "graphs.text_read", text_in)
            self.wrap(owner, "serialize_model", "expansion.serialize", text_out)
        self.wrap(constructions, "monochromatic_connector", "expansion.connector")
        self.wrap(cli, "verify_odd_expansion", _verify_name)
        self.wrap(cli, "parse_model", "expansion.parse", text_in)
        self.wrap(cli, "odd_hadwiger", "oracle.search", lambda args, result: result.nodes)
        self.wrap(witness, "has_odd_clique_minor", "oracle.search")
        for function in CONSTRUCTION_FUNCTIONS:
            self.wrap(constructions, function, "constructions.build")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span], exact_hosts) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass.  `exact_hosts`
    names the hosts of `exact` ops, which report search nodes."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.length
    time = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(int)
    self_time = defaultdict(float)
    build = defaultdict(float)
    nodes = defaultdict(int)
    exact_search_s = 0.0
    for i, s in enumerate(spans):
        time[s.name] += s.length
        calls[s.name] += 1
        size[s.name] += s.size
        self_time[s.name] += s.length - children[i]
        if s.name == "constructions.build" and (
                s.parent < 0 or spans[s.parent].name != "constructions.build"):
            build[s.label] += s.length
        if s.name == "oracle.search" and s.label in exact_hosts:
            nodes[s.label] += s.size
            exact_search_s += s.length
    build_total = sum(build.values())
    out = {
        "cli.self_s": self_time["op"],
        "graphs.product_s": time["graphs.product"],
        "graphs.product_calls": calls["graphs.product"],
        "graphs.host_edges": size["graphs.product"],
        "graphs.hash_s": time["graphs.hash"],
        "graphs.hash_calls": calls["graphs.hash"],
        "graphs.text_write_s": time["graphs.text_write"],
        "graphs.text_read_s": time["graphs.text_read"],
        "graphs.text_bytes": size["graphs.text_write"] + size["graphs.text_read"],
        "expansion.connector_s": time["expansion.connector"],
        "expansion.connector_calls": calls["expansion.connector"],
        "expansion.verify_strict_s": time["expansion.verify_strict"],
        "expansion.verify_plain_s": time["expansion.verify_plain"],
        "expansion.serialize_s": time["expansion.serialize"],
        "expansion.parse_s": time["expansion.parse"],
        "expansion.cert_bytes": size["expansion.serialize"] + size["expansion.parse"],
        **{f"constructions.build_s.{t}": build[t] for t in THEOREM_IDS},
        "constructions.self_s": self_time["constructions.build"],
        "constructions.connector_share":
            time["expansion.connector"] / build_total if build_total else 0.0,
        "oracle.search_s": time["oracle.search"],
        "oracle.nodes": sum(nodes.values()),
        "oracle.nodes_per_s": sum(nodes.values()) / exact_search_s if exact_search_s else 0.0,
    }
    for host in exact_hosts:
        out[f"oracle.nodes.{host}"] = nodes[host]
    return out


def median_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}
