"""The benchmark's three workloads: their inputs, their op lists and the
checks on every op's output.

An op is one command a user would run: an `oddminors` CLI invocation, or a
witness decision (`witness.py`), which the CLI has no command for.  Each
workload's `setup_*` function builds its inputs, as the text of the files
the ops read under a work directory, and the op list of one pass;
`Setup.write` then writes the files.  Every op carries a check that turns its
exit code and standard output into None (correct) or a failure message; the
checks that need the library (strict re-verification of oracle
certificates) run after the op's timed region.

Why these workloads:

- construct: nearly all of its work is connector selection in
  `constructions`, plus `graphs.product` and serialize/hash.  The oracle
  does no work here.  The small theorem ids are dominated by start-up, so a
  registry refactor that slows a single theorem shows in the median op time.
- verify: the third-party checker.  Load falls on `read_graph_text`,
  `content_hash`, `parse_model` and `verify_odd_expansion`; `constructions`
  runs only in set-up and the oracle not at all.  It uses the `expansion`
  layer the other way round from `construct`.
- search: the oracle does more than 99% of the work.  `exact` ops spend
  most of their time in the final, refuting round; witness decisions are
  the oracle's other use, so an enumeration-order change that helps
  refutation and hurts witnesses shows both.

Seeds: seed 0 keeps vertex labels as built.  Any other seed relabels the
`verify` hosts and their certificates by a seeded permutation.  `search`
hosts keep their labels at every seed: the oracle's work depends on the
labelling (relabelling moves K5 x K3 at order 7 from 3.8 s to 0.03 s), which
would make its timings incomparable between seeds.  The runner shuffles the
op order within each pass for every non-zero seed.  Verdicts and exact
values do not depend on the seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from oddminors import constructions as cons
from oddminors.expansion import (OddExpansionModel, branch_tree, parse_model,
                                 serialize_model, verify_odd_expansion)
from oddminors.errors import ParseError
from oddminors.graphs import (Graph, complete, cycle, hamming, norm_edge, path,
                              product, read_graph_text)

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    """One timed command.  `program` is "cli" (argv follows `oddminors`) or
    "witness" (argv follows `witness.py`)."""

    name: str
    command: str  # construct | verify | exact | witness
    argv: list[str]
    check: Check
    label: str = ""  # theorem id for construct ops, host name for search ops
    outputs: tuple[Path, ...] = ()

    @property
    def program(self) -> str:
        return "witness" if self.command == "witness" else "cli"

    def clear_outputs(self):
        """Remove what an earlier pass of this op wrote, so that its check
        reads this pass's output only."""
        for path in self.outputs:
            path.unlink(missing_ok=True)


@dataclass
class Setup:
    """A workload's inputs, as file texts not yet written, and its ops."""

    work: Path
    ops: list[Op] = field(default_factory=list)
    files: dict[Path, str] = field(default_factory=dict)
    exact_hosts: dict[str, tuple[Path, int]] = field(default_factory=dict)

    def graph(self, name: str, g: Graph) -> Path:
        path = self.work / name
        self.files[path] = g.canonical_text()
        return path

    def cert(self, name: str, model: OddExpansionModel, graph_hash: str) -> Path:
        path = self.work / name
        self.files[path] = serialize_model(model, graph_hash)
        return path

    def write(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            path.write_text(text)


def first_line(stdout: str) -> str:
    lines = stdout.splitlines()
    return lines[0] if lines else ""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_certificate(host_path: Path, cert_path: Path, order: int) -> Optional[str]:
    """Strict re-verification of a certificate file against a host file."""
    try:
        host = read_graph_text(host_path.read_text())
        model, stored_hash = parse_model(cert_path.read_text())
    except (OSError, ParseError) as e:
        return f"cannot load certificate: {e}"
    if stored_hash != host.content_hash():
        return "certificate hash does not match its host"
    if model.clique_order != order:
        return f"certificate order {model.clique_order}, expected {order}"
    verdict = verify_odd_expansion(host, model, strict=True)
    if not verdict.passed:
        return f"strict verify: {verdict.summary()}"
    return None


# ----------------------------------------------------------------------
# construct

# (name, CLI arguments, factor pair or None, order by the theorem's formula)
CONSTRUCT_CASES = [
    ("direct-general-30", ["direct-general", "--t", "30", "--s", "30"], None, 30 * (30 // 3)),
    ("direct-general-20", ["direct-general", "--t", "20", "--s", "20"], None, 20 * (20 // 3)),
    ("direct-k3-200", ["direct-k3", "--t", "200"], None, 200 + 2),
    ("hamming-4-4", ["hamming", "--n", "4", "--d", "4"], None, 4 * (4 - 2) + 2),
    ("hamming-5-3", ["hamming", "--n", "5", "--d", "3"], None, 3 * (5 - 2) + 2),
    ("cartesian-complete-12-12", ["cartesian-complete", "--s", "12", "--t", "12"], None, 12 + 12 - 2),
    ("stars-6-6", ["stars", "--r", "6", "--t", "6"], None, 6 + 1),
    ("stars-4-7", ["stars", "--r", "4", "--t", "7"], None, min(4, 7) + 2),
    ("strong-k8-k8", ["strong"], (8, 8), 8 * 8),
    ("lex-k8-k8", ["lex"], (8, 8), 8 * 8),
    ("cartesian-lift-k8-k8", ["cartesian-lift"], (8, 8), 8 + 8 - 2),
    ("best-cartesian-k8-k8", ["best", "--kind", "cartesian"], (8, 8), 8 + 8 - 2),
    ("best-direct-k9-k12", ["best", "--kind", "direct"], (9, 12), 9 * (12 // 3)),
]


def construct_digest(stdout: str, cert_path: Path) -> dict:
    """The golden-corpus entry of one construct op: certificate bytes and
    the host hash the CLI reports."""
    host = next((ln.split("hash=", 1)[1] for ln in stdout.splitlines()
                 if ln.startswith("host: ") and "hash=" in ln), None)
    return {"cert_sha256": sha256_file(cert_path) if cert_path.exists() else None,
            "host_hash": host}


def construct_checker(name: str, order: int, cert_path: Path, digests: dict) -> Check:
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        lines = stdout.splitlines()
        if f"verdict: PASS order={order}" not in lines:
            return "no 'verdict: PASS' line for the expected order"
        if f"order: {order}" not in lines:
            return f"order line is not 'order: {order}'"
        want = digests.get(name)
        if want is None:
            return "no golden digest for this case"
        got = construct_digest(stdout, cert_path)
        if got != want:
            return f"digest {got} differs from golden {want}"
        return None
    return check


@functools.cache
def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def setup_construct(work: Path, seed: int, digests: Optional[dict] = None) -> Setup:
    if digests is None:
        digests = load_digests()
    setup = Setup(work)
    factors = {}
    for n in sorted({n for *_, pair, _ in CONSTRUCT_CASES if pair for n in pair}):
        k = complete(n)
        factors[n] = (setup.graph(f"k{n}.graph", k),
                      setup.cert(f"k{n}.cert", cons.identity_model(k), k.content_hash()))
    for name, args, pair, order in CONSTRUCT_CASES:
        argv = ["construct", *args]
        if pair:
            (ga, ma), (gb, mb) = factors[pair[0]], factors[pair[1]]
            argv += ["--factor-a", str(ga), "--model-a", str(ma),
                     "--factor-b", str(gb), "--model-b", str(mb)]
        cert, graph = work / f"{name}.out.cert", work / f"{name}.out.graph"
        argv += ["--out", str(cert), "--graph-out", str(graph)]
        setup.ops.append(Op(name, "construct", argv,
                            construct_checker(name, order, cert, digests),
                            label=args[0], outputs=(cert, graph)))
    return setup


# ----------------------------------------------------------------------
# verify


def _verify_hosts():
    """(name, host, certificate) built through the library."""
    k8 = complete(8)
    k8_id = cons.identity_model(k8)
    return [
        ("direct-general-24", product("direct", complete(24), complete(24)),
         cons.direct_general_model(24, 24)),
        ("direct-k3-200", product("direct", complete(200), complete(3)),
         cons.direct_k3_model(200)),
        ("strong-k8-k8", product("strong", k8, k8),
         cons.strong_model(k8, k8_id, k8, k8_id, "strong")),
        ("hamming-4-4", hamming(4, 4), cons.hamming_model(4, 4)),
    ]


def relabel_graph(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, frozenset(norm_edge(perm[u], perm[v]) for u, v in g.edges))


def relabel_model(model: OddExpansionModel, perm: list[int]) -> OddExpansionModel:
    """The certificate under the vertex map v -> perm[v].  Tree order, and
    with it every tree index a verdict names, is kept."""
    trees = tuple(branch_tree([perm[v] for v in t.vertices],
                              [(perm[u], perm[v]) for u, v in t.edges])
                  for t in model.trees)
    coloring = {perm[v]: c for v, c in model.coloring.items()}
    connectors = None if model.connectors is None else {
        pair: (perm[u], perm[v]) for pair, (u, v) in model.connectors.items()}
    return OddExpansionModel(trees, coloring, connectors, model.notes)


def flip_last_tree_color(model: OddExpansionModel) -> OddExpansionModel:
    """Flip the color of the last tree's largest vertex: every earlier
    tree passes every check before the flip is found."""
    v = max(model.trees[-1].vertices)
    coloring = dict(model.coloring)
    coloring[v] = 3 - coloring[v]
    return OddExpansionModel(model.trees, coloring, model.connectors, model.notes)


def non_edge_last_connector(g: Graph, model: OddExpansionModel) -> OddExpansionModel:
    """Replace the stored connector of the last tree pair by the least
    non-edge between those two trees."""
    r = model.clique_order
    a, b = model.trees[r - 2], model.trees[r - 1]
    bad = min(norm_edge(u, v) for u in a.vertices for v in b.vertices
              if not g.has_edge(u, v))
    connectors = dict(model.connectors)
    connectors[(r - 2, r - 1)] = bad
    return OddExpansionModel(model.trees, model.coloring, connectors, model.notes)


def expect(code: int, line_prefix: str) -> Check:
    def check(got_code: int, stdout: str) -> Optional[str]:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        line = first_line(stdout)
        if not (line + " ").startswith(line_prefix):
            return f"first line {line[:80]!r}, expected {line_prefix!r}"
        return None
    return check


def setup_verify(work: Path, seed: int) -> Setup:
    setup = Setup(work)
    ops = setup.ops
    files = {}
    for name, g, model in _verify_hosts():
        r = model.clique_order
        variants = {"strict": model,
                    "plain": OddExpansionModel(model.trees, model.coloring, None, model.notes)}
        if name == "direct-general-24":
            variants["flipped"] = flip_last_tree_color(model)
            variants["non-edge"] = non_edge_last_connector(g, model)
        # Seed 0 relabels by the identity, so that set-up does the same
        # work at every seed.
        perm = list(range(g.n))
        if seed != 0:
            random.Random(f"{seed}/{name}").shuffle(perm)
        host = relabel_graph(g, perm)
        files[name, "host"] = setup.graph(f"{name}.graph", host)
        graph_hash = host.content_hash()
        for kind, m in variants.items():
            files[name, kind] = setup.cert(f"{name}.{kind}.cert", relabel_model(m, perm),
                                           graph_hash)
        ops.append(Op(f"strict/{name}", "verify",
                      ["verify", str(files[name, "host"]), str(files[name, "strict"]), "--strict"],
                      expect(0, f"PASS order={r} "), label=name))
        ops.append(Op(f"plain/{name}", "verify",
                      ["verify", str(files[name, "host"]), str(files[name, "plain"])],
                      expect(0, f"PASS order={r} "), label=name))
    r = 24 * (24 // 3)
    dg = files["direct-general-24", "host"]
    ops.append(Op("flipped/direct-general-24", "verify",
                  ["verify", str(dg), str(files["direct-general-24", "flipped"]), "--strict"],
                  expect(1, f"FAIL properness trees={r - 1} ")))
    ops.append(Op("non-edge/direct-general-24", "verify",
                  ["verify", str(dg), str(files["direct-general-24", "non-edge"]), "--strict"],
                  expect(1, f"FAIL connector_invalid trees={r - 2},{r - 1} ")))
    ops.append(Op("wrong-host/hamming-4-4", "verify",
                  ["verify", str(files["strong-k8-k8", "host"]),
                   str(files["hamming-4-4", "strict"]), "--strict"],
                  expect(4, "HASH-MISMATCH ")))
    return setup


# ----------------------------------------------------------------------
# search

# (name, host, pinned odd Hadwiger number)
EXACT_HOSTS = [
    ("c5-strong-c3", lambda: product("strong", cycle(5), cycle(3)), 9),
    ("k4-direct-k3", lambda: product("direct", complete(4), complete(3)), 6),
    ("c7-strong-k2", lambda: product("strong", cycle(7), complete(2)), 6),
    ("k3-cartesian-k4", lambda: product("cartesian", complete(3), complete(4)), 6),
    ("p4-strong-c3", lambda: product("strong", path(4), cycle(3)), 6),
]

# (name, host, order with a witness)
WITNESS_HOSTS = [
    ("k5-direct-k3", lambda: product("direct", complete(5), complete(3)), 7),
    ("k4-direct-k4", lambda: product("direct", complete(4), complete(4)), 7),
    ("c5-cartesian-c3", lambda: product("cartesian", cycle(5), cycle(3)), 5),
    ("k4-cartesian-k4", lambda: product("cartesian", complete(4), complete(4)), 7),
    ("k6-direct-k3", lambda: product("direct", complete(6), complete(3)), 7),
]


def exact_checker(value: int, host: Path, cert: Path) -> Check:
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        if first_line(stdout) != f"EXACT {value}":
            return f"first line {first_line(stdout)!r}, expected 'EXACT {value}'"
        return check_certificate(host, cert, value)
    return check


def witness_checker(order: int, host: Path, cert: Path) -> Check:
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        if first_line(stdout) != f"FOUND order={order}":
            return f"first line {first_line(stdout)!r}, expected 'FOUND order={order}'"
        return check_certificate(host, cert, order)
    return check


def setup_search(work: Path, seed: int) -> Setup:
    setup = Setup(work)
    for name, build, value in EXACT_HOSTS:
        host = setup.graph(f"{name}.graph", build())
        cert = work / f"{name}.exact.cert"
        setup.exact_hosts[name] = (host, value)
        setup.ops.append(Op(f"exact/{name}", "exact", ["exact", str(host), "--out", str(cert)],
                            exact_checker(value, host, cert), label=name, outputs=(cert,)))
    for name, build, order in WITNESS_HOSTS:
        host = setup.graph(f"{name}.graph", build())
        cert = work / f"{name}.witness.cert"
        setup.ops.append(Op(f"witness/{name}", "witness", [str(host), str(order), str(cert)],
                            witness_checker(order, host, cert), label=name, outputs=(cert,)))
    return setup


WORKLOADS = {
    "construct": setup_construct,
    "verify": setup_verify,
    "search": setup_search,
}
