"""`construct` over every theorem id of `constructions.THEOREMS`, pinned to
the certificate bytes and report lines the per-id CLI code produced, and
the registry's ids as the CLI's choices."""

import argparse
import gc
import hashlib
import importlib.util
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from oddminors import cli
from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors.expansion import odd_cycle_model, serialize_model

C5 = ("cycle:5", gr.cycle(5), odd_cycle_model(gr.cycle(5)))
K1, K3, K6 = (("complete:%d" % n, gr.complete(n), cons.identity_model(gr.complete(n)))
              for n in (1, 3, 6))


def factor_argv(tmp_path, first, second):
    argv = []
    for tag, (spec, g, model) in (("a", first), ("b", second)):
        cert = tmp_path / f"{tag}.cert"
        cert.write_text(serialize_model(model, g.content_hash()))
        argv += [f"--factor-{tag}", spec, f"--model-{tag}", str(cert)]
    return argv


def base_argv(tmp_path, s, t, host=None):
    """`--base` with the default base certificate for factor orders (s, t),
    hashed against `host` (by default the right one)."""
    base = cons.cartesian_complete_model(s, t)
    cert = tmp_path / "base.cert"
    cert.write_text(serialize_model(base.model, (host or base.host()).content_hash()))
    return ["--base", str(cert)]


CASES = {
    "cartesian-complete": lambda tmp: ["--s", "3", "--t", "4"],
    "cartesian-lift": lambda tmp: factor_argv(tmp, C5, K3) + base_argv(tmp, 3, 3),
    "strong": lambda tmp: factor_argv(tmp, C5, K3),
    "lex": lambda tmp: factor_argv(tmp, K3, C5),
    "stars": lambda tmp: ["--r", "2", "--t", "4"],
    "direct-k3": lambda tmp: ["--t", "7"],
    "direct-general": lambda tmp: ["--t", "5", "--s", "7"],
    "hamming": lambda tmp: ["--n", "3", "--d", "3"],
    "best": lambda tmp: ["--kind", "direct"] + factor_argv(tmp, K6, K3),
}

# (certificate SHA-256, host line, order), recorded before the registry
PINS = {
    "cartesian-complete": ("b1997c211f78f1627f565a8980d2c303c9e93c248f4d5a43f37b857a6d2bbb74",
                           "n=12 m=30 hash=149e986c33423636e4c7d1967ebafd083756be0c8d5f21e95e27ff42b26a748d", 5),
    "cartesian-lift": ("918108b55b0d4c512c165a9d759125d576b560b6e51811f34c8b052dcf73159d",
                       "n=15 m=30 hash=517a7423fc00d61f2f73dbdf325ab6534759ed74598e5e78cb5d190d6119461b", 4),
    "strong": ("8d188f59b3b7de397e535f3a208bad642350775130566605911f3f452dcb8f9d",
               "n=15 m=60 hash=6ee646b18058295531f0e93d70b32b1381093c78b2485900d0492b5e82f39e8f", 9),
    "lex": ("c5fa17253e9c01c4ee37c2f585ca519baf350da18bb4716b4a786f026e078c02",
            "n=15 m=90 hash=753c7a3c6b28722b42c767a7a04f740f7496468e93e0ff7708445651ec93b02c", 9),
    "stars": ("106ccd65d0281afd417d3f7a60fdb41980516393a5a4f80bed188b29ba36648f",
              "n=15 m=38 hash=165325cb2de1d7357230b56499fbb581c2fad0dee85cb364ac00e01a84978f60", 4),
    "direct-k3": ("f4c6578a2a2d22c1bf1fa84f518c4b0fca96a26f8b2ce94eadb8d11d40c4676f",
                  "n=21 m=126 hash=4d7ba0c1f2c590c6c8ce93ec1d5f46fe2982f04272b88eaf107ca24d52545738", 9),
    "direct-general": ("7f56e82869b2cfe91cdc077576c77806beaedceff634fe6166519d9bccce9755",
                       "n=35 m=420 hash=e4dd1d7120b04252348b5809be95cee0930f4e564a4e89788ca42e5d32ac446d", 10),
    "hamming": ("4aaa38d07570fa523d9d8415c24600e596f4123bce339c59554ab01666ae18ab",
                "n=27 m=81 hash=141bfd8ade5adbd5f88c1143ed5da44171cde4339c0ff0b3dcba57a6e00123b5", 5),
    "best": ("c2fdd04506f89c04b94ef8148278619c86d68fb94fa2e62459293aedcafc886f",
             "n=18 m=90 hash=d945b9c857916edf790f314233bfa71d5e8c5b8a854033b48110f70a96007880", 8),
}


def construct(capsys, tmp_path, *argv):
    out = tmp_path / "out.cert"
    code = cli.main(["construct", *argv, "--out", str(out), "--strict"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out


@pytest.mark.parametrize("theorem", sorted(PINS))
def test_construct_is_pinned(capsys, tmp_path, theorem):
    cert_sha256, host, order = PINS[theorem]
    code, stdout, _, out = construct(capsys, tmp_path, theorem, *CASES[theorem](tmp_path))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == cert_sha256
    assert stdout.splitlines() == [f"command: construct {theorem}", f"host: {host}",
                                   f"order: {order}", f"verdict: PASS order={order}",
                                   f"certificate: {out}"]


def test_best_without_a_construction(capsys, tmp_path):
    code, stdout, _, out = construct(capsys, tmp_path, "best", "--kind", "cartesian",
                                     *factor_argv(tmp_path, K1, K3))
    assert code == 0 and stdout == "no construction applies\n"
    assert not out.exists()


def test_base_hash_is_checked(capsys, tmp_path):
    argv = factor_argv(tmp_path, C5, K3) + base_argv(tmp_path, 3, 3, host=gr.complete(9))
    code, _, stderr, out = construct(capsys, tmp_path, "cartesian-lift", *argv)
    assert code == 4 and "--base hash does not match" in stderr
    assert not out.exists()


@pytest.mark.parametrize("theorem, argv, message", [
    ("hamming", lambda tmp: ["--n", "3"], "theorem 'hamming' needs --d"),
    ("direct-general", lambda tmp: ["--s", "3"], "theorem 'direct-general' needs --t"),
    ("strong", lambda tmp: [], "theorem 'strong' needs --factor-a"),
    ("best", lambda tmp: factor_argv(tmp, K3, K3), "theorem 'best' needs --kind"),
])
def test_missing_input_is_named(capsys, tmp_path, theorem, argv, message):
    code, _, stderr, _ = construct(capsys, tmp_path, theorem, *argv(tmp_path))
    assert code == 2 and message in stderr


def _choices(command, dest):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_cli_choices_are_the_registry():
    assert set(PINS) == set(cons.THEOREMS)
    assert tuple(_choices("construct", "theorem")) == tuple(cons.THEOREMS)
    tabled = {k for k, theorem in cons.THEOREMS.items() if theorem.table}
    assert set(_choices("table", "which")) == tabled
    assert tabled == {"cartesian-complete", "direct-k3", "direct-general", "stars"}
    for theorem in cons.THEOREMS.values():
        assert len(theorem.table) in (0, len(theorem.params))


def _load_bench_module(monkeypatch, name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_theorem(capsys, tmp_path, monkeypatch):
    """The traced benchmark patches `constructions.<builder>` and `product`
    after import; a registry builder that captured them would read 0."""
    tracing = _load_bench_module(monkeypatch, "tracing")
    witness = _load_bench_module(monkeypatch, "witness")
    assert set(tracing.THEOREM_IDS) == set(cons.THEOREMS)
    tracer = tracing.Tracer()
    tracer.install(cli, cons, gr.Graph, witness)
    try:
        for theorem, argv in CASES.items():
            op = SimpleNamespace(name=theorem, label=theorem)
            out = tmp_path / f"{theorem}.cert"
            code = tracer.run_op(op, cli.main, ["construct", theorem, *argv(tmp_path),
                                                "--out", str(out), "--strict"])
            assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, ())
    for theorem in cons.THEOREMS:
        assert metrics[f"constructions.build_s.{theorem}"] > 0, theorem
    assert metrics["graphs.product_calls"] > 0
    # Nested builders (hamming_model lifts through cartesian_lift) would
    # still read > 0; so each op makes exactly one top-level builder call,
    # and every op's products are seen.
    spans = tracer.spans
    assert Counter(s.op for s in spans if s.name == "constructions.build"
                   and spans[s.parent].name == "op") == dict.fromkeys(CASES, 1)
    assert {s.op for s in spans if s.name == "graphs.product"} == set(CASES)
    # the direct theorems select connectors through the traced name
    assert metrics["expansion.connector_calls"] > 0 and metrics["expansion.connector_s"] > 0
    assert {"direct-k3", "direct-general"} <= {s.op for s in spans
                                              if s.name == "expansion.connector"}


def count_products(monkeypatch):
    """The (kind, first order, second order) of each `product` call that
    `constructions` makes from now on."""
    products = []
    product = cons.product

    def counted_product(kind, g, h):
        products.append((kind, g.n, h.n))
        return product(kind, g, h)

    monkeypatch.setattr(cons, "product", counted_product)
    return products


@pytest.mark.parametrize("theorem, argv, t, s", [
    ("direct-general", ["--t", "9", "--s", "9"], 9, 9),
    ("direct-k3", ["--t", "12"], 12, 3),
    ("best", ["--kind", "direct"], 9, 12),
    ("cartesian-lift", [], 8, 8),
    ("best", ["--kind", "cartesian"], 8, 8),
    ("best", ["--kind", "direct"], C5, C5),
])
def test_construct_builds_and_renders_its_host_once(capsys, tmp_path, monkeypatch,
                                                    theorem, argv, t, s):
    """The host is built once for the connector search, the certificate and
    the graph file, and its text is rendered once for the hash and
    `--graph-out`.  A theorem on factors takes K_t and K_s with identity
    certificates, or the given factors."""
    kind = "cartesian" if theorem == "cartesian-lift" or "cartesian" in argv else "direct"
    if cons.THEOREMS[theorem].factors:
        kt, ks = (n if isinstance(n, tuple) else
                  ("complete:%d" % n, gr.complete(n), cons.identity_model(gr.complete(n)))
                  for n in (t, s))
        argv = argv + factor_argv(tmp_path, kt, ks)
        t, s = kt[1].n, ks[1].n
    # On K8, K8 the lift's default base certificate lies on K8 box K8 too,
    # the box product of the factor orders' cliques, and it builds that
    # host itself: equal to the theorem's host, but built apart.
    builds = 2 if kind == "cartesian" else 1
    products = count_products(monkeypatch)
    renders = []
    render = gr.Graph._pieces

    def counted_render(g):
        renders.append(g.n)
        return render(g)

    monkeypatch.setattr(gr.Graph, "_pieces", counted_render)
    out, graph = tmp_path / "out.cert", tmp_path / "out.graph"
    code = cli.main(["construct", theorem, *argv, "--out", str(out), "--graph-out", str(graph),
                     "--strict"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert products.count((kind, t, s)) == builds
    assert renders.count(t * s) == 1
    assert f"hash={hashlib.sha256(graph.read_bytes()).hexdigest()}" in stdout


def test_construct_builds_a_given_base_host_once(capsys, tmp_path, monkeypatch):
    """`--base`'s hash check and the lift's check of the base certificate
    share one K3 box K3."""
    argv = factor_argv(tmp_path, C5, K3) + base_argv(tmp_path, 3, 3)
    products = count_products(monkeypatch)
    code, _, stderr, _ = construct(capsys, tmp_path, "cartesian-lift", *argv)
    assert code == 0, stderr
    assert products.count(("cartesian", 3, 3)) == 1


@pytest.mark.parametrize("theorem, args", [
    ("direct-k3", (7,)), ("direct-general", (5, 7)), ("cartesian-complete", (3, 4))])
def test_built_host_is_not_kept_alive(theorem, args):
    host = cons.THEOREMS[theorem].host(*args)
    model = cons.THEOREMS[theorem].model(host, *args)
    alive = weakref.ref(host)
    del model, host
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("theorem", sorted(CASES))
def test_construct_rereads_its_certificate_with_the_built_model_freed(capsys, tmp_path,
                                                                      monkeypatch, theorem):
    # the self-verify holds one certificate at a time: the built model,
    # the one `serialize_model` writes, is dead, without a collection, when
    # the written file is parsed back (the last `parse_model` call)
    built, dead = [], []
    serialize, parse = cli.serialize_model, cli.parse_model

    def keep_a_weakref(model, graph_hash):
        built.append(weakref.ref(model))
        return serialize(model, graph_hash)

    def note_the_dead(text):
        dead.append([ref() is None for ref in built])
        return parse(text)

    monkeypatch.setattr(cli, "serialize_model", keep_a_weakref)
    monkeypatch.setattr(cli, "parse_model", note_the_dead)
    code, *_ = construct(capsys, tmp_path, theorem, *CASES[theorem](tmp_path))
    assert code == 0
    assert dead[-1] == [True]


@pytest.mark.parametrize("theorem", sorted(CASES))
@pytest.mark.parametrize("graph_out", [True, False], ids=["graph-out", "no-graph-out"])
def test_construct_holds_no_host_text_while_a_certificate_is_alive(capsys, tmp_path, monkeypatch,
                                                                   theorem, graph_out):
    # the host's text is rendered, written and freed before the model is
    # made: no frame of the call stack nor the host itself holds it when a
    # model is returned, serialized, read back or verified, and no built
    # model is alive while the text is written
    hosts, models, seen = [], [], []
    theorems = dict(cons.THEOREMS)

    def holders():
        if not hosts:  # a factor or base certificate, read before the host is built
            return []
        host = hosts[-1]
        text = f"{host.n} {host.m}\n" + "".join(f"{u} {v}\n" for u, row in host.rows() for v in row)
        frame, found = sys._getframe(1), []
        while frame is not None:
            found += [name for name, v in frame.f_locals.items() if v is text or v == text]
            frame = frame.f_back
        return found + [name for name, v in vars(host).items() if v == text]

    def probed(name, fn):
        def call(*args, **kwargs):
            seen.append((name, holders()))
            result = fn(*args, **kwargs)
            seen.append((name, holders()))
            return result
        return call

    def write_graph_text(g, _write=cli.write_graph_text):
        seen.append(("write_graph_text", [ref() for ref in models if ref() is not None]))
        return _write(g)

    for key, theorem_ in theorems.items():
        def model(host, *args, _model=theorem_.model, **options):
            hosts.append(host)
            made = probed("model", _model)(host, *args, **options)
            models.append(weakref.ref(made))
            return made
        monkeypatch.setitem(cons.THEOREMS, key, cons.Theorem(
            theorem_.params, theorem_.host, model, theorem_.factors, theorem_.base, theorem_.table))
    for name in ("serialize_model", "parse_model", "verify_odd_expansion"):
        monkeypatch.setattr(cli, name, probed(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "write_graph_text", write_graph_text)
    out, graph = tmp_path / "out.cert", tmp_path / "out.graph"
    argv = ["--graph-out", str(graph)] if graph_out else []
    code = cli.main(["construct", theorem, *CASES[theorem](tmp_path), "--out", str(out), *argv,
                     "--strict"])
    assert code == 0, capsys.readouterr().err
    assert {name for name, _ in seen} >= {"model", "serialize_model", "parse_model"}
    assert [(name, found) for name, found in seen if found] == []
