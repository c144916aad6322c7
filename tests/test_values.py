"""The package's immutable value classes: construction in the forms the
package and the benchmark use, ==, hash(), repr() and immutability."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors.expansion import BranchTree, OddExpansionModel, Verdict, branch_tree
from oddminors.oracle import ExactResult, SearchBudget

K2 = gr.complete(2)
EDGE = OddExpansionModel((branch_tree([0]), branch_tree([1])), {0: 1, 1: 1})
host = lambda s, t: gr.product("cartesian", gr.complete(s), gr.complete(t))
model = lambda s, t: cons.cartesian_complete_model(s, t).model

# class -> (a value, an equal value built apart from it, an unequal value)
VALUES = {
    gr.Graph: lambda: (gr.Graph(2, frozenset({(0, 1)})), gr.complete(2), gr.Graph(2, frozenset())),
    BranchTree: lambda: (BranchTree(frozenset({0, 1}), frozenset({(0, 1)})),
                         branch_tree([1, 0], [(1, 0)]), branch_tree([0, 1])),
    OddExpansionModel: lambda: (
        OddExpansionModel(EDGE.trees, EDGE.coloring),
        OddExpansionModel(EDGE.trees, {1: 1, 0: 1}, None, ()),
        OddExpansionModel(EDGE.trees, EDGE.coloring, connectors={(0, 1): (1, 0)})),
    Verdict: lambda: (Verdict(message="order=2"),
                      Verdict(None, (), (), (), "order=2"),
                      Verdict("coloring", (0,), (1,), ((0, 1),), "")),
    SearchBudget: lambda: (SearchBudget(), SearchBudget(16, 60.0, 100_000_000),
                           SearchBudget(max_vertices=K2.n, time_limit=1.0, node_limit=10)),
    ExactResult: lambda: (ExactResult("exact", 2, EDGE),
                          ExactResult("exact", 2, EDGE, None, 0, 0.0),
                          ExactResult("timeout", 2, EDGE, None, 5, 1.5)),
    cons.BaseModel: lambda: (cons.BaseModel(2, 3, model(2, 3)),
                             cons.cartesian_complete_model(2, 3),
                             cons.cartesian_complete_model(3, 2)),
    cons.Theorem: lambda: (cons.Theorem(("s", "t"), host, model, table=("2..3", "2..3")),
                           cons.Theorem(("s", "t"), host, model, False, False, ("2..3", "2..3")),
                           cons.Theorem((), host, model, factors=True, base=True)),
}

# the fields each class refuses to rebind and its repr shows: `_fields`,
# and for Graph, which writes its own repr, its vertex count and edge set
fields = lambda cls: ("n", "edges") if cls is gr.Graph else cls._fields

# the classes with a dict among their fields, directly or in a field's
# value: hash() refuses them, as it refuses the dict
UNHASHABLE = {OddExpansionModel, ExactResult, cons.BaseModel}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_compare_by_their_fields(cls):
    a, same, other = VALUES[cls]()
    assert type(a) is type(same) is type(other) is cls
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != tuple(vars(a).values())  # another class is never equal
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(same)
        assert len({a, same, other}) == 2


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_refuse_assignment_and_deletion(cls):
    a, _, _ = VALUES[cls]()
    before = dict(vars(a))
    for name in fields(cls):
        with pytest.raises(AttributeError, match=name):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert vars(a) == before


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_repr_names_every_field(cls):
    a, _, _ = VALUES[cls]()
    text = repr(a)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}={getattr(a, name)!r}" in text for name in fields(cls))


def test_graph_caches_still_fill_on_a_frozen_value():
    g = gr.cycle(5)
    assert g.content_hash() == gr.cycle(5).content_hash()
    assert g.neighbors(0) == (1, 4)  # a cached_property
    assert {"_digest", "_adj"} <= set(vars(g))
    assert g == gr.cycle(5)  # cached values take no part in ==


def test_repr_of_a_graph_caches_no_edge_set():
    # `edges` is a cached frozenset: on K30 x K30 direct, 36 MB that one
    # repr (a failing test's message) would otherwise pin for the graph's life
    g = gr.cycle(5)
    text = repr(g)
    assert "edges" not in vars(g)
    assert text == f"Graph(n=5, edges={g.edges!r})"


@pytest.mark.parametrize("make", [
    lambda: gr.complete(6),
    lambda: gr.read_graph_text(gr.complete(6).canonical_text()),
    lambda: gr.read_graph_text("6 1\n5  0\n"),
], ids=["built", "read-in-bulk", "read-by-the-line-loop"])
def test_a_graph_keeps_its_digest_not_its_text(make):
    g = make()
    text = g.canonical_text()
    assert g.content_hash() == hashlib.sha256(text.encode("ascii")).hexdigest()
    kept = [v for v in vars(g).values() if isinstance(v, str)]
    assert kept == [g.content_hash()] and len(kept[0]) == 64


def test_models_normalise_their_fields_when_made():
    made = OddExpansionModel([*EDGE.trees], EDGE.coloring.items(), {(0, 1): (1, 0)}, ["a"])
    assert made.coloring == {0: 1, 1: 1} and type(made.coloring) is dict
    assert made.connectors == {(0, 1): (0, 1)}
    assert made.notes == ("a",)


@pytest.mark.parametrize("modules", ["oddminors.cli",
                                     "oddminors.expansion, oddminors.graphs, oddminors.oracle",
                                     "oddminors.cli, oddminors.constructions, oddminors.oracle"])
def test_commands_start_without_dataclasses_or_inspect(modules):
    # every CLI command and witness decision is a fresh process that runs
    # without bytecode, where `dataclasses` (and the `inspect` it loads)
    # cost about a fifth of the start-up; `hashlib` loads OpenSSL's
    # libcrypto through `_hashlib`, about 3 MB of each process's peak RSS
    src = str(Path(gr.__file__).resolve().parents[1])
    probe = (f"import sys; before = set(sys.modules); import {modules}; "
             f"print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert modules.split(", ")[-1] in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "hashlib" not in loaded and "_hashlib" not in loaded


def test_verify_loads_neither_the_constructions_nor_the_oracle(tmp_path):
    # `python -m oddminors verify ...` compiles only the modules it runs:
    # `cli` imports `constructions` for `construct` and `table` alone, and
    # `oracle` for `exact` and `table`.  `-X importtime` names every module
    # the command imports.
    from oddminors.expansion import odd_cycle_model, serialize_model
    g = gr.cycle(5)
    (tmp_path / "c5.graph").write_text(g.canonical_text())
    (tmp_path / "c5.cert").write_text(serialize_model(odd_cycle_model(g), g.content_hash()))
    src = str(Path(gr.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "oddminors", "verify",
                           "c5.graph", "c5.cert", "--strict"], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "PASS order=3\n"), proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {m for m in loaded if m.startswith("oddminors.")} == {
        "oddminors.cli", "oddminors.errors", "oddminors.expansion", "oddminors.graphs"}
    assert "_hashlib" not in loaded
