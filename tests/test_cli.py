import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from oddminors import cli
from oddminors import constructions as cons
from oddminors import graphs as gr
from oddminors import oracle
from oddminors.errors import ConsistencyError
from oddminors.expansion import (OddExpansionModel, odd_cycle_model, parse_model,
                                 serialize_model, singleton_model, verify_odd_expansion)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "p.graph"
    code, stdout, _ = run(capsys, "product", "strong", "complete:3", "complete:3",
                          "--out", str(out))
    assert code == 0
    assert stdout.splitlines()[0] == "n=9 m=36"
    g = gr.read_graph_text(out.read_text())
    assert g.n == 9 and g.m == 36
    assert out.read_text() == gr.write_graph_text(g)


def test_product_examples(tmp_path, capsys):
    out = tmp_path / "p.graph"
    code, stdout, _ = run(capsys, "product", "cartesian", "complete:2", "complete:2",
                          "--out", str(out))
    assert code == 0 and "n=4 m=4" in stdout
    code, stdout, _ = run(capsys, "product", "direct", "complete:2", "complete:2",
                          "--out", str(out))
    assert code == 0 and "n=4 m=2" in stdout


def test_product_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n0 0\n")
    code, _, stderr = run(capsys, "product", "direct", str(bad), "complete:2",
                          "--out", str(tmp_path / "x.graph"))
    assert code == 2 and "bad.graph" in stderr


# complete:300 factors (44,850 edges each) stand in for complete:3000 ones,
# which are under the cap themselves and take seconds to build.
@pytest.mark.parametrize("first, second", [
    ("complete:100000", "complete:2"),  # 5.0e9 edges
    ("hamming:100,5", "complete:2"),  # 2.5e12 edges
    ("hamming:2,1000000000", "complete:2"),  # too large to compute 2^d
    ("complete:300", "complete:300"),  # a direct product of 4.0e9 edges
])
def test_hostile_sizes_fail_before_allocating(tmp_path, capsys, first, second):
    out = tmp_path / "x.graph"
    tracemalloc.start()
    try:
        code, _, stderr = run(capsys, "product", "direct", first, second, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "edges, more than" in stderr
    assert peak < 64 * 2**20 and not out.exists()


def test_hamming_power_of_k1_is_k1_at_once(tmp_path, capsys):
    out = tmp_path / "x.graph"
    start = time.perf_counter()
    code, _, _ = run(capsys, "product", "direct", "hamming:1,100000000", "complete:2",
                     "--out", str(out))
    assert code == 0 and time.perf_counter() - start < 1.0
    assert gr.read_graph_text(out.read_text()) == gr.Graph(2, frozenset())


# A child process that caps its own address space at 1 GiB before it runs
# the CLI, so that code which renders a hostile vertex count fails there
# with MemoryError instead of exhausting the machine.  It reports the time
# the command took, without the interpreter's start-up.
CAPPED_CLI = """import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from oddminors.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"elapsed_s {time.perf_counter() - start}", file=sys.stderr)
sys.exit(code)
"""


def run_capped(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr[-2000:]
    message, _, elapsed = proc.stderr.rpartition("elapsed_s ")
    return message, float(elapsed)


def test_verify_refuses_a_hostile_vertex_count(tmp_path):
    graph, cert = tmp_path / "huge.graph", tmp_path / "c.cert"
    graph.write_text("100000000 0\n")
    cert.write_text(serialize_model(singleton_model(gr.complete(1)), "0" * 64))
    message, elapsed = run_capped("verify", str(graph), str(cert))
    assert "vertex count 100000000 is more than 10000000" in message
    assert elapsed < 1.0


def test_product_refuses_a_hostile_vertex_count(tmp_path):
    first, second, out = tmp_path / "a.graph", tmp_path / "b.graph", tmp_path / "x.graph"
    for edgeless in (first, second):
        edgeless.write_text("10000 0\n")
    message, _ = run_capped("product", "direct", str(first), str(second), "--out", str(out))
    assert "100000000 vertices, more than 10000000" in message and not out.exists()


# (theorem, parameters of a host above the edge cap, complete factor orders
# with identity certificates or None, its certificate builder)
@pytest.mark.parametrize("theorem, argv, factors, builder", [
    ("cartesian-complete", ["--s", "400", "--t", "400"], None, "cartesian_complete_model"),  # 63.8M edges
    ("stars", ["--r", "2000", "--t", "2000"], None, "star_model"),  # 16.0M edges
    ("hamming", ["--n", "2", "--d", "21"], None, "hamming_model"),  # 22.0M edges
    ("strong", [], (72, 72), "strong_model"),  # 13.4M edges
    ("lex", [], (72, 72), "strong_model"),  # 13.4M edges
    ("cartesian-lift", [], (220, 220), "cartesian_lift"),  # 10.6M edges
    ("best", ["--kind", "strong"], (72, 72), "best_lower_bound"),  # 13.4M edges
], ids=["cartesian-complete", "stars", "hamming", "strong", "lex", "cartesian-lift", "best"])
def test_construct_refuses_an_oversized_host_before_its_certificate(
        tmp_path, capsys, monkeypatch, theorem, argv, factors, builder):
    for tag, n in zip("ab", factors or ()):
        k, cert = gr.complete(n), tmp_path / f"{tag}.cert"
        cert.write_text(serialize_model(cons.identity_model(k), k.content_hash()))
        argv = [*argv, f"--factor-{tag}", f"complete:{n}", f"--model-{tag}", str(cert)]

    def refuse(*args):
        raise AssertionError(f"{builder} ran before the edge cap")
    monkeypatch.setattr(cons, builder, refuse)
    out = tmp_path / "c.cert"
    code, _, stderr = run(capsys, "construct", theorem, *argv, "--out", str(out))
    assert code == 2 and "edges, more than" in stderr and not out.exists()


def test_construct_and_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    graph = tmp_path / "c.graph"
    code, stdout, _ = run(capsys, "construct", "direct-k3", "--t", "7",
                          "--out", str(cert), "--graph-out", str(graph))
    assert code == 0
    assert "order: 9" in stdout and "verdict: PASS" in stdout
    code, stdout, _ = run(capsys, "verify", str(graph), str(cert), "--strict")
    assert code == 0 and stdout.startswith("PASS order=9")


def test_construct_family_params(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    code, stdout, _ = run(capsys, "construct", "cartesian-complete",
                          "--s", "5", "--t", "7", "--out", str(cert))
    assert code == 0 and "order: 10" in stdout
    code, stdout, _ = run(capsys, "construct", "hamming", "--n", "4", "--d", "2",
                          "--out", str(cert))
    assert code == 0 and "order: 6" in stdout
    code, stdout, _ = run(capsys, "construct", "stars", "--r", "2", "--t", "5",
                          "--out", str(cert))
    assert code == 0 and "order: 4" in stdout


def test_construct_parameter_error_names_the_precondition(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "direct-k3", "--t", "5",
                          "--out", str(tmp_path / "c.cert"))
    assert code == 2 and "t >= 6" in stderr


def test_construct_with_factor_files(tmp_path, capsys):
    ga = tmp_path / "a.graph"
    gb = tmp_path / "b.graph"
    ca = tmp_path / "a.cert"
    cb = tmp_path / "b.cert"
    run(capsys, "product", "cartesian", "complete:2", "complete:2", "--out", str(ga))
    gb.write_text(ga.read_text())
    # order-2 certificates for the 4-cycle via exact search
    run(capsys, "exact", str(ga), "--out", str(ca))
    run(capsys, "exact", str(gb), "--out", str(cb))
    out = tmp_path / "strong.cert"
    code, stdout, _ = run(capsys, "construct", "strong",
                          "--factor-a", str(ga), "--model-a", str(ca),
                          "--factor-b", str(gb), "--model-b", str(cb),
                          "--out", str(out))
    assert code == 0 and "order: 4" in stdout
    code, stdout, _ = run(capsys, "construct", "best", "--kind", "strong",
                          "--factor-a", str(ga), "--model-a", str(ca),
                          "--factor-b", str(gb), "--model-b", str(cb),
                          "--out", str(out))
    assert code == 0 and "order: 4" in stdout


@pytest.mark.parametrize("argv, message", [
    (["construct", "stars", "--r", "2", "--t", "2", "--s", "99"], "theorem 'stars' takes no --s"),
    (["construct", "stars", "--r", "2", "--t", "2", "--factor-a", "nothing"],
     "theorem 'stars' takes no --factor-a"),
    (["construct", "strong", "--factor-a", "complete:3", "--model-a", "a.cert",
      "--factor-b", "complete:3", "--model-b", "b.cert", "--base", "nonexistent.cert"],
     "theorem 'strong' takes no --base"),
    (["table", "stars", "--s", "3"], "theorem 'stars' takes no --s"),
], ids=["param", "factor-file", "base", "table-range"])
def test_options_a_theorem_does_not_read_are_refused(tmp_path, capsys, argv, message):
    if argv[0] == "construct":
        argv = [*argv, "--out", str(tmp_path / "c.cert")]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and message in stderr and stdout == ""
    assert not (tmp_path / "c.cert").exists()


def test_verify_detects_tampering(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    graph = tmp_path / "c.graph"
    run(capsys, "construct", "cartesian-complete", "--s", "3", "--t", "3",
        "--out", str(cert), "--graph-out", str(graph))
    text = cert.read_text()
    # flip the first singleton's color
    tampered = tmp_path / "t.cert"
    tampered.write_text(text.replace("0=1", "0=2", 1))
    code, stdout, _ = run(capsys, "verify", str(graph), str(tampered))
    assert code == 1 and stdout.startswith("FAIL ")
    # the verdict ends with its message, printed once
    assert stdout.count("\n") == 1 and "detail:" not in stdout


def test_verify_names_the_line_of_a_parse_error(tmp_path, capsys):
    c5 = gr.cycle(5)
    text = serialize_model(odd_cycle_model(c5), c5.content_hash())
    cert = tmp_path / "c5.cert"
    cert.write_text(text.replace("tree: 0\n", "tree: 0 0\n"))  # line 5, after 113 characters
    code, stdout, stderr = run(capsys, "verify", "cycle:5", str(cert))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {cert}: duplicate vertex 0 field=tree[0] line=5 offset=113\n"


def test_verify_hash_mismatch(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    run(capsys, "construct", "cartesian-complete", "--s", "3", "--t", "3",
        "--out", str(cert))
    other = tmp_path / "other.graph"
    run(capsys, "product", "cartesian", "complete:2", "complete:2", "--out", str(other))
    code, stdout, _ = run(capsys, "verify", str(other), str(cert))
    assert code == 4 and stdout.startswith("HASH-MISMATCH")
    # but a valid pair still passes when the hash check is bypassed
    code, _, _ = run(capsys, "verify", str(other), str(cert), "--ignore-hash")
    assert code == 1  # different graph, genuinely fails verification


def test_exact_command(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exact", "cycle:5", "--out", str(tmp_path / "c5.cert"))
    assert code == 0 and stdout.splitlines()[0] == "EXACT 3"
    code, stdout, _ = run(capsys, "exact", "cycle:6", "--out", str(tmp_path / "c6.cert"))
    assert code == 0 and stdout.splitlines()[0] == "EXACT 2"
    code, stdout, _ = run(capsys, "exact", "complete:5", "--out", str(tmp_path / "k5.cert"))
    assert code == 0 and stdout.splitlines()[0] == "EXACT 5"
    model, stored_hash = parse_model((tmp_path / "c5.cert").read_text())
    assert stored_hash == gr.cycle(5).content_hash()
    assert verify_odd_expansion(gr.cycle(5), model).passed


def test_exact_reports_the_searchs_own_time(tmp_path, capsys, monkeypatch):
    result = oracle.ExactResult("exact", 3, odd_cycle_model(gr.cycle(3)), 4, 7, 2.5)
    monkeypatch.setattr(oracle, "odd_hadwiger", lambda g, budget: result)
    code, stdout, _ = run(capsys, "exact", "cycle:3", "--out", str(tmp_path / "c3.cert"))
    assert code == 0
    assert stdout.splitlines()[2:] == ["nodes: 7", "time_s: 2.500"]


def test_exact_timeout_exit_code(tmp_path, capsys):
    graph = tmp_path / "host.graph"
    run(capsys, "product", "cartesian", "complete:4", "complete:4", "--out", str(graph))
    code, stdout, _ = run(capsys, "exact", str(graph), "--nodes", "5",
                          "--out", str(tmp_path / "h.cert"))
    assert code == 3 and stdout.splitlines()[0].startswith("TIMEOUT best=")


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_exact_refuses_a_time_limit_that_is_not_positive(limit, capsys):
    # a NaN passes `x <= 0`, and its deadline would never come
    code, stdout, stderr = run(capsys, "exact", "complete:5", "--time", limit, "--strict")
    assert code == 2 and stdout == ""
    assert "all budget fields must be positive" in stderr


def test_exact_strict_output_is_byte_identical(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, stdout, _ = run(capsys, "exact", "cycle:7", "--strict",
                              "--out", str(tmp_path / "c7.cert"))
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    assert "time_s" not in outputs[0]


def test_table_direct_k3(capsys):
    code, stdout, _ = run(capsys, "table", "direct-k3", "--t", "6..10")
    assert code == 0
    rows = stdout.splitlines()
    assert rows[0].split() == ["t", "order", "verdict"]
    orders = [row.split()[1] for row in rows[1:]]
    assert orders == ["8", "9", "10", "11", "12"]
    assert all(row.split()[2] == "PASS" for row in rows[1:])


def test_table_direct_general_default_ranges(capsys):
    code, stdout, _ = run(capsys, "table", "direct-general")
    assert code == 0
    rows = [row.split() for row in stdout.splitlines()]
    assert rows[0] == ["t", "s", "order", "verdict"]
    assert [(int(t), int(s)) for t, s, _, _ in rows[1:]] == [
        (t, s) for t in range(4, 7) for s in range(3, 7)]
    for t, s, order, verdict in rows[1:]:
        assert int(order) == int(t) * (int(s) // 3) and verdict == "PASS"


def test_table_stars_case_split(capsys):
    code, stdout, _ = run(capsys, "table", "stars", "--r", "1..4", "--t", "1..4")
    assert code == 0
    for row in stdout.splitlines()[1:]:
        r, t, order, verdict = row.split()
        r, t, order = int(r), int(t), int(order)
        assert verdict == "PASS"
        assert order == (r + 1 if r == t else min(r, t) + 2)


def test_table_cartesian_complete_with_oracle(capsys):
    code, stdout, _ = run(capsys, "table", "cartesian-complete",
                          "--s", "2..3", "--t", "2..3", "--oracle")
    assert code == 0
    for row in stdout.splitlines()[1:]:
        s, t, order, verdict, oracle = row.split()
        assert verdict == "PASS" and oracle == "ok"
        assert int(order) == int(s) + int(t) - 2


def test_unknown_inline_spec(capsys, tmp_path):
    code, _, stderr = run(capsys, "product", "direct", "blah:2", "complete:2",
                          "--out", str(tmp_path / "x.graph"))
    assert code == 2


@pytest.mark.parametrize("argv", [["direct-k3", "--t", "3..1"],
                                  ["stars", "--r", "1..2", "--t", "5..4"]])
def test_table_empty_range_is_an_error(capsys, argv):
    code, stdout, stderr = run(capsys, "table", *argv)
    assert code == 2 and "bad range" in stderr
    assert stdout == ""


def test_construct_refuses_a_second_model_of_another_graph(tmp_path, capsys):
    k2 = gr.complete(2)
    cert = tmp_path / "k2.cert"
    cert.write_text(serialize_model(cons.identity_model(k2), k2.content_hash()))
    code, stdout, stderr = run(capsys, "construct", "strong",
                               "--factor-a", "complete:2", "--model-a", str(cert),
                               "--factor-b", "complete:3", "--model-b", str(cert),
                               "--out", str(tmp_path / "c.cert"))
    assert (code, stdout) == (4, "")
    assert stderr == "error: --model-b hash does not match --factor-b\n"


def test_construct_refuses_a_factor_certificate_that_fails_verification(tmp_path, capsys):
    # two singletons of different colors: K2's one edge joins them bichromatically
    k2 = gr.complete(2)
    bad = tmp_path / "bad.cert"
    split = OddExpansionModel(cons.identity_model(k2).trees, {0: 1, 1: 2})
    bad.write_text(serialize_model(split, k2.content_hash()))
    good = tmp_path / "good.cert"
    good.write_text(serialize_model(cons.identity_model(k2), k2.content_hash()))
    code, stdout, stderr = run(capsys, "construct", "strong",
                               "--factor-a", "complete:2", "--model-a", str(bad),
                               "--factor-b", "complete:2", "--model-b", str(good),
                               "--out", str(tmp_path / "c.cert"))
    assert (code, stdout) == (1, "")
    assert stderr == ("error: first factor model fails verification: FAIL connector_missing "
                      "trees=0,1 no monochromatic edge between trees 0 and 1\n")


def test_exact_above_the_vertex_cap_prints_a_lower_bound(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exact", "cycle:17", "--strict",
                          "--out", str(tmp_path / "c17.cert"))
    assert code == 0 and stdout.splitlines()[0] == "LOWER_BOUND 3"


@pytest.mark.parametrize("budget, cells", [
    (["--max-n", "4"], ["ok", "-", "-", "-"]),
    (["--nodes", "1"], ["timeout"] * 4),
], ids=["over-the-cap", "out-of-nodes"])
def test_table_oracle_cells_without_a_search_result(capsys, budget, cells):
    code, stdout, _ = run(capsys, "table", "cartesian-complete",
                          "--s", "2..3", "--t", "2..3", "--oracle", *budget)
    assert code == 0
    rows = [row.split() for row in stdout.splitlines()]
    assert rows[0] == ["s", "t", "order", "verdict", "oracle"]
    assert [row[-1] for row in rows[1:]] == cells
    assert all(row[3] == "PASS" for row in rows[1:])


@pytest.mark.parametrize("budget", [["--max-n", "0"], ["--time", "0"]], ids=["max-n", "time"])
def test_table_oracle_refuses_a_bad_budget_before_its_header(capsys, budget):
    # as `exact` does: not a `-` in every row, nor a header and then exit 2
    code, stdout, stderr = run(capsys, "table", "stars", "--r", "1..2", "--t", "1..2",
                               "--oracle", *budget)
    assert (code, stdout) == (2, "")
    assert stderr == "error: all budget fields must be positive\n"
    assert run(capsys, "exact", "cycle:5", *budget) == (2, "", stderr)


@pytest.mark.parametrize("limit", [["--time", "-5"], ["--nodes", "3"], ["--max-n", "0"]],
                         ids=["time", "nodes", "max-n"])
def test_table_refuses_search_limits_without_oracle(capsys, limit):
    # the limits bound the oracle's searches alone: without --oracle they
    # would be read by nothing, so they are refused before the header
    code, stdout, stderr = run(capsys, "table", "stars", "--r", "1", "--t", "1", *limit)
    assert (code, stdout) == (2, "")
    assert stderr == "error: --time, --nodes and --max-n apply only with --oracle\n"


def test_the_search_commands_pass_only_the_limits_given(tmp_path, capsys, monkeypatch):
    # `SearchBudget` holds the defaults; `table` builds one budget for every row
    budgets = []

    def search(host, r, budget):
        budgets.append(budget)
        return singleton_model(host)
    monkeypatch.setattr(oracle, "has_odd_clique_minor", search)
    code, _, _ = run(capsys, "table", "stars", "--r", "1..2", "--t", "1", "--oracle",
                     "--nodes", "5")
    assert code == 0 and len(budgets) == 2 and budgets[0] is budgets[1]
    assert budgets[0] == oracle.SearchBudget(node_limit=5)
    result = oracle.ExactResult("exact", 3, odd_cycle_model(gr.cycle(3)), 4, 7, 2.5)
    monkeypatch.setattr(oracle, "odd_hadwiger", lambda g, budget: budgets.append(budget) or result)
    for argv, want in [([], oracle.SearchBudget()),
                       (["--time", "2", "--max-n", "9"], oracle.SearchBudget(9, 2.0))]:
        assert run(capsys, "exact", "cycle:3", "--out", str(tmp_path / "c3.cert"), *argv)[0] == 0
        assert budgets[-1] == want


class _Recording:
    """A text file that records the length of every write made on it."""

    def __init__(self, file, sizes: list):
        self.file, self.sizes = file, sizes

    def write(self, piece: str) -> int:
        self.sizes.append(len(piece))
        return self.file.write(piece)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.file.__exit__(*exc)


def test_construct_writes_its_files_a_piece_at_a_time(tmp_path, capsys, monkeypatch):
    # every write on the files `_write_text` opens is recorded: together the
    # writes make up each file, none holds a file's whole text, and no piece
    # of the host's text is longer than `_CHUNK` and one row's lines
    writes = {}

    def recording_open(path, *args, **kwargs):
        return _Recording(open(path, *args, **kwargs), writes.setdefault(Path(path).name, []))

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out, graph = tmp_path / "out.cert", tmp_path / "out.graph"
    code, _, stderr = run(capsys, "construct", "direct-general", "--t", "20", "--s", "20",
                          "--out", str(out), "--graph-out", str(graph), "--strict")
    assert code == 0, stderr
    for path in (out, graph):
        sizes, size = writes.get(path.name, []), len(path.read_text())
        assert sum(sizes) == size
        assert max(sizes) < size
    host = gr.read_graph_text(graph.read_text())
    row = max(sum(len(f"{u} {v}\n") for v in row) for u, row in host.rows())
    assert max(writes[graph.name]) <= gr._CHUNK + row


PHASES = ["host", "host_text", "model", "certificate", "reread", "verify"]


@pytest.mark.parametrize("graph_out", [True, False], ids=["graph-out", "no-graph-out"])
def test_construct_stats_writes_its_phases_to_stderr(tmp_path, capsys, graph_out):
    argv = ["construct", "direct-general", "--t", "5", "--s", "7", "--strict",
            "--out", str(tmp_path / "c.cert")]
    if graph_out:
        argv += ["--graph-out", str(tmp_path / "c.graph")]
    code, plain, stderr = run(capsys, *argv)
    assert (code, stderr) == (0, "")
    code, stdout, stderr = run(capsys, *argv, "--stats")
    assert code == 0 and stdout == plain
    phases = json.loads(stderr)["phases"]
    assert list(phases) == PHASES
    assert all(phase["wall_s"] >= 0 for phase in phases.values())
    rss = [phase["ru_maxrss"] for phase in phases.values()]
    assert rss == sorted(rss) and rss[0] > 0


def test_construct_imports_resource_only_for_stats(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import sys; from oddminors import cli; "
              "code = cli.main(sys.argv[1:]); print('resource' in sys.modules); sys.exit(code)")
    for flag, imported in (([], "False"), (["--stats"], "True")):
        proc = subprocess.run([sys.executable, "-c", script, "construct", "direct-k3", "--t", "7",
                               "--strict", "--out", str(tmp_path / "c.cert"), *flag],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == imported


@pytest.mark.parametrize("option", ["--out", "--graph-out"])
def test_a_file_under_a_missing_directory_cannot_be_written(tmp_path, capsys, option):
    paths = {"--out": tmp_path / "c.cert", "--graph-out": tmp_path / "c.graph"}
    paths[option] = tmp_path / "missing" / "file"
    code, stdout, stderr = run(capsys, "construct", "direct-k3", "--t", "7", "--strict",
                               "--out", str(paths["--out"]), "--graph-out", str(paths["--graph-out"]))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: cannot write {paths[option]}: ")


@pytest.mark.parametrize("which", ["graph", "certificate"])
def test_a_directory_is_neither_a_graph_nor_a_certificate(tmp_path, capsys, which):
    files = {"graph": tmp_path / "c.graph", "certificate": tmp_path / "c.cert"}
    code, *_ = run(capsys, "construct", "direct-k3", "--t", "7", "--strict",
                   "--out", str(files["certificate"]), "--graph-out", str(files["graph"]))
    assert code == 0
    files[which] = tmp_path
    code, stdout, stderr = run(capsys, "verify", str(files["graph"]), str(files["certificate"]))
    assert (code, stdout) == (2, "")
    noun = "graph file" if which == "graph" else "certificate"
    assert stderr.startswith(f"error: cannot read {noun} {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    ["verify", "{bad}", "{cert}"],
    ["verify", "{graph}", "{bad}"],
    ["exact", "{bad}", "--out", "{out}"],
    ["product", "strong", "{bad}", "complete:2", "--out", "{out}"],
    ["construct", "strong", "--factor-a", "{bad}", "--model-a", "{cert}",
     "--factor-b", "{graph}", "--model-b", "{cert}", "--out", "{out}"],
    ["construct", "strong", "--factor-a", "{graph}", "--model-a", "{bad}",
     "--factor-b", "{graph}", "--model-b", "{cert}", "--out", "{out}"],
], ids=["verify-graph", "verify-certificate", "exact", "product", "construct-factor-a",
        "construct-model-a"])
def test_a_file_that_is_not_utf8_is_a_parameter_error(tmp_path, capsys, argv):
    c5 = gr.cycle(5)
    files = {"graph": tmp_path / "c5.graph", "cert": tmp_path / "c5.cert",
             "bad": tmp_path / "bad", "out": tmp_path / "out"}
    files["graph"].write_text(c5.canonical_text(), encoding="utf-8")
    files["cert"].write_text(serialize_model(odd_cycle_model(c5), c5.content_hash()),
                             encoding="utf-8")
    files["bad"].write_bytes(b"5 5\n0 1\xff\n")  # 0xff starts no UTF-8 sequence
    code, stdout, stderr = run(capsys, *[arg.format(**files) for arg in argv])
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: {files['bad']}: 'utf-8' codec can't decode byte 0xff "
                      "in position 7: invalid start byte\n")
    assert not files["out"].exists()


def test_exact_without_out_writes_exact_oh_cert(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "exact", "cycle:5", "--strict")
    assert code == 0 and stdout == "EXACT 3\ncertificate: exact.oh.cert\n"
    model, stored_hash = parse_model((tmp_path / "exact.oh.cert").read_text())
    assert stored_hash == gr.cycle(5).content_hash()
    assert verify_odd_expansion(gr.cycle(5), model, strict=True).passed


def test_a_bad_inline_spec_or_range_is_a_parameter_error(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "product", "direct", "complete:x", "complete:2",
                               "--out", str(tmp_path / "x.graph"))
    assert (code, stdout) == (2, "")
    assert stderr == "error: bad inline graph spec 'complete:x'\n"
    code, stdout, stderr = run(capsys, "table", "stars", "--r", "1..x")
    assert (code, stdout) == (2, "")
    assert stderr == "error: bad range '1..x', expected 'a..b' or a single integer\n"


def test_table_row_that_fails_strict_verify_prints_fail(capsys, monkeypatch):
    built = cons.star_model

    def without_connectors(r, t):  # which strict verify needs
        model = built(r, t)
        return OddExpansionModel(model.trees, model.coloring)
    monkeypatch.setattr(cons, "star_model", without_connectors)
    code, stdout, _ = run(capsys, "table", "stars", "--r", "1..2", "--t", "1")
    assert code == 1
    assert stdout.splitlines() == ["r t order verdict", "1 1 2 FAIL", "2 1 3 FAIL"]


def test_table_row_the_oracle_cannot_find_prints_absent(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "has_odd_clique_minor", lambda host, r, budget: None)
    code, stdout, _ = run(capsys, "table", "stars", "--r", "1", "--t", "1", "--oracle")
    assert code == 1
    assert stdout.splitlines() == ["r t order verdict oracle", "1 1 2 PASS absent"]


def test_a_broken_construction_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(host, t):
        raise ConsistencyError("no monochromatic edge between trees 0 and 1")
    theorem = cons.THEOREMS["direct-k3"]
    monkeypatch.setitem(cons.THEOREMS, "direct-k3", cons.Theorem(
        theorem.params, theorem.host, broken, table=theorem.table))
    out = tmp_path / "c.cert"
    code, stdout, stderr = run(capsys, "construct", "direct-k3", "--t", "7", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == "internal error: no monochromatic edge between trees 0 and 1\n"
    assert not out.exists()
