from pathlib import Path

import pytest

from oddminors import cli
from oddminors import graphs as gr
from oddminors.expansion import parse_model, verify_odd_expansion


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


def test_exact_timeout_exit_code(tmp_path, capsys):
    graph = tmp_path / "host.graph"
    run(capsys, "product", "cartesian", "complete:4", "complete:4", "--out", str(graph))
    code, stdout, _ = run(capsys, "exact", str(graph), "--nodes", "5",
                          "--out", str(tmp_path / "h.cert"))
    assert code == 3 and stdout.splitlines()[0].startswith("TIMEOUT best=")


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
