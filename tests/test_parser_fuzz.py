"""Fuzz tests of the two parsers: whatever the input, `parse_model` and
`read_graph_text` return a value or raise `ParseError`, never another
exception.  Inputs are arbitrary text, and text built from
the format's own keys and tokens, or from valid documents with edits.

Both parsers read a canonical number list in bulk, through the one chunked
scanner `graphs._decimal_chunks`, and hand any other input whole to their
tolerant loop.  `read_graph_text` is checked against a test-local copy of
its tolerant line loop: every input must read as the line loop reads it,
to the same graph or the same error.  Likewise every input must parse as
`parse_model` parses it with the scanner switched off, which leaves the
token loop to read the whole connector line.  Both checks run at small
chunk sizes too, so that flaws fall on every side of a cut."""

import hashlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import expansion as ex
from oddminors import graphs as gr
from oddminors.constructions import identity_model, strong_model
from oddminors.errors import ParseError
from oddminors.expansion import odd_cycle_model, parse_model, serialize_model

C5 = gr.cycle(5)
K3 = gr.complete(3)
K3_MODEL = odd_cycle_model(K3)
STRONG = gr.product("strong", K3, K3)
VALID_CERTIFICATES = [
    serialize_model(odd_cycle_model(C5), C5.content_hash()),
    serialize_model(strong_model(K3, K3_MODEL, K3, K3_MODEL, "strong"), STRONG.content_hash()),
]
VALID_GRAPHS = [C5.canonical_text(), STRONG.canonical_text(), "1 0\n"]

CERTIFICATE_KEYS = ("version", "graph_hash", "clique_order", "trees", "tree", "edges",
                    "coloring", "connectors", "meta")
NOISE = st.text(alphabet="0123456789-,=: abfx\t", max_size=8)
INT = st.integers(-2, 12).map(str)
# ints, "u-v" edges, "v=c" colors, "i,j=u-v" connectors, and noise
TOKENS = st.one_of(INT, st.builds("{}-{}".format, INT, INT), st.builds("{}={}".format, INT, INT),
                   st.builds("{},{}={}-{}".format, INT, INT, INT, INT), NOISE)


@st.composite
def edited(draw, documents, keys=()):
    """A valid document after a few edits: a line deleted, cut short or
    inserted, or one token of a line replaced, dropped or repeated."""
    out = draw(st.sampled_from(documents)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        action = draw(st.sampled_from(("delete", "cut", "insert", "token", "token", "token")))
        if action == "insert" or at == len(out):
            key = draw(st.sampled_from(keys)) + ": " if keys else ""
            out.insert(at, key + " ".join(draw(st.lists(TOKENS, max_size=4))))
        elif action == "delete":
            del out[at]
        elif action == "cut":
            out[at] = out[at][:draw(st.integers(0, len(out[at])))]
        else:
            words = out[at].split(" ")
            k = draw(st.integers(0, len(words) - 1))
            words[k:k + 1] = draw(st.sampled_from(([], [words[k]] * 2, [draw(TOKENS)])))
            out[at] = " ".join(words)
    return "\n".join(out) + draw(st.sampled_from(("", "\n", "\r\n", " ")))


CERTIFICATE_TEXTS = st.one_of(
    st.text(max_size=200),
    st.lists(st.builds("{}: {}".format, st.sampled_from(CERTIFICATE_KEYS),
                       st.lists(TOKENS, max_size=4).map(" ".join)), max_size=10).map("\n".join),
    edited(VALID_CERTIFICATES, CERTIFICATE_KEYS),
)

GRAPH_TEXTS = st.one_of(
    st.text(max_size=200),
    st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=10).map("\n".join),
    edited(VALID_GRAPHS),
)


@settings(max_examples=300, deadline=None)
@given(CERTIFICATE_TEXTS)
def test_parse_model_raises_only_parse_error(text):
    try:
        model, graph_hash = parse_model(text)
    except ParseError:
        return
    assert parse_model(serialize_model(model, graph_hash)) == (model, graph_hash)


@settings(max_examples=300, deadline=None)
@given(GRAPH_TEXTS)
def test_read_graph_text_raises_only_parse_error(text):
    try:
        g = gr.read_graph_text(text)
    except ParseError:
        return
    assert gr.read_graph_text(g.canonical_text()) == g


def reference_read(text):
    """The tolerant line loop of `read_graph_text`, the reference for its
    bulk path on canonical text."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty graph text", line=1, offset=0)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", field="header", line=1, offset=0)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", field="header", line=1, offset=0)
    if n < 0:
        raise ParseError(f"vertex count must be non-negative, got {n}", field="header",
                         line=1, offset=0)
    if n > gr.MAX_EDGES:
        raise ParseError(f"vertex count {n} is more than {gr.MAX_EDGES}", field="header",
                         line=1, offset=0)
    # line k + 1 starts after the k lines before it, line ends included
    starts = list(itertools.accumulate(map(len, text.splitlines(keepends=True)), initial=0))
    body = [(k, ln) for k, ln in enumerate(lines) if k and ln.strip()]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}", field="edges", line=2,
                         offset=starts[1])
    edges = set()
    for i, (k, ln) in enumerate(body):
        parts = ln.split()
        lineno, offset = k + 1, starts[k]
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", field=f"edges[{i}]", line=lineno, offset=offset)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", field=f"edges[{i}]", line=lineno, offset=offset)
        if u == v:
            raise ParseError(f"self-loop at {u}", field=f"edges[{i}]", line=lineno, offset=offset)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) outside vertex range", field=f"edges[{i}]", line=lineno, offset=offset)
        e = gr.norm_edge(u, v)
        if e in edges:
            raise ParseError(f"duplicate edge ({u},{v})", field=f"edges[{i}]", line=lineno, offset=offset)
        edges.add(e)
    return gr.Graph(n, frozenset(edges))


def reference_text(g):
    """The canonical text from one sort of all edge tuples."""
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def refuse(*args):
    raise AssertionError("switched off")


def read_in_bulk(text):
    """`read_graph_text(text)` with the line loop and the renderer switched
    off: only the bulk path can read it, and the graph must know its digest
    from the input, without a render."""
    with mock.patch.object(gr, "_read_lines", refuse), mock.patch.object(gr.Graph, "_pieces", refuse):
        g = gr.read_graph_text(text)
        assert g.content_hash() == hashlib.sha256(text.encode("ascii")).hexdigest()
    return g


def assert_reads_like_reference(text):
    """`read_graph_text` gives the reference's graph or its error; an
    accepted graph hashes its canonical text, and canonical input is read
    by the bulk path, which takes the digest from it."""
    try:
        expected = reference_read(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            gr.read_graph_text(text)
        fields = lambda err: (str(err), err.field, err.line, err.offset)
        assert fields(got.value) == fields(e)
        return
    g = gr.read_graph_text(text)
    assert g == expected
    rendered = reference_text(expected)
    assert g.content_hash() == hashlib.sha256(rendered.encode("ascii")).hexdigest()
    if text == rendered:
        assert read_in_bulk(text) == expected


@st.composite
def random_graphs(draw, min_edges=0):
    n = draw(st.integers(3 if min_edges else 0, 40))  # K3 has 3 edges
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=min_edges, max_size=120)) if pairs else set()
    return gr.Graph(n, frozenset(edges))


FLAWS = ("swapped-ends", "out-of-order", "duplicate", "leading-zeros", "plus-sign", "tab",
         "crlf", "blank-line", "no-final-newline", "three-tokens", "wrong-m", "n-too-small",
         "non-ascii-digits", "double-space", "token-moved", "missing-end")

# `int` reads these Arabic-Indic digits as 0-9, so the line loop accepts them
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def one_flaw(text, flaw, at):
    """Canonical `text` of a graph with at least two edges, with one flaw
    at edge line `at` (0-based, not the last line for out-of-order and
    token-moved)."""
    head, *lines = text.splitlines()
    n, m = head.split()
    u, v = lines[at].split()
    if flaw == "swapped-ends":
        lines[at] = f"{v} {u}"
    elif flaw == "out-of-order":
        lines[at:at + 2] = lines[at + 1], lines[at]
    elif flaw == "duplicate":
        lines.insert(at, lines[at])
        head = f"{n} {int(m) + 1}"
    elif flaw == "leading-zeros":
        lines[at] = f"00{u} {v}"
    elif flaw == "plus-sign":
        lines[at] = f"+{u} {v}"
    elif flaw == "tab":
        lines[at] = f"{u}\t{v}"
    elif flaw == "crlf":
        lines[at] += "\r"
    elif flaw == "blank-line":
        lines.insert(at, "")
    elif flaw == "three-tokens":
        lines[at] += " 0"
    elif flaw == "missing-end":
        lines[at] = f"{u} "
    elif flaw == "wrong-m":
        head = f"{n} {int(m) - 1}"
    elif flaw == "non-ascii-digits":
        lines[at] = f"{u} {v.translate(ARABIC_INDIC)}"
    elif flaw == "double-space":
        lines[at] = f"{u}  {v}"
    elif flaw == "token-moved":
        # '1 2 3' then '4': as many spaces and line feeds as two edge lines
        first, second = lines[at + 1].split()
        lines[at:at + 2] = f"{u} {v} {first}", second
    elif flaw == "n-too-small":
        head = f"{max(int(x) for ln in lines for x in ln.split())} {m}"
    out = "\n".join([head, *lines]) + "\n"
    return out[:-1] if flaw == "no-final-newline" else out


@st.composite
def flawed_texts(draw):
    g = draw(random_graphs(min_edges=2))
    return one_flaw(g.canonical_text(), draw(st.sampled_from(FLAWS)), draw(st.integers(0, g.m - 2)))


# A 20-character chunk holds a few lines of these small graphs, so most
# texts span many chunks and flaws fall on every side of a cut.
@pytest.mark.parametrize("chunk", [20, gr._CHUNK])
@settings(max_examples=300, deadline=None)
@given(st.one_of(GRAPH_TEXTS, random_graphs().map(gr.Graph.canonical_text), flawed_texts()))
def test_read_graph_text_matches_the_line_loop(chunk, text):
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert_reads_like_reference(text)


BIG = gr.complete(200)  # 19,900 edge lines over three chunks


@pytest.mark.parametrize("where", ["last-chunk", "chunk-boundary"])
@pytest.mark.parametrize("flaw", FLAWS)
def test_read_graph_text_matches_the_line_loop_across_chunks(flaw, where):
    text = reference_text(BIG)
    start = text.index("\n") + 1
    cut = text.rfind("\n", start, start + gr._CHUNK) + 1
    assert len(text) > 2 * gr._CHUNK
    # the last line of the first chunk, which out-of-order swaps with the
    # first line of the second; or the second-to-last line of the text
    at = text.count("\n", start, cut) - 1 if where == "chunk-boundary" else BIG.m - 2
    assert_reads_like_reference(one_flaw(text, flaw, at))


# just above the vertex bound, far above it with an edge, and at it
@pytest.mark.parametrize("text", ["10000001 0\n", "100000000 1\n0 1\n", "10000000 0\n"])
def test_read_graph_text_bounds_the_vertex_count(text):
    assert_reads_like_reference(text)


def test_canonical_text_over_many_chunks_is_read_in_bulk():
    text = reference_text(BIG)
    g = read_in_bulk(text)
    assert g == BIG and g.canonical_text() == text


# one flaw in the header 'n m'; the last count is past int's digit limit,
# so both paths refuse it
HEADER_FLAWS = {"leading-zero": "0{n} {m}", "plus-sign": "+{n} {m}", "tab": "{n}\t{m}",
                "double-space": "{n}  {m}", "trailing-space": "{n} {m} ",
                "non-ascii-digits": "{n} {arabic_m}", "crlf": "{n} {m}\r",
                "huge-count": "9" * 5000 + "{n} {m}"}


@pytest.mark.parametrize("flaw", HEADER_FLAWS)
@pytest.mark.parametrize("g", [C5, gr.Graph(3, ())], ids=["C5", "three-vertices"])
def test_read_graph_text_matches_the_line_loop_on_header_flaws(g, flaw):
    body = g.canonical_text().split("\n", 1)[1]
    head = HEADER_FLAWS[flaw].format(n=g.n, m=g.m, arabic_m=str(g.m).translate(ARABIC_INDIC))
    assert_reads_like_reference(head + "\n" + body)


def test_an_edge_line_longer_than_a_chunk_goes_to_the_line_loop(monkeypatch):
    text = "1000000 1\n123456 654321\n"
    monkeypatch.setattr(gr, "_CHUNK", 12)  # no line end in the 12 characters after the header
    with pytest.raises(ValueError):
        list(gr._decimal_chunks(text, text.index("\n") + 1, " \n", {}))
    read, line_loop = [], gr._read_lines
    with mock.patch.object(gr, "_read_lines", lambda text: read.append(text) or line_loop(text)):
        g = gr.read_graph_text(text)
    assert read == [text]  # the line loop read it
    assert g == reference_read(text) and g.canonical_text() == text


# ----------------------------------------------------------------------
# The connector line: bulk chunks against the token loop


def decline(*args):
    """A stand-in for `_decimal_chunks` that declines every list."""
    raise ValueError("switched off")


def assert_parses_like_the_token_loop(text):
    """`parse_model` gives the model, graph hash or error (message, field,
    line and offset) that it gives with the bulk path switched off."""
    with mock.patch.object(ex, "_decimal_chunks", decline):
        try:
            expected = parse_model(text)
        except ParseError as e:
            expected = e
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as got:
            parse_model(text)
        fields = lambda err: (str(err), err.field, err.line, err.offset)
        assert fields(got.value) == fields(expected)
    else:
        assert parse_model(text) == expected


K4 = gr.complete(4)
K4_MODEL = identity_model(K4)
STRONG_K4 = gr.product("strong", K4, K4)
# 16 trees and 120 connectors, with two-digit tree pairs and vertex ids
# (the line ends the text: the model has no notes)
CONNECTED = serialize_model(strong_model(K4, K4_MODEL, K4, K4_MODEL, "strong"),
                            STRONG_K4.content_hash())
CONNECTOR_TOKENS = 120

CONNECTOR_FLAWS = ("plus-sign", "leading-zero", "non-ascii-digits", "underscore", "tab",
                   "double-space", "reversed-pair", "duplicate-pair", "self-loop",
                   "pair-out-of-range", "no-equals", "no-comma", "no-dash", "swapped-ends",
                   "past-digit-limit", "missing-number")


def connector_flaw(text, flaw, at):
    """`text` with one flaw at token `at` of its connector line (for tab and
    double-space, in the separator before it, or after the first token)."""
    lines = text.split("\n")
    k = next(k for k, ln in enumerate(lines) if ln.startswith("connectors: "))
    tokens = lines[k][len("connectors: "):].split(" ")
    seps = [" "] * (len(tokens) - 1)
    pair, edge = tokens[at].split("=")
    i, j = pair.split(",")
    u, v = edge.split("-")
    replace = {
        "plus-sign": f"+{i},{j}={u}-{v}",
        "leading-zero": f"{i},{j}=0{u}-{v}",
        "non-ascii-digits": f"{i},{j}={u}-{v.translate(ARABIC_INDIC)}",
        "underscore": f"{i},{j}={u}-{v[:1]}_{v[1:] or 0}",
        "reversed-pair": f"{j},{i}={u}-{v}",
        "self-loop": f"{i},{j}={u}-{u}",
        "pair-out-of-range": f"{i},{int(j) + 100}={u}-{v}",
        "no-equals": f"{i},{j}{u}-{v}",
        "no-comma": f"{i}{j}={u}-{v}",
        "no-dash": f"{i},{j}={u}{v}",
        "swapped-ends": f"{i},{j}={v}-{u}",
        "past-digit-limit": f"{i},{j}={'7' * 5000}-{v}",  # int refuses it
        "missing-number": f"{i},{j}=-{v}",
    }
    if flaw in replace:
        tokens[at] = replace[flaw]
    elif flaw == "duplicate-pair":
        tokens.insert(at, f"{i},{j}={u}-{v}")
        seps.append(" ")
    else:
        seps[max(at - 1, 0)] = "\t" if flaw == "tab" else "  "
    lines[k] = "connectors: " + "".join(t + sep for t, sep in zip(tokens, seps + [""]))
    return "\n".join(lines)


# A 20-character chunk holds two or three connector tokens, so flaws fall
# on every side of a cut; 1 << 16 reads the line in one chunk.
@pytest.mark.parametrize("chunk", [20, gr._CHUNK])
@pytest.mark.parametrize("flaw", CONNECTOR_FLAWS)
def test_connector_line_parses_like_the_token_loop(flaw, chunk):
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert_parses_like_the_token_loop(CONNECTED)
        for at in range(CONNECTOR_TOKENS):
            assert_parses_like_the_token_loop(connector_flaw(CONNECTED, flaw, at))


@pytest.mark.parametrize("chunk", [12, gr._CHUNK])
@settings(max_examples=300, deadline=None)
@given(CERTIFICATE_TEXTS)
def test_parse_model_matches_the_token_loop(chunk, text):
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert_parses_like_the_token_loop(text)


def test_a_connector_token_longer_than_a_chunk_goes_to_the_token_loop():
    line = CONNECTED.split("connectors: ")[1].rstrip("\n")
    with mock.patch.object(gr, "_CHUNK", 5):  # shorter than every connector token
        with pytest.raises(ValueError):
            list(gr._decimal_chunks(line, 0, ",=- ", {}))
        assert_parses_like_the_token_loop(CONNECTED)
        assert parse_model(CONNECTED)[0] == strong_model(K4, K4_MODEL, K4, K4_MODEL, "strong")


@pytest.mark.parametrize("chunk", [20, gr._CHUNK])
def test_the_scanner_reads_a_written_connector_line_to_its_end(chunk):
    line = CONNECTED.split("connectors: ")[1].rstrip("\n")
    with mock.patch.object(gr, "_CHUNK", chunk):
        ints = [x for ends in gr._decimal_chunks(line, 0, ",=- ", {}) for x in ends]
    assert ints == list(map(int, line.replace(",", " ").replace("=", " ").replace("-", " ").split()))


def test_the_scanner_reads_a_list_up_to_its_stop():
    # the list read where it lies in a longer text: what comes after `stop`
    # is not read, and `stop` stands in for the last separator
    line = CONNECTED.split("connectors: ")[1].rstrip("\n")
    text = "connectors: " + line + "\nmeta: 7,8=9-10\n"
    start = len("connectors: ")
    for chunk in (20, gr._CHUNK):
        with mock.patch.object(gr, "_CHUNK", chunk):
            whole = [x for ends in gr._decimal_chunks(line, 0, ",=- ", {}) for x in ends]
            inside = [x for ends in gr._decimal_chunks(text, start, ",=- ", {},
                                                       start + len(line))
                      for x in ends]
        assert inside == whole


STRONG_K4_MODEL = strong_model(K4, K4_MODEL, K4, K4_MODEL, "strong")
WITH_NOTES = serialize_model(ex.OddExpansionModel(STRONG_K4_MODEL.trees, STRONG_K4_MODEL.coloring,
                                                  STRONG_K4_MODEL.connectors, ("one", "two")),
                             STRONG_K4.content_hash())
VALUE = WITH_NOTES.split("connectors: ")[1].split("\n")[0]  # the connector line's value


def assert_the_scanner_reads_it(text):
    """`parse_model` reads the text's connector line with the scanner, to
    its end, and gives what the token loop gives."""
    done = []

    def scan(*args):
        yield from gr._decimal_chunks(*args)
        done.append(args)

    with mock.patch.object(ex, "_decimal_chunks", scan):
        model, _ = parse_model(text)
    assert len(done) == 1
    assert_parses_like_the_token_loop(text)
    return model


# One chunk that ends one short of the line's end, at it or one past it
# (where the line feed would be read if the stop were not kept), and small
# chunks whose cuts fall on every token of the line, its last one included.
@pytest.mark.parametrize("chunk", [len(VALUE) - 1, len(VALUE), len(VALUE) + 1,
                                   *range(12, 40)])
@pytest.mark.parametrize("text", [CONNECTED, WITH_NOTES], ids=["last-line", "before-meta"])
def test_the_connector_line_is_read_in_place(text, chunk):
    with mock.patch.object(gr, "_CHUNK", chunk):
        model = assert_the_scanner_reads_it(text)
    assert serialize_model(model, STRONG_K4.content_hash()) == text
