"""Fuzz tests of the three parsers: whatever the input, `parse_model`,
`read_graph_text` and `read_graph6` return a value or raise `ParseError`,
never another exception.  Inputs are arbitrary text, and text built from
the format's own keys and tokens, or from valid documents with edits."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import graphs as gr
from oddminors.constructions import odd_cycle_model, strong_model
from oddminors.errors import ParseError
from oddminors.expansion import parse_model, serialize_model

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

GRAPH6_TEXTS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet=[chr(c) for c in range(58, 130)], max_size=40),
    st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=40).map(lambda s: ">>graph6<<" + s),
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


@settings(max_examples=300, deadline=None)
@given(GRAPH6_TEXTS)
def test_read_graph6_raises_only_parse_error(text):
    try:
        gr.read_graph6(text)
    except ParseError:
        pass
