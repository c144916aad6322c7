"""Command-line front end: products, certified constructions, certificate
verification, exact search, and bound-family tables.

Exit codes: 0 success or verification pass, 1 verification failure, 2 parse
or parameter error, 3 search timeout, 4 certificate/graph hash mismatch.

Graph arguments are file paths in the canonical text format, or inline
specs of the form 'complete:5', 'cycle:7', 'star:4', 'path:6',
'hamming:3,2'.  Output is deterministic; `--strict` additionally drops
timing lines so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

from .errors import (ColoringMissingError, ConsistencyError, FactorModelError,
                     ParameterError, ParseError, SearchTimeout, StructureError)
from .expansion import (OddExpansionModel, parse_model, serialize_model,
                        verify_odd_expansion)
from .graphs import (PRODUCT_KINDS, Graph, make_named_graph, product,
                     read_graph_text, write_graph_text)

# `constructions` is imported by `construct` and `table` alone, and `oracle`
# by `exact` and `table`: every command is a fresh process, and the others
# need not compile them.

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM = 2
EXIT_TIMEOUT = 3
EXIT_HASH_MISMATCH = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARAM):
        super().__init__(message)
        self.code = code


def _load_graph(spec: str) -> Graph:
    if ":" in spec and not Path(spec).exists():
        family, _, rest = spec.partition(":")
        try:
            params = [int(x) for x in rest.split(",") if x.strip() != ""]
        except ValueError:
            raise _CliError(f"bad inline graph spec {spec!r}")
        return make_named_graph(family, params)
    try:
        text = Path(spec).read_text()
    except OSError as e:
        raise _CliError(f"cannot read graph file {spec}: {e}")
    try:
        return read_graph_text(text)
    except ParseError as e:
        raise _CliError(f"{spec}: {e}")


def _load_certificate(path: str) -> tuple[OddExpansionModel, str]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _CliError(f"cannot read certificate {path}: {e}")
    try:
        return parse_model(text)
    except ParseError as e:
        raise _CliError(f"{path}: {e}")


def _write_text(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e}")


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise _CliError(f"bad range {text!r}, expected 'a..b' or a single integer")
    if not values:
        raise _CliError(f"bad range {text!r}, it is empty")
    return values


def _budget_from_args(args):
    from .oracle import SearchBudget
    return SearchBudget(max_vertices=args.max_n, time_limit=args.time,
                        node_limit=args.nodes)


def odd_hadwiger(g: Graph, budget):
    """`oracle.odd_hadwiger`, looked up here at call time, where the
    benchmark's tracer wraps it."""
    from . import oracle
    return oracle.odd_hadwiger(g, budget)


class _TheoremIds:
    """The theorem ids a command accepts (with `tabled`, those with a
    table), read from `constructions.THEOREMS` when argparse first checks
    or lists them, so that building the parser does not import the module.
    The argument that takes them needs a metavar: argparse lists `choices`
    to make one."""

    def __init__(self, tabled: bool = False):
        self.tabled = tabled

    def __iter__(self):
        from .constructions import THEOREMS
        return iter([k for k, theorem in THEOREMS.items() if theorem.table or not self.tabled])


# ----------------------------------------------------------------------
# Subcommands


def cmd_product(args) -> int:
    g = _load_graph(args.first)
    h = _load_graph(args.second)
    result = product(args.kind, g, h)
    _write_text(args.out, write_graph_text(result))
    print(f"n={result.n} m={result.m}")
    return EXIT_OK


_FACTOR_OPTIONS = ("factor_a", "model_a", "factor_b", "model_b")


def _refuse_unread(args, theorem: str, read) -> None:
    """Refuse each theorem option given that `theorem` does not read, rather
    than ignore it."""
    for name in ("s", "t", "n", "d", "r", "kind", *_FACTOR_OPTIONS, "base"):
        if name not in read and getattr(args, name, None) is not None:
            raise _CliError(f"theorem {theorem!r} takes no --{name.replace('_', '-')}")


def _factor_inputs(args):
    for opt in _FACTOR_OPTIONS:
        if getattr(args, opt) is None:
            raise _CliError(f"theorem {args.theorem!r} needs --{opt.replace('_', '-')}")
    g = _load_graph(args.factor_a)
    mg, hg = _load_certificate(args.model_a)
    if hg != g.content_hash():
        raise _CliError(f"--model-a hash does not match --factor-a", EXIT_HASH_MISMATCH)
    h = _load_graph(args.factor_b)
    mh, hh = _load_certificate(args.model_b)
    if hh != h.content_hash():
        raise _CliError(f"--model-b hash does not match --factor-b", EXIT_HASH_MISMATCH)
    return g, mg, h, mh


def _need(args, name):
    value = getattr(args, name)
    if value is None:
        raise _CliError(f"theorem {args.theorem!r} needs --{name}")
    return value


def _load_base(path: str, mg: OddExpansionModel, mh: OddExpansionModel):
    from . import constructions as cons
    model, stored_hash = _load_certificate(path)
    base = cons.BaseModel(mg.clique_order, mh.clique_order, model)
    if stored_hash != base.host().content_hash():
        raise _CliError("--base hash does not match the factor-order host", EXIT_HASH_MISMATCH)
    return base


def cmd_construct(args) -> int:
    from . import constructions as cons
    t0 = time.monotonic()
    theorem = cons.THEOREMS[args.theorem]
    read = [*theorem.params, *(_FACTOR_OPTIONS if theorem.factors else ())]
    _refuse_unread(args, args.theorem, read + ["base"] if theorem.base else read)
    inputs, options = (), {}
    if theorem.factors:
        inputs = _factor_inputs(args)
        if args.base is not None:
            options["base"] = _load_base(args.base, inputs[1], inputs[3])
    values = [_need(args, name) for name in theorem.params]
    # the host, then the model, with the host's text between them: its
    # one render, which also fixes the digest, is written and freed before
    # any certificate is made (without --graph-out, the digest is hashed
    # from a render a piece at a time).  So --graph-out is written even
    # when no construction applies or the theorem refuses its parameters.
    host = theorem.host(*inputs, *values)
    if args.graph_out:
        _write_text(args.graph_out, write_graph_text(host))
    graph_hash = host.content_hash()
    model = theorem.model(host, *inputs, *values, **options)
    if model is None:
        print("no construction applies")
        return EXIT_OK

    order = model.clique_order
    text = serialize_model(model, graph_hash)
    _write_text(args.out, text)
    # the self-verify reads the file back with the built model and its text
    # freed, so that one certificate is alive at a time
    del model, text
    reparsed, _ = parse_model(Path(args.out).read_text())
    verdict = verify_odd_expansion(host, reparsed, strict=True)

    print(f"command: construct {args.theorem}")
    print(f"host: n={host.n} m={host.m} hash={graph_hash}")
    print(f"order: {order}")
    print(f"verdict: {verdict.summary()}")
    print(f"certificate: {args.out}")
    if not args.strict:
        print(f"time_s: {time.monotonic() - t0:.3f}")
    return EXIT_OK if verdict.passed else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    model, stored_hash = _load_certificate(args.certificate)
    actual = g.content_hash()
    if stored_hash != actual and not args.ignore_hash:
        print(f"HASH-MISMATCH certificate={stored_hash} graph={actual}")
        return EXIT_HASH_MISMATCH
    verdict = verify_odd_expansion(g, model, strict=args.strict)
    if verdict.passed:
        print(f"PASS order={model.clique_order}")
        return EXIT_OK
    print(verdict.summary())
    return EXIT_VERIFY_FAIL


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget_from_args(args)
    t0 = time.monotonic()
    result = odd_hadwiger(g, budget)
    out = args.out or (args.graph + ".oh.cert" if Path(args.graph).exists()
                       else "exact.oh.cert")
    _write_text(out, serialize_model(result.certificate, g.content_hash()))
    if result.status == "exact":
        print(f"EXACT {result.value}")
    elif result.status == "lower_bound_only":
        print(f"LOWER_BOUND {result.value}")
    else:
        print(f"TIMEOUT best={result.value}")
    print(f"certificate: {out}")
    if not args.strict:
        print(f"nodes: {result.nodes}")
        print(f"time_s: {time.monotonic() - t0:.3f}")
    return EXIT_TIMEOUT if result.status == "timeout" else EXIT_OK


def cmd_table(args) -> int:
    from . import constructions as cons
    from .oracle import has_odd_clique_minor
    theorem = cons.THEOREMS[args.which]
    _refuse_unread(args, args.which, theorem.params)
    ranges = []
    for name, default in zip(theorem.params, theorem.table):
        given = getattr(args, name)
        ranges.append(_parse_range(default if given is None else given))
    header = list(theorem.params) + ["order", "verdict"]
    if args.oracle:
        header.append("oracle")
    print(" ".join(header))
    any_fail = False
    for values in itertools.product(*ranges):
        host = theorem.host(*values)
        model = theorem.model(host, *values)
        verdict = verify_odd_expansion(host, model, strict=True)
        cells = [str(v) for v in values] + [str(model.clique_order),
                                            "PASS" if verdict.passed else "FAIL"]
        if not verdict.passed:
            any_fail = True
        if args.oracle:
            if host.n <= args.max_n:
                try:
                    found = has_odd_clique_minor(host, model.clique_order,
                                                 _budget_from_args(args))
                    cells.append("ok" if found is not None else "absent")
                    if found is None:
                        any_fail = True
                except SearchTimeout:
                    cells.append("timeout")
            else:
                cells.append("-")
        print(" ".join(cells))
    return EXIT_VERIFY_FAIL if any_fail else EXIT_OK


# ----------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddminors",
        description="Certified lower bounds and exact search for odd clique "
                    "minors in graph products.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="write a product graph in canonical text form")
    p.add_argument("kind", choices=PRODUCT_KINDS)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("construct", help="emit and self-verify a certificate")
    p.add_argument("theorem", choices=_TheoremIds(), metavar="theorem",
                   help="one of: %(choices)s")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--kind", choices=PRODUCT_KINDS)
    p.add_argument("--factor-a", dest="factor_a")
    p.add_argument("--model-a", dest="model_a")
    p.add_argument("--factor-b", dest="factor_b")
    p.add_argument("--model-b", dest="model_b")
    p.add_argument("--base")
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", dest="graph_out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--strict", action="store_true",
                   help="require a stored connector for every tree pair")
    p.add_argument("--ignore-hash", action="store_true", dest="ignore_hash")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact odd clique minor number by search")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--time", type=float, default=60.0)
    p.add_argument("--nodes", type=int, default=100_000_000)
    p.add_argument("--max-n", dest="max_n", type=int, default=16)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("table", help="reproduce a bound family as a text table")
    p.add_argument("which", choices=_TheoremIds(tabled=True), metavar="which",
                   help="one of: %(choices)s")
    p.add_argument("--s")
    p.add_argument("--t")
    p.add_argument("--r")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check each row by exhaustive search when small enough")
    p.add_argument("--time", type=float, default=60.0)
    p.add_argument("--nodes", type=int, default=100_000_000)
    p.add_argument("--max-n", dest="max_n", type=int, default=16)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ParameterError, StructureError, ParseError, ColoringMissingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAM
    except FactorModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except SearchTimeout as e:
        print(f"TIMEOUT {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
