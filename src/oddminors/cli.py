"""Command-line front end: products, certified constructions, certificate
verification, exact search, and bound-family tables.

Exit codes: 0 success or verification pass, 1 verification failure, an
`absent` table row or an internal error, 2 parse or parameter error, 3
search timeout, 4 certificate/graph hash mismatch.

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
from typing import Iterable

from .errors import (ConsistencyError, FactorModelError, ParameterError, ParseError,
                     SearchTimeout, StructureError)
from .expansion import (OddExpansionModel, parse_model, serialize_pieces,
                        verify_odd_expansion)
from .graphs import PRODUCT_KINDS, Graph, make_named_graph, product, read_graph_text

# Every file is written a piece at a time, from `Graph._pieces` and
# `serialize_pieces`; the whole-text writers are imported here all the same,
# because the benchmark's tracer wraps `cli.write_graph_text` and
# `cli.serialize_model` by name.
from .expansion import serialize_model  # noqa: F401
from .graphs import write_graph_text  # noqa: F401

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


def _read_text(path: str, what: str) -> str:
    """The text of the file at `path`, read as UTF-8; a file that cannot be
    read or decoded is refused with the parameter exit code."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(f"cannot read {what} {path}: {e}")
    except UnicodeDecodeError as e:
        raise _CliError(f"{path}: {e}")


def _load_graph(spec: str) -> Graph:
    if ":" in spec and not Path(spec).exists():
        family, _, rest = spec.partition(":")
        try:
            params = [int(x) for x in rest.split(",") if x.strip() != ""]
        except ValueError:
            raise _CliError(f"bad inline graph spec {spec!r}")
        return make_named_graph(family, params)
    text = _read_text(spec, "graph file")
    try:
        return read_graph_text(text)
    except ParseError as e:
        raise _CliError(f"{spec}: {e}")


def _load_certificate(path: str) -> tuple[OddExpansionModel, str]:
    text = _read_text(path, "certificate")
    try:
        return parse_model(text)
    except ParseError as e:
        raise _CliError(f"{path}: {e}")


def _write_text(path: str, pieces: Iterable[str]):
    """Write the pieces of one text to `path` as they come, through one
    open file, so that the whole text never exists."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            for piece in pieces:
                f.write(piece)
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
    """The `SearchBudget` of the limits given, with its own defaults for the
    rest."""
    from .oracle import SearchBudget
    given = {"max_vertices": args.max_n, "time_limit": args.time, "node_limit": args.nodes}
    return SearchBudget(**{k: v for k, v in given.items() if v is not None})


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
    _write_text(args.out, result._pieces())
    print(f"n={result.n} m={result.m}")
    return EXIT_OK


_INT_OPTIONS = ("s", "t", "n", "d", "r")
_FACTOR_OPTIONS = ("factor_a", "model_a", "factor_b", "model_b")


def _refuse_unread(args, theorem: str, read) -> None:
    """Refuse each theorem option given that `theorem` does not read, rather
    than ignore it."""
    for name in (*_INT_OPTIONS, "kind", *_FACTOR_OPTIONS, "base"):
        if name not in read and getattr(args, name, None) is not None:
            raise _CliError(f"theorem {theorem!r} takes no --{name.replace('_', '-')}")


def _factor_inputs(args):
    for opt in _FACTOR_OPTIONS:
        _need(args, opt)
    inputs = []
    for side in "ab":
        g = _load_graph(getattr(args, f"factor_{side}"))
        model, stored_hash = _load_certificate(getattr(args, f"model_{side}"))
        if stored_hash != g.content_hash():
            raise _CliError(f"--model-{side} hash does not match --factor-{side}",
                            EXIT_HASH_MISMATCH)
        inputs += [g, model]
    return tuple(inputs)


def _need(args, name):
    """The value of the option `name` (`factor_a` is --factor-a), which
    the theorem needs: refused when not given."""
    value = getattr(args, name)
    if value is None:
        raise _CliError(f"theorem {args.theorem!r} needs --{name.replace('_', '-')}")
    return value


def _load_base(path: str, mg: OddExpansionModel, mh: OddExpansionModel):
    from . import constructions as cons
    model, stored_hash = _load_certificate(path)
    base = cons.BaseModel(mg.clique_order, mh.clique_order, model)
    if stored_hash != base.host.content_hash():
        raise _CliError("--base hash does not match the factor-order host", EXIT_HASH_MISMATCH)
    return base


class _Phases:
    """`construct --stats`: the wall seconds of each phase of a command and
    the process's `ru_maxrss` (kilobytes on Linux) when it ends, written to
    stderr as one JSON object.  Off, it records nothing, and `resource` and
    `json` are not imported."""

    def __init__(self, on: bool):
        self.phases = {} if on else None
        self.start = time.monotonic()

    def end(self, name: str):
        if self.phases is not None:
            import resource
            now = time.monotonic()
            self.phases[name] = {"wall_s": round(now - self.start, 6),
                                 "ru_maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            self.start = now

    def report(self):
        if self.phases is not None:
            import json
            print(json.dumps({"phases": self.phases}), file=sys.stderr)


def cmd_construct(args) -> int:
    from . import constructions as cons
    t0 = time.monotonic()
    phases = _Phases(args.stats)
    theorem = cons.THEOREMS[args.theorem]
    read = [*theorem.params, *(_FACTOR_OPTIONS if theorem.factors else ())]
    _refuse_unread(args, args.theorem, read + ["base"] if theorem.base else read)
    inputs, options = (), {}
    if theorem.factors:
        inputs = _factor_inputs(args)
        if args.base is not None:
            options["base"] = _load_base(args.base, inputs[1], inputs[3])
    values = [_need(args, name) for name in theorem.params]
    # the host, then the model, with the host's text between them: its one
    # render, which also fixes the digest, is written a piece at a time
    # before any certificate is made (without --graph-out, the digest is
    # hashed from a render).  So --graph-out is written even when no
    # construction applies or the theorem refuses its parameters.
    host = theorem.host(*inputs, *values)
    phases.end("host")
    if args.graph_out:
        _write_text(args.graph_out, host._pieces())
    graph_hash = host.content_hash()
    phases.end("host_text")
    model = theorem.model(host, *inputs, *values, **options)
    phases.end("model")
    if model is None:
        print("no construction applies")
        phases.report()
        return EXIT_OK

    order = model.clique_order
    _write_text(args.out, serialize_pieces(model, graph_hash))
    phases.end("certificate")
    # the self-verify reads the file back with the built model freed, so
    # that one certificate is alive at a time
    del model
    reparsed, _ = parse_model(_read_text(args.out, "certificate"))
    phases.end("reread")
    verdict = verify_odd_expansion(host, reparsed, strict=True)
    phases.end("verify")

    print(f"command: construct {args.theorem}")
    print(f"host: n={host.n} m={host.m} hash={graph_hash}")
    print(f"order: {order}")
    print(f"verdict: {verdict.summary()}")
    print(f"certificate: {args.out}")
    if not args.strict:
        print(f"time_s: {time.monotonic() - t0:.3f}")
    phases.report()
    return EXIT_OK if verdict.passed else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    model, stored_hash = _load_certificate(args.certificate)
    actual = g.content_hash()
    if stored_hash != actual and not args.ignore_hash:
        print(f"HASH-MISMATCH certificate={stored_hash} graph={actual}")
        return EXIT_HASH_MISMATCH
    verdict = verify_odd_expansion(g, model, strict=args.strict)
    print(verdict.summary())
    return EXIT_OK if verdict.passed else EXIT_VERIFY_FAIL


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget_from_args(args)
    result = odd_hadwiger(g, budget)
    out = args.out or (args.graph + ".oh.cert" if Path(args.graph).exists()
                       else "exact.oh.cert")
    _write_text(out, serialize_pieces(result.certificate, g.content_hash()))
    if result.status == "exact":
        print(f"EXACT {result.value}")
    elif result.status == "lower_bound_only":
        print(f"LOWER_BOUND {result.value}")
    else:
        print(f"TIMEOUT best={result.value}")
    print(f"certificate: {out}")
    if not args.strict:
        print(f"nodes: {result.nodes}")
        print(f"time_s: {result.elapsed:.3f}")
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
        # refused, if it is bad, before anything is printed; each search
        # starts its own clock
        budget = _budget_from_args(args)
        header.append("oracle")
    elif (args.time, args.nodes, args.max_n) != (None, None, None):
        raise _CliError("--time, --nodes and --max-n apply only with --oracle")
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
            if host.n <= budget.max_vertices:
                try:
                    found = has_odd_clique_minor(host, model.clique_order, budget)
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
    # the search limits of `exact` and `table`, with no defaults here (see
    # `_budget_from_args`)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--time", type=float)
    budget.add_argument("--nodes", type=int)
    budget.add_argument("--max-n", dest="max_n", type=int)

    p = sub.add_parser("product", help="write a product graph in canonical text form")
    p.add_argument("kind", choices=PRODUCT_KINDS)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("construct", help="emit and self-verify a certificate")
    p.add_argument("theorem", choices=_TheoremIds(), metavar="theorem",
                   help="one of: %(choices)s")
    for name in _INT_OPTIONS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--kind", choices=PRODUCT_KINDS)
    p.add_argument("--factor-a", dest="factor_a")
    p.add_argument("--model-a", dest="model_a")
    p.add_argument("--factor-b", dest="factor_b")
    p.add_argument("--model-b", dest="model_b")
    p.add_argument("--base")
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", dest="graph_out")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="write each phase's wall seconds and ru_maxrss to stderr as JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--strict", action="store_true",
                   help="require a stored connector for every tree pair")
    p.add_argument("--ignore-hash", action="store_true", dest="ignore_hash")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", parents=[budget],
                       help="exact odd clique minor number by search")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("table", parents=[budget],
                       help="reproduce a bound family as a text table")
    p.add_argument("which", choices=_TheoremIds(tabled=True), metavar="which",
                   help="one of: %(choices)s")
    p.add_argument("--s")
    p.add_argument("--t")
    p.add_argument("--r")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check each row by exhaustive search when small enough")
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
    except (ParameterError, StructureError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAM
    except FactorModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
