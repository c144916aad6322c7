"""Witness decision: does a host have an odd clique minor of one given order?

The CLI reaches the oracle only through `exact`, which also refutes the
next order; this is the oracle's other use, a positive-only decision.

Usage: python3 bench/witness.py HOST_FILE ORDER CERT_OUT
Prints 'FOUND order=R' and writes the certificate, or prints 'ABSENT'.
"""

from __future__ import annotations

import sys
from pathlib import Path

from oddminors.expansion import serialize_model
from oddminors.graphs import read_graph_text
from oddminors.oracle import SearchBudget, has_odd_clique_minor


def main(argv: list[str]) -> int:
    host_path, order, cert_path = argv
    g = read_graph_text(Path(host_path).read_text())
    model = has_odd_clique_minor(g, int(order), SearchBudget(max_vertices=g.n))
    if model is None:
        print("ABSENT")
        return 0
    Path(cert_path).write_text(serialize_model(model, g.content_hash()))
    print(f"FOUND order={model.clique_order}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
