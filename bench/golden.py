"""Regenerate `bench/digests.json`, the golden corpus of the construct
workload: per case, the SHA-256 of the certificate bytes that
`oddminors construct` writes and the host hash it prints.

    python3 bench/golden.py

Regenerate only for a change that is meant to alter certificate bytes; the
construct workload fails every case whose output differs from the table.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from oddminors import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    work = BENCH.parent / ".bench_out" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    setup = workloads.setup_construct(work, 0, digests={})
    setup.write()
    table = {}
    for op in setup.ops:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(op.argv)
        if code != 0:
            print(f"error: {op.name} exited {code}", file=sys.stderr)
            return 1
        cert = Path(op.argv[op.argv.index("--out") + 1])
        table[op.name] = workloads.construct_digest(stdout.getvalue(), cert)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
