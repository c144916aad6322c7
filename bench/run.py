"""Benchmark runner for oddminors.

    python3 bench/run.py --workload {construct,verify,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program under test is imported
from `src/`, and every file the run writes goes under `.bench_out/`.

One run: a self-test of the output checks; set-up, timed in samples (see
SetupTimer); then whole passes over the workload's op list until
`--seconds` have passed, so the last pass may end after it.  The load is a
closed loop with one client: each op is its own child process
(`python3 -m oddminors ...` or `bench/witness.py`), started after the
previous one has exited.  Every op's output is checked.
The seed picks the inputs (see `workloads.py`) and, when non-zero, shuffles
the op order of every pass.

With `--trace 0` the last line of standard output reports the end-to-end
metrics:

- setup_s: time to build the workload's inputs (host graphs, factor
  identity certificates, the certificates `verify` checks) and their file
  texts, median over samples; see SETUP_SAMPLE_S.
- pass_s: summed wall time of one pass's ops, median over passes.
- peak_rss_mb: the largest maximum RSS of any op's child process.

`failed / attempted` in that line is the share of ops whose output failed
its check.  With `--trace 1` the ops run in-process instead, alternating
untraced passes with passes traced by `tracing.py`, and the last line reports
the per-layer metrics.  Spans go to `.bench_out/spans-<workload>.jsonl` and
a per-layer table to `.bench_out/layers-<workload>.txt`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s times building a workload's inputs: graphs, certificates, their
# hashes and file texts.  Writing the files is not timed.  On the 2-vCPU VM
# the benchmark was tuned on, creating a small file took 0.2-0.7 ms and
# drifted fourfold within minutes; that was most of construct's and
# search's set-up time, and none of it the program's.
#
# A set-up sample is a batch of back-to-back set-ups that lasts at least
# SETUP_SAMPLE_S, divided by the batch size; SETUP_SAMPLES are taken before
# the first pass.  A set-up shorter than SETUP_SAMPLE_S is sampled again
# before every op, so that its median covers the same stretch of time as
# the passes: the speed of a shared machine drifts within a run.
SETUP_SAMPLE_S = 0.05
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 5
HELP = [sys.executable, "-m", "oddminors", "--help"]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "verify", "search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def machine_facts(workload: str, seed: int, trace: int) -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "oddminors").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "commit": commit, "source_sha256": source.hexdigest(),
            "workload": workload, "seed": seed, "trace": trace}


def child_command(op) -> list[str]:
    if op.program == "cli":
        return [sys.executable, "-m", "oddminors", *op.argv]
    return [sys.executable, str(BENCH / "witness.py"), *op.argv]


class Launcher:
    """Runs op processes through `launcher.py`, started while this process
    is still small, so that each op's maximum RSS is its own."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)

    def run(self, cmd: list[str]) -> tuple[int, str, str, float, float]:
        """Exit code, stdout, stderr, wall seconds and max RSS in MB."""
        out, err = OUT / "child.out", OUT / "child.err"
        request = {"cmd": cmd, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the op launcher exited")
        reply = json.loads(reply)
        return (reply["exit"], out.read_text(errors="replace"),
                err.read_text(errors="replace"), reply["wall_s"], reply["max_rss_kb"] / 1024)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def run_inprocess(op, modules, tracer=None) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one op called in this
    process.  An exception escaping the op fails it, as a crash would."""
    fn = modules["cli"].main if op.program == "cli" else modules["witness"].main
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = tracer.run_op(op, fn, op.argv) if tracer else fn(op.argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, stdout.getvalue(), stderr.getvalue(), wall


def pass_order(ops, seed: int, index: int):
    order = list(ops)
    if seed != 0:
        random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op, code: int, stdout: str, stderr: str = ""):
        self.attempted += 1
        failure = op.check(code, stdout)
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 20:
                tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
                self.messages.append(f"{op.name}: {failure} {' '.join(tail)}".rstrip())


def selftest(workloads) -> list[str]:
    """Feed the checks known-bad outputs; return the checks that passed one."""
    from oddminors.constructions import identity_model
    from oddminors.graphs import complete

    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.Setup(work)
    k4 = complete(4)
    host = files.graph("k4.graph", k4)
    good = files.cert("good.cert", identity_model(k4), k4.content_hash())
    bad = files.cert("flipped.cert", workloads.flip_last_tree_color(identity_model(k4)),
                     k4.content_hash())
    files.write()
    digest = workloads.construct_digest(f"host: n=4 m=6 hash={k4.content_hash()}\n", good)
    changed = dict(digest, cert_sha256=digest["cert_sha256"][::-1])
    construct_out = "verdict: PASS order=4\norder: 4\n" f"host: n=4 m=6 hash={k4.content_hash()}\n"
    cases = [
        # (description, check, exit code, stdout, should pass)
        ("good exact output", workloads.exact_checker(4, host, good), 0, "EXACT 4\n", True),
        ("flipped color", workloads.exact_checker(4, host, bad), 0, "EXACT 4\n", False),
        ("flipped color", workloads.witness_checker(4, host, bad), 0, "FOUND order=4\n", False),
        ("wrong exact value", workloads.exact_checker(4, host, good), 0, "EXACT 5\n", False),
        ("good construct output", workloads.construct_checker("k4", 4, good, {"k4": digest}),
         0, construct_out, True),
        ("changed construct digest",
         workloads.construct_checker("k4", 4, good, {"k4": changed}), 0, construct_out, False),
        ("wrong verify verdict", workloads.expect(1, "FAIL properness trees=3 "),
         0, "PASS order=4\n", False),
    ]
    return [f"{name}: check returned {result!r}"
            for name, check, code, stdout, ok in cases
            if ((result := check(code, stdout)) is None) != ok]


class SetupTimer:
    """Sets a workload up and times it in samples.  The ops read the files
    of the first set-up; later set-ups are timed and not written."""

    def __init__(self, setup_fn, seed: int):
        self.setup_fn, self.seed = setup_fn, seed
        work = OUT / "work"
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        self.setup = setup_fn(work, seed)
        first = time.perf_counter() - start
        self.setup.write()
        self.batch = max(1, math.ceil(SETUP_SAMPLE_S / first))
        self.samples: list[float] = [first] if self.batch == 1 else []

    def sample(self):
        start = time.perf_counter()
        for _ in range(self.batch):
            self.setup_fn(self.setup.work, self.seed)
        self.samples.append((time.perf_counter() - start) / self.batch)

    def before_op(self):
        if self.batch > 1:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.samples)


def measure_untraced(timer: SetupTimer, seed: int, seconds: float, launcher: Launcher,
                     tally: Tally, log: list) -> dict[str, float]:
    """Whole passes until `seconds` have passed."""
    while len(timer.samples) < SETUP_SAMPLES:
        timer.sample()
    passes, walls, peak_rss = [], [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        total = 0.0
        for op in pass_order(timer.setup.ops, seed, len(passes)):
            timer.before_op()
            op.clear_outputs()
            code, stdout, stderr, wall, rss = launcher.run(child_command(op))
            tally.record(op, code, stdout, stderr)
            log.append({"pass": len(passes), "op": op.name, "exit": code,
                        "wall_s": wall, "max_rss_mb": rss})
            total += wall
            walls.append(wall)
            peak_rss = max(peak_rss, rss)
        passes.append(total)
    print(f"passes: {len(passes)} ops: {len(walls)}")
    print(f"set-up samples: {len(timer.samples)} of {timer.batch} set-ups")
    return {"setup_s": timer.median(), "pass_s": statistics.median(passes),
            "peak_rss_mb": peak_rss}


def replay_rounds(setup, tally: Tally) -> tuple[float, float]:
    """Time each exact host again as one has_odd_clique_minor call per order
    from 3 to value+1; split the time into witness and refuting rounds."""
    from oddminors.graphs import read_graph_text
    from oddminors.oracle import has_odd_clique_minor

    refute = witness = 0.0
    for name, (host_path, value) in setup.exact_hosts.items():
        g = read_graph_text(host_path.read_text())
        for r in range(3, value + 2):
            start = time.perf_counter()
            found = has_odd_clique_minor(g, r)
            elapsed = time.perf_counter() - start
            tally.attempted += 1
            if (found is not None) != (r <= value):
                tally.failed += 1
                tally.messages.append(f"replay/{name}: order {r} found={found is not None}")
            if found is None:
                refute += elapsed
            else:
                witness += elapsed
    return refute, witness


def inprocess_pass(ops, modules, tally: Tally, tracer=None) -> tuple[float, dict[str, float]]:
    """One pass of in-process ops: its summed wall time, and that time by
    command."""
    per_command: dict[str, float] = {}
    for op in ops:
        op.clear_outputs()
        code, stdout, stderr, wall = run_inprocess(op, modules, tracer)
        tally.record(op, code, stdout, stderr)
        per_command[op.command] = per_command.get(op.command, 0.0) + wall
    return sum(per_command.values()), per_command


def measure_traced(setup, seed: int, seconds: float, launcher: Launcher, tally: Tally):
    """Untraced and traced in-process passes, in pairs, until `seconds`
    have passed."""
    import witness
    import workloads
    from oddminors import cli, constructions
    from oddminors.graphs import Graph
    from tracing import Tracer, layer_metrics, median_rows

    modules = {"cli": cli, "witness": witness}
    # Every workload reports every exact host's node count, 0 where it runs
    # no exact op, so the names come from the host list, not from `setup`.
    exact_hosts = [name for name, *_ in workloads.EXACT_HOSTS]
    startup = [launcher.run(HELP)[3] for _ in range(STARTUP_SAMPLES)]
    untraced, traced, rows, commands, span_sets = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        total, per_command = inprocess_pass(pass_order(setup.ops, seed, 2 * len(traced)),
                                            modules, tally)
        untraced.append(total)
        commands.append(per_command)
        tracer = Tracer()
        tracer.install(cli, constructions, Graph, witness)
        try:
            total, _ = inprocess_pass(pass_order(setup.ops, seed, 2 * len(traced) + 1),
                                      modules, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(total)
        rows.append(layer_metrics(tracer.spans, exact_hosts))
        span_sets.append(tracer.spans)

    metrics = median_rows(rows)
    metrics["cli.startup_s"] = statistics.median(startup)
    for command in ("construct", "verify", "exact", "witness"):
        metrics[f"ops.{command}_s"] = statistics.median(c.get(command, 0.0) for c in commands)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["oracle.refute_round_s"], metrics["oracle.witness_round_s"] = replay_rounds(setup, tally)
    return metrics, span_sets


def write_spans(path: Path, span_sets):
    with open(path, "w") as f:
        for index, spans in enumerate(span_sets):
            for s in spans:
                f.write(json.dumps({"pass": index, "op": s.op, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    "parent": s.parent, "size": s.size}) + "\n")


def main() -> int:
    args = parse_args()
    if not (SRC / "oddminors" / "__init__.py").is_file():
        print(f"error: no oddminors sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    launcher = Launcher()
    try:
        return run(args, launcher)
    finally:
        launcher.close()


def run(args, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = machine_facts(args.workload, args.seed, args.trace)
    print("machine: " + json.dumps(facts))
    broken = selftest(workloads)
    if broken:
        print("error: output checks accepted bad output: " + "; ".join(broken), file=sys.stderr)
        return 1

    timer = SetupTimer(workloads.WORKLOADS[args.workload], args.seed)
    tally = Tally()
    log: list = []
    # Compile and cache the package once, outside every timed region.
    launcher.run(HELP)
    if args.trace:
        values, span_sets = measure_traced(timer.setup, args.seed, args.seconds, launcher, tally)
        write_spans(OUT / f"spans-{args.workload}.jsonl", span_sets)
        table = "\n".join(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}"
                          for m in spec["per_layer"])
        (OUT / f"layers-{args.workload}.txt").write_text(table + "\n")
        print(table)
    else:
        values = measure_untraced(timer, args.seed, args.seconds, launcher, tally, log)
    for message in tally.messages:
        print(f"FAILED {message}")
    print(f"fail_frac: {tally.failed}/{tally.attempted}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": facts, "result": result, "setup_samples_s": timer.samples,
                    "ops": log}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
