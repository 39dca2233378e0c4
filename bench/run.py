"""Benchmark for the qset package: three seeded workloads, end to end and per layer.

Run one workload:

    python3 bench/run.py --workload audit-corpus --seed 0 --seconds 10 --trace 0

Workloads: ``audit-corpus``, ``deep-build`` and ``script-eval`` (see
``workloads.py`` and ``BENCHMARK.json``).  The load model is a closed
loop with one caller: one process, one thread, one item at a time.

Every run sets up at least three times, and until two seconds went into
it: import, input generation and one discarded warm-up item; ``setup_s``
is the median.  With ``--trace 0`` it then makes passes over the
workload's items until ``--seconds`` have passed and prints the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced pass over the same items and prints the per-layer metrics; spans
are written to ``.bench_out/``.  Either way
every item's output is verified, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run also stores a record with the machine, Python version, git sha
and seed in ``.bench_out/<sha>/`` (``no-git`` outside a git checkout).

Compare two sets of records (files or directories), metric by metric,
with the median over the records of each workload:

    python3 bench/run.py --compare .bench_out/<sha-a> .bench_out/<sha-b>
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads

ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = (
    "qset", "qset.kernel", "qset.algebra", "qset.morphism", "qset.universe",
    "qset.gen", "qset.lang.eval", "qset.cli",
)
SETUPS = 3  # at least this many set-ups per run,
SETUP_SECONDS = 2.0  # and more, up to MAX_SETUPS, until this much time went into them
MAX_SETUPS = 15
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
SHOWN_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> dict:
    """Import the package from this checkout's ``src``, afresh."""
    for name in [n for n in sys.modules if n == "qset" or n.startswith("qset.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    if not os.path.abspath(modules["qset"].__file__).startswith(SRC + os.sep):
        raise ImportError("qset was imported from %s, not from %s" % (modules["qset"].__file__, SRC))
    return modules


def set_up(workload_cls, seed: int):
    """One set-up; the warm-up item is one of the workload's items, so it is verified when timed."""
    start = time.perf_counter()
    modules = import_package()
    workload = workload_cls(modules, seed)
    workload.run(workload.warmup)
    return workload, modules, time.perf_counter() - start


class Runner:
    """Times items, verifies their outputs and counts failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.items = workload.items
        self.times: list[list[float]] = [[] for _ in self.items]
        self.first_digest: dict[int, str] = {}
        recorded = workloads.recorded_digest(workload.name) if seed == workloads.DEFAULT_SEED else None
        self.recorded = recorded or {}
        self.attempted = 0
        self.failed = 0

    def fail(self, item, why: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            sys.stderr.write("bench: item %s failed: %s\n" % (item.label, why))

    def one(self, i: int, tracer=None) -> float | None:
        """Run item i once; returns its time in seconds, or None if it raised."""
        item = self.items[i]
        self.attempted += 1
        if tracer is not None:
            tracer.item = item.label
        start = time.perf_counter()
        try:
            output = self.workload.run(item)
        except Exception:  # an unexpected error is a failed item, not a crashed run
            self.fail(item, traceback.format_exc(limit=3))
            return None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.item = item.label + "/verify"
        self.verify(i, item, output, full=tracer is not None)
        return elapsed

    def verify(self, i: int, item, output, full: bool = False) -> None:
        """Check an item's first output in full, and later ones against its digest.

        ``full`` checks a later output in full too; the traced pass uses it,
        so that verification work such as ledger replay is traced.
        """
        try:
            digest = self.workload.digest(output)
            is_first = i not in self.first_digest
            problem = None
            if self.first_digest.setdefault(i, digest) != digest:
                problem = "output differs from the first pass over this item"
            elif full or is_first:
                problem = self.workload.check(item, output)
                if problem is None and self.recorded.get(item.label, digest) != digest:
                    problem = "verdict digest differs from the one recorded for seed %d" % workloads.DEFAULT_SEED
        except Exception:  # malformed output fails verification
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            self.fail(item, problem)

    def timed(self, seconds: float, seed: int) -> int:
        """Passes over the items until ``seconds`` have passed.

        The first pass is always whole, so every item has a time; later
        passes go in a seeded shuffled order and stop at the deadline.
        Returns the number of passes started.
        """
        order = list(range(len(self.items)))
        rng = random.Random(seed)
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            for i in order:
                if passes and time.perf_counter() >= deadline:
                    return passes
                elapsed = self.one(i)
                if elapsed is not None:
                    self.times[i].append(elapsed)
            passes += 1
            if time.perf_counter() >= deadline:
                return passes
            rng.shuffle(order)

    def one_pass(self, tracer=None) -> float:
        """One pass in corpus order; returns the summed item time."""
        total = 0.0
        for i in range(len(self.items)):
            elapsed = self.one(i, tracer)
            total += elapsed or 0.0
        return total


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def end_to_end(runner: Runner, setup_times: list[float]) -> tuple[dict, str]:
    """Item times are per-item medians over the passes, which keeps a
    burst of machine noise from deciding a run; throughput is items over
    the sum of those medians."""
    per_item = sorted(statistics.median(t) for t in runner.times if t)
    timed = sum(len(t) for t in runner.times)
    tail = tail_percentile(len(per_item))
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(per_item) / sum(per_item),
        "item_p50_ms": percentile(per_item, 50) * 1e3,
        "item_tail_ms": percentile(per_item, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = "item_tail_ms is p%g of %d per-item medians (%d timed items)" % (tail, len(per_item), timed)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, note


def per_layer(tracer: tracing.Tracer, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric, zero where the layer did not run."""
    layers = tracer.layer_totals(lambda item: not item.endswith("/verify"))
    everything = tracer.layer_totals(lambda item: True)
    spans = layers["spans"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    span = lambda name: spans.get(name, zero)
    counts = tracer.counts
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("kernel.QSet.calls", span("kernel.QSet")["calls"], "count")
    put("kernel.QSet.self_s", span("kernel.QSet")["self_s"], "s")
    for fn in ("power", "product", "union", "singleton_in", "pair_in", "opair_in", "family_union"):
        put("algebra.%s.calls" % fn, span("algebra." + fn)["calls"], "count")
        put("algebra.%s.self_s" % fn, span("algebra." + fn)["self_s"], "s")
    for cond in tracing.AUDIT_CONDITIONS:
        put("universe.audit.%s_s" % cond, layers["audit_s"][cond], "s")
    put("universe.check_qED.self_s", span("universe.check_qED")["self_s"], "s")
    put("universe.build_fragment.self_s", span("universe.build_fragment")["self_s"], "s")
    put("universe.fragment_json_s", span("universe.fragment_json")["total_s"], "s")
    put("universe.report_json_s", span("universe.report_json")["total_s"], "s")
    put("universe.replay_ledger_s", everything["spans"].get("universe.replay_ledger", zero)["total_s"], "s")
    for key in tracing.BUILD_COUNTS:
        put("universe.build." + key, counts.get("universe.build." + key, 0), "count")
    base = counts.get("universe.build.results_computed", 0)
    put("universe.build.useful_ratio", counts.get("universe.build.new_members", 0) / base if base else 0.0, "ratio")
    for what in ("checked", "defects"):
        for cond in tracing.AUDIT_CONDITIONS:
            key = "universe.audit.%s.%s" % (what, cond)
            put(key, counts.get(key, 0), "count")
    for fn in ("tokenize", "parse", "run_program", "render"):
        put("lang.%s.self_s" % fn, span("lang." + fn)["self_s"], "s")
    put("lang.tokens", counts.get("lang.tokens", 0), "count")
    put("lang.statements", counts.get("lang.statements", 0), "count")
    for fn in ("compose", "qfun_equiv", "check_category_laws"):
        put("morphism.%s.calls" % fn, span("morphism." + fn)["calls"], "count")
        put("morphism.%s.self_s" % fn, span("morphism." + fn)["self_s"], "s")
    put("cli.main.self_s", span("cli.main")["self_s"], "s")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    return out


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def out_dir(env: dict) -> str:
    """Records and spans of one commit go together, so two commits compare as two directories."""
    return os.path.join(OUT_DIR, (env["git_sha"] or "no-git")[:12])


def record(env: dict, result: dict, notes: list[str]) -> str:
    path = os.path.join(out_dir(env), "%s-seed%d-trace%d.json" % (env["workload"], env["seed"], env["trace"]))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, "result": result}, fh, indent=2)
    return path


def run(args) -> int:
    workload_cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    while len(setup_times) < SETUPS or (sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS):
        workload, modules, elapsed = set_up(workload_cls, args.seed)
        setup_times.append(elapsed)
    runner = Runner(workload, args.seed)
    env = environment(args)
    notes = ["%s seed %d: %d items, %d set-ups" % (args.workload, args.seed, len(workload.items), len(setup_times))]
    if args.trace:
        untraced_s = runner.one_pass()
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            traced_s = runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        spans_path = os.path.join(out_dir(env), "spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.write(spans_path)
        metrics = per_layer(tracer, untraced_s, traced_s)
        notes.append("%d spans written to %s" % (len(tracer.spans), os.path.relpath(spans_path, ROOT)))
    else:
        passes = runner.timed(args.seconds, args.seed)
        metrics, note = end_to_end(runner, setup_times)
        notes += ["%d passes" % passes, note]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    notes.append("fail_ratio %d/%d" % (runner.failed, runner.attempted))
    notes.append("record written to %s" % os.path.relpath(record(env, result, notes), ROOT))
    for line in notes:
        print("# " + line)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


# -- compare -----------------------------------------------------------


def load_records(path: str) -> dict:
    """(workload, trace) -> metric -> list of values, from a file or a directory."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    out: dict = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        key = (rec["env"]["workload"], rec["env"]["trace"])
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def compare(a_path: str, b_path: str) -> int:
    a, b = load_records(a_path), load_records(b_path)
    print("%-14s %-38s %14s %14s %8s" % ("workload", "metric", "a (median)", "b (median)", "b/a"))
    for key in sorted(set(a) & set(b)):
        for name in sorted(set(a[key]) & set(b[key])):
            va, vb = statistics.median(a[key][name]), statistics.median(b[key][name])
            ratio = "%.3f" % (vb / va) if va else "-"
            print("%-14s %-38s %14.6g %14.6g %8s" % (key[0], name, va, vb, ratio))
    return 0


def write_digests(args) -> int:
    """Store the per-item verdict digests of the default seed as the reference."""
    if args.seed != workloads.DEFAULT_SEED:
        sys.stderr.write("bench: digests are recorded for seed %d only\n" % workloads.DEFAULT_SEED)
        return 2
    workload, _, _ = set_up(workloads.WORKLOADS[args.workload], args.seed)
    runner = Runner(workload, args.seed)
    runner.recorded = {}
    runner.one_pass()
    if runner.failed:
        sys.stderr.write("bench: %d items failed; no digests written\n" % runner.failed)
        return 1
    path = os.path.join(workloads.REFERENCE_DIR, "digests.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    digests[args.workload] = {workload.items[i].label: d for i, d in sorted(runner.first_digest.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qset benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two record files or directories and exit")
    ap.add_argument("--write-digests", action="store_true",
                    help="record the default seed's verdict digests as the reference")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "qset", "__init__.py")):
        sys.stderr.write("bench: no qset package under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    if args.write_digests:
        return write_digests(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
