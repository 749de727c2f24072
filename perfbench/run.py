#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds `squality-tables`, the
backend worker and its own two helper packages (`perfbench/gen`,
`perfbench/trace`) with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

1. set-up: corpus generation timed through `generate_suite_scaled`
   (`perfbench-gen`), or for `triage_cached` cold result-cache fills;
2. reference: the workload's outputs computed once in-process with
   `--workers 1` and no cache, to check every timed output against;
3. timed phase: the workload's CLI sequence, one child at a time (a
   closed loop from one client), repeated until `--seconds` of passes
   are spent, with a set-up sample taken between passes;
4. with `--trace 1`, a traced in-process re-drive (`perfbench-trace`)
   that reports the per-layer breakdown instead of the end-to-end set.

Every metric is printed by name with its unit; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`perfbench/README.md` explains the workloads and the layer map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

# One worker everywhere, the reference included: the workloads are
# compared at equal concurrency, and the reference is the single-worker,
# uncached run.
WORKERS = 1
# Corpus scale per workload. Triage's work depends on how many failure
# clusters a corpus yields, which varies more between small corpora.
SCALE = {"study": 0.125, "triage_cached": 0.25, "rq1_tables": 0.125}
DEFAULT_SEED = 7
RQ1_SECTIONS = ["table1", "table2", "table3", "figure1", "figure2", "figure3"]
WORKLOADS = ("study", "triage_cached", "rq1_tables")
# Corpora per run (default 2). Triage's work varies more from corpus to
# corpus, so its runs average over more of them.
CORPORA = {"triage_cached": 4}
# Timed passes per set-up sample (default 1). Set-up samples taken between
# passes span the run as the passes do, so their median sees the same host.
# A cold cache fill costs about two triage passes, so it is sampled less
# often, leaving most of the run to the timed passes.
SETUP_EVERY = {"triage_cached": 8}
MIN_SAMPLES = 4
TRACE_UNTRACED = 3
CLI_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units; the traced run reports all of them on
# every workload, 0 where a layer does no work.
PER_LAYER = {
    "corpus.generate_s": "s",
    "corpus.records": "count",
    "analysis.census_s": "s",
    "analysis.statements": "count",
    "sqlast.parse_s": "s",
    "sqlast.parse_calls": "count",
    "sqlast.parse_errors": "count",
    "sqlast.translate_s": "s",
    "sqlast.translate_calls": "count",
    "sqlast.rules_applied": "count",
    "engine.plan_cache.hit_ratio": "ratio",
    "engine.plan_cache.misses": "count",
    "engine.execute_s": "s",
    "engine.render_s": "s",
    "engine.statements": "count",
    "engine.errors": "count",
    "runner.self_s": "s",
    "runner.file_ms.p50": "ms",
    "runner.file_ms.p99": "ms",
    "runner.files": "count",
    "runner.records": "count",
    "runner.records_failed": "count",
    "study.donor_s": "s",
    "study.matrix_s": "s",
    "study.translated_s": "s",
    "study.coverage_s": "s",
    "backend.execute_s": "s",
    "backend.transport_s": "s",
    "backend.spawns": "count",
    "backend.restarts": "count",
    "backend.faults": "count",
    "cache.lookup_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes": "bytes",
    "triage.cluster_s": "s",
    "triage.reduce_s": "s",
    "triage.probes": "count",
    "triage.eliminated_ratio": "ratio",
    "triage.verified": "count",
    "bugstore.lookup_s": "s",
    "bugstore.store_s": "s",
    "bugstore.hits": "count",
    "bugstore.misses": "count",
    "bugstore.bytes": "bytes",
    "replay.s": "s",
    "replay.statements": "count",
    "report.render_s": "s",
    "cli.triage_s": "s",
    "cli.retriage_s": "s",
    "cli.replay_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_ratio": "ratio",
    "fail_ratio": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


CliRun = namedtuple("CliRun", "code stdout stderr wall_s maxrss_kb")


class Ops:
    """Operation accounting: each CLI invocation is one operation, failed
    when it exits non-zero or any check on its output misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def begin(self, what):
        self.attempted += 1
        return Op(self, what)


class Op:
    def __init__(self, ops, what):
        self.ops = ops
        self.what = what
        self.failed = False

    def check(self, ok, why):
        if not ok and not self.failed:
            self.failed = True
            self.ops.failed += 1
            log(f"FAILED {self.what}: {why}")
        return ok


def run_child(argv, cwd, env=None, timeout=CLI_TIMEOUT_S):
    """Run one child to completion; its wall time and peak RSS (wait4)."""
    out_path = cwd / f".child-{os.getpid()}.out"
    err_path = cwd / f".child-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return CliRun(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(trace):
    """Build the CLI, the backend worker and both helper packages. The
    traced re-drive binds to the library's API, so on an untraced run its
    build may fail without stopping the end-to-end measurement."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cargo = ["cargo", "build", "--release", "--offline", "-q"]
    steps = [
        (cargo + ["-p", "squality-bench", "-p", "squality-backend",
                  "--bin", "squality-tables", "--bin", "squality-backend-worker"], True),
        (cargo + ["--manifest-path", str(HERE / "gen" / "Cargo.toml")], True),
        (cargo + ["--manifest-path", str(HERE / "trace" / "Cargo.toml")], trace),
    ]
    for argv, required in steps:
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            if required:
                raise BenchError(f"build failed: {' '.join(argv)}")
            log(f"build failed, continuing without the traced run: {' '.join(argv)}")
    release = target_dir() / "release"
    return {name: release / name for name in
            ("squality-tables", "squality-backend-worker", "perfbench-gen", "perfbench-trace")}


def read_repros(directory):
    """A repro directory as a sorted list of (name, text)."""
    if not directory.is_dir():
        return []
    return sorted((p.name, p.read_text()) for p in directory.iterdir() if p.is_file())


def corpus_seed(seed, index):
    """Program seed of the run's `index`-th corpus: every run measures a
    series of distinct corpora derived from its `--seed`, so no single
    corpus's size decides the figures."""
    return (seed * 100 + index) % (1 << 63)


# One generated corpus: its program seed and record count.
Corpus = namedtuple("Corpus", "seed records")


class Bench:
    def __init__(self, workload, seed, bins, workdir):
        self.workload = workload
        self.seed = seed
        self.bins = bins
        self.workdir = workdir
        self.ops = Ops()
        self.env = dict(os.environ, SQUALITY_BACKEND_WORKER=str(bins["squality-backend-worker"]))
        self.scale = SCALE[workload]
        # Set-up samples: {"seed", "setup_s"} per timed set-up.
        self.setup = []

    def cli(self, args, what):
        op = self.ops.begin(what)
        run = run_child([str(self.bins["squality-tables"]), *map(str, args)], self.workdir,
                        self.env)
        op.check(run.code == 0, f"exit status {run.code}: {run.stderr.strip()[-400:]}")
        return op, run

    def common(self, corpus):
        return ["--scale", str(self.scale), "--seed", str(corpus.seed), "--workers", str(WORKERS)]

    # -- set-up ------------------------------------------------------------

    def generate(self, seeds):
        """Generate corpora through `generate_suite_scaled`, timing each;
        on every workload but `triage_cached` these timings are the set-up
        samples."""
        op = self.ops.begin(f"corpus generation {seeds}")
        run = run_child([str(self.bins["perfbench-gen"]), "--seeds", ",".join(map(str, seeds)),
                         "--scale", str(self.scale)], self.workdir)
        if not op.check(run.code == 0, f"exit status {run.code}: {run.stderr.strip()}"):
            raise BenchError("corpus generation failed")
        generated = json.loads(run.stdout.strip().splitlines()[-1])["corpora"]
        if self.workload != "triage_cached":
            self.setup += [{"seed": c["seed"], "setup_s": c["time_s"]} for c in generated]
        return op, [Corpus(c["seed"], c["records"]) for c in generated]

    def corpora(self, count):
        return self.generate([corpus_seed(self.seed, i) for i in range(count)])[1]

    def setup_sample(self, corpus):
        """One more set-up sample for `corpus`: its generation, or a cold
        cache fill, checked like the first."""
        if self.workload == "triage_cached":
            shutil.rmtree(self.fill_cache(corpus, "sample"), ignore_errors=True)
            return
        op, [again] = self.generate([corpus.seed])
        op.check(again == corpus, f"corpus {corpus.seed} generated differently: {again}")

    def fill_cache(self, corpus, tag):
        """`triage_cached` set-up: one cold `table4 --cache-dir` run into a
        fresh directory."""
        directory = self.workdir / f"cache-{corpus.seed}-{tag}"
        op, run = self.cli(["table4", *self.common(corpus), "--cache-dir", directory],
                           f"cold cache fill {tag}, corpus {corpus.seed}")
        self.setup.append({"seed": corpus.seed, "setup_s": run.wall_s})
        try:
            stats = benchlib.parse_result_cache(run.stderr)
            op.check(stats["stored"] > 0, f"cold fill stored nothing: {stats}")
        except benchlib.ParseError as e:
            op.check(False, str(e))
        return directory

    # -- reference ---------------------------------------------------------

    def reference(self, corpus):
        """The corpus's expected outputs, computed in-process with
        `--workers 1` and no cache."""
        if self.workload == "triage_cached":
            store, out = self.workdir / "ref-store", self.workdir / "ref-repros"
            op, run = self.cli(["triage", "--reduce", "--store", store, "--out", out,
                                *self.common(corpus)],
                               f"reference triage, corpus {corpus.seed}")
            emitted = self.emitted(op, run)
            repros = read_repros(out)
            op.check(len(repros) == emitted["verified"] and repros,
                     f"{len(repros)} repro files for {emitted['verified']} verified")
            shutil.rmtree(store, ignore_errors=True)
            shutil.rmtree(out, ignore_errors=True)
            return {"table": run.stdout.replace(str(out), "<out>"), "repros": repros,
                    "verified": emitted["verified"]}
        op, run = self.cli(["all", *self.common(corpus)],
                           f"reference study, corpus {corpus.seed}")
        if self.workload != "rq1_tables":
            return run.stdout
        sections = benchlib.split_sections(run.stdout)
        op.check(all(s in sections for s in RQ1_SECTIONS), "reference lacks RQ1 sections")
        return "".join(sections.get(s, "") for s in RQ1_SECTIONS)

    def emitted(self, op, run):
        """Parse and check the `Emitted N verified` line (zero unverified)."""
        op.check("UNVERIFIED" not in run.stdout, "a reduction is UNVERIFIED")
        try:
            emitted = benchlib.parse_emitted(run.stdout)
        except benchlib.ParseError as e:
            op.check(False, str(e))
            return {"verified": -1, "unverified": -1}
        op.check(emitted["unverified"] == 0, f"{emitted['unverified']} unverified reductions")
        return emitted

    # -- timed phase -------------------------------------------------------

    def sample(self, corpus, expected, cache_dir, tag):
        """One pass of the workload's CLI sequence on one corpus, checked
        against the corpus's reference: its timings and peak RSS."""
        if self.workload == "triage_cached":
            return self.triage_sample(corpus, expected, cache_dir, tag)
        if self.workload == "rq1_tables":
            args = [*RQ1_SECTIONS, *self.common(corpus)]
        else:
            args = ["all", *self.common(corpus)]
        op, run = self.cli(args, f"{self.workload}, corpus {corpus.seed} {tag}")
        op.check(run.stdout == expected, "output differs from the reference")
        return {"seed": corpus.seed, "wall_s": run.wall_s, "records": corpus.records,
                "rss_kb": run.maxrss_kb}

    def triage_sample(self, corpus, expected, cache_dir, tag):
        store = self.workdir / "store"
        outs = [self.workdir / "cold", self.workdir / "warm"]
        timings = []
        rss = 0
        for phase, out in zip(("cold", "warm"), outs):
            op, run = self.cli(["triage", "--reduce", "--store", store, "--cache-dir",
                                cache_dir, "--out", out, *self.common(corpus)],
                               f"triage {phase} store, corpus {corpus.seed} {tag}")
            timings.append(run.wall_s)
            rss = max(rss, run.maxrss_kb)
            emitted = self.emitted(op, run)
            op.check(emitted["verified"] == expected["verified"],
                     f"{emitted['verified']} verified, reference {expected['verified']}")
            op.check(read_repros(out) == expected["repros"],
                     "verified repro set differs from the reference")
            try:
                cache = benchlib.parse_result_cache(run.stderr)
                op.check(cache["hits"] > 0 and cache["misses"] == 0,
                         f"filled result cache did not serve the study: {cache}")
                bugs = benchlib.parse_bug_store(run.stderr)
                if phase == "cold":
                    op.check(bugs["hits"] == 0, f"cold store had hits: {bugs}")
                    op.check(run.stdout.replace(str(out), "<out>") == expected["table"],
                             "triage table differs from the reference")
                else:
                    op.check(bugs["hits"] > 0, f"warm store had no hits: {bugs}")
            except benchlib.ParseError as e:
                op.check(False, str(e))
        op, run = self.cli(["bugs", "replay", "--store", store, "--workers", WORKERS],
                           f"bugs replay, corpus {corpus.seed} {tag}")
        timings.append(run.wall_s)
        rss = max(rss, run.maxrss_kb)
        try:
            replay = benchlib.parse_replay(run.stdout)
            op.check(replay["regressed"] == 0, f"{replay['regressed']} entries regressed")
            op.check(replay["entries"] > 0, "replayed an empty store")
        except benchlib.ParseError as e:
            op.check(False, str(e))
        for path in (store, *outs):
            shutil.rmtree(path, ignore_errors=True)
        cold, warm, rep = timings
        return {"seed": corpus.seed, "wall_s": cold + warm + rep, "triage_s": cold,
                "retriage_s": warm, "replay_s": rep, "records": corpus.records, "rss_kb": rss}

    def measure(self, corpora, seconds):
        """Set up and compute the reference of every corpus, then the closed
        loop: one pass of the CLI sequence after another, round-robin over
        the corpora, until `seconds` of timed passes are spent (at least
        MIN_SAMPLES), with a set-up sample every SETUP_EVERY passes."""
        prepared = []
        for corpus in corpora:
            cache_dir = (self.fill_cache(corpus, "kept")
                         if self.workload == "triage_cached" else None)
            prepared.append((corpus, self.reference(corpus), cache_dir))
        every = SETUP_EVERY.get(self.workload, 1)
        samples = []
        timed = 0.0
        while True:
            corpus, expected, cache_dir = prepared[len(samples) % len(prepared)]
            started = time.perf_counter()
            samples.append(self.sample(corpus, expected, cache_dir, f"sample {len(samples)}"))
            timed += time.perf_counter() - started
            if len(samples) >= MIN_SAMPLES and timed * (1 + 1 / len(samples)) > seconds:
                return samples
            if len(samples) % every == 0:
                self.setup_sample(corpus)

    # -- traced run ----------------------------------------------------------

    def traced(self, corpus, seconds, spans_out):
        """Untraced samples on one corpus, then the traced re-drive of the
        same corpus, checked against the same reference."""
        cache_dir = (self.fill_cache(corpus, "kept")
                     if self.workload == "triage_cached" else None)
        expected = self.reference(corpus)
        samples = [self.sample(corpus, expected, cache_dir, f"untraced {i}")
                   for i in range(TRACE_UNTRACED)]
        op = self.ops.begin("traced re-drive")
        trace_dir = self.workdir / "trace"
        run = run_child([str(self.bins["perfbench-trace"]), "--workload", self.workload,
                         "--seed", str(corpus.seed), "--scale", str(self.scale),
                         "--seconds", f"{seconds:.3f}",
                         "--workdir", str(trace_dir), "--spans-out", str(spans_out)],
                        self.workdir, self.env)
        if not op.check(run.code == 0, f"exit status {run.code}: {run.stderr.strip()[-400:]}"):
            return samples, [], []
        result = json.loads(run.stdout.strip().splitlines()[-1])
        iterations = result["iterations"]
        op.check(result["outputs_differing"] == 0, "traced iterations disagree")
        for it in iterations:
            op.check(it["trace.cells_mismatched"] == 0,
                     f"{it['trace.cells_mismatched']:g} re-driven cells disagree with the study")
            op.check(it["trace.replays_mismatched"] == 0,
                     f"{it['trace.replays_mismatched']:g} cache or bug-store replays found "
                     "other entries than the program")
            op.check(it["backend.faults"] == 0,
                     f"{it['backend.faults']:g} backend crashes, timeouts or protocol errors")
            if self.workload == "study":
                op.check(it["backend.spawns"] > 0, "no backend worker was spawned")
        if self.workload == "triage_cached":
            for phase in ("cold", "warm"):
                op.check(read_repros(trace_dir / f"trace-repros-{phase}") == expected["repros"],
                         f"traced {phase} repro set differs from the reference")
            for it in iterations:
                op.check(it["triage.unverified"] == 0, "traced triage left unverified reductions")
                op.check(it["replay.regressed"] == 0, "traced replay regressed")
        else:
            text = (trace_dir / "trace-output.txt").read_text()
            op.check(text == expected, "traced report differs from the reference")
        return samples, iterations, result["file_ms"]


def median_of(samples, value):
    """Summary of `value(sample)` over the passes, whose `median` is the
    mean of each corpus's median: the runs alternate between corpora, and
    how many passes each one got must not tilt the figure."""
    summary = benchlib.summarize(value(s) for s in samples)
    groups = {}
    for s in samples:
        groups.setdefault(s["seed"], []).append(value(s))
    summary["median"] = benchlib.grouped_median(groups.values())
    return summary


def end_to_end(bench, samples):
    return {
        "wall_s": median_of(samples, lambda s: s["wall_s"]),
        "records_per_s": median_of(samples, lambda s: s["records"] / s["wall_s"]),
        "setup_s": median_of(bench.setup, lambda s: s["setup_s"]),
        "peak_rss_mb": median_of(samples, lambda s: s["rss_kb"] / 1024),
    }


def per_layer(bench, samples, iterations, file_ms):
    metrics = {}
    for key in PER_LAYER:
        if iterations and key in iterations[0]:
            metrics[key] = statistics.median(it[key] for it in iterations)
    if file_ms:
        metrics["runner.file_ms.p50"] = benchlib.percentile(file_ms, 50)
        try:
            metrics["runner.file_ms.p99"] = benchlib.percentile(file_ms, 99)
        except ValueError as e:
            log(f"runner.file_ms.p99 not reported: {e}")
    if iterations:
        untraced = median_of(samples, lambda s: s["wall_s"])["median"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    if bench.workload == "triage_cached":
        for key in ("triage_s", "retriage_s", "replay_s"):
            metrics[f"cli.{key}"] = median_of(samples, lambda s: s[key])["median"]
    metrics["fail_ratio"] = bench.ops.failed / max(bench.ops.attempted, 1)
    return {k: metrics.get(k, 0.0) for k in PER_LAYER}


def run(args):
    bins = build(args.trace)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, bins, workdir)
        if not args.trace:
            samples = bench.measure(bench.corpora(CORPORA.get(args.workload, 2)), args.seconds)
            summary = end_to_end(bench, samples)
            for name, s in summary.items():
                tail = f", p{s['tail'][0]}={s['tail'][1]:.6f}" if s["tail"] else ""
                print(f"{name:<16} {s['median']:>14.6f} {END_TO_END[name]:<6} "
                      f"(n={s['n']}, q1={s['q1']:.6f}, q3={s['q3']:.6f}{tail})")
            metrics = {name: {"value": summary[name]["median"], "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            corpus = bench.corpora(1)[0]
            samples, iterations, file_ms = bench.traced(corpus, args.seconds / 2, spans_out)
            values = per_layer(bench, samples, iterations, file_ms)
            for name, value in values.items():
                print(f"{name:<28} {value:>16.6f} {PER_LAYER[name]}")
            print(f"spans written to {spans_out.relative_to(ROOT)} "
                  f"({len(iterations)} traced iterations)")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        ops = bench.ops
        return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"{ROOT} holds no squality workspace to build")
        return 2
    try:
        result = run(args)
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
