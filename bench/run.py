"""Stdlib-only benchmark of ``essencemap map`` on seeded synthetic corpora.

Run from the repository root::

    python3 bench/run.py --workload scoring-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each run generates its workload's corpus from ``--seed``, checks the program
against the correctness gate (``gate.py``), then for ``--seconds`` calls
``essencemap.cli.main(argv)`` in-process with ``--out`` pointing at a
scratch file, one invocation at a time (a closed loop of one client).
The last line of standard output is one JSON object; the lines before it
repeat the figures for people, with sample counts, ``failed_frac``, the
report's SHA-256 and the ``src/`` line count.

With ``--trace 0`` the metrics are:

* ``map_s``: one full ``map``, from argv to the written report;
* ``attr_pairs_per_s``: the workload's sum of n1*n2 over concept pairs,
  divided by ``map_s``;
* ``setup_s``: a fresh interpreter, from before ``import essencemap`` until
  the workload's input files are loaded and validated;
* ``peak_rss_mb``: peak resident memory of a child process running one
  full ``map``.

With ``--trace 1`` they are the per-layer figures of ``tracer.py``, from
traced invocations interleaved with untraced ones.  Every time is the
median over the run's samples of that sample scaled by ``HostSpeed``, which
removes most of the slowdown other tenants of a shared host cause.

Scratch files live in ``.bench_work/`` under the repository root and are
removed at exit.  Without ``src/essencemap`` the benchmark exits with
status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpora import SHAPES, Shape, generate, write
from gate import ReportError, case_study, check_report, oracle_probe
from tracer import MissingHookError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
REFERENCE_LOOP_S = 0.02
REFERENCE_PROBES = 3
REFERENCE_TABLE = 200_000
REFERENCE_LOOKUPS = 20_000
ORACLE_SAMPLES = 120
CHILD_TIMEOUT_S = 120

# Runs in a fresh interpreter: the clock starts before ``import essencemap``
# and stops once every input of the workload is loaded and validated.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import essencemap
practice = essencemap.load_concepts(sys.argv[2])
framework = essencemap.load_concepts(sys.argv[3])
essencemap.load_lexicon(sys.argv[4])
if len(sys.argv) > 5:
    essencemap.load_annotations(sys.argv[5], (practice, framework))
print(repr(time.perf_counter() - start))
"""

# One full ``map`` in a fresh interpreter; prints its peak resident set (KiB).
# VmHWM, unlike ``ru_maxrss``, does not inherit the parent's peak at spawn.
RSS_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from essencemap.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@dataclass
class Outcome:
    """Metrics and bookkeeping of one workload run."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "essencemap").rglob("*.py")))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(values) -> str:
    q1, q3 = quartiles(values)
    return f"median of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f})"


class Workload:
    """Generated inputs of one workload and the calls that exercise them."""

    def __init__(self, shape: Shape, seed: int, directory: Path):
        import essencemap

        self.shape = shape
        self.seed = seed
        self.directory = directory
        self.corpus = generate(shape, seed)
        self.paths = write(self.corpus, directory)
        self.paths["lexicon"] = essencemap.bundled_path("paper.lex")
        self.out = directory / "report.out"
        self.argv = [
            "map",
            "--practice", str(self.paths["practice"]),
            "--framework", str(self.paths["framework"]),
            "--lexicon", str(self.paths["lexicon"]),
            "--mode", shape.mode,
            "--threshold", str(shape.threshold),
            "--format", shape.out_format,
            "--out", str(self.out),
        ]
        if "annotations" in self.paths:
            self.argv += ["--annotations", str(self.paths["annotations"])]

    def input_files(self) -> list[str]:
        names = ("practice", "framework", "lexicon", "annotations")
        return [str(self.paths[n]) for n in names if n in self.paths]


def invoke(argv, out: Path, outcome: Outcome):
    """One in-process ``map``; returns (seconds, report, diagnostic lines).

    Diagnostics go to a string buffer, so terminal output is not timed.
    A non-zero exit or an exception counts as a failed invocation and
    returns no report.
    """
    from essencemap.cli import main

    out.unlink(missing_ok=True)
    gc.collect()
    errors = io.StringIO()
    outcome.attempted += 1
    with contextlib.redirect_stderr(errors):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            code = repr(exc)
        seconds = time.perf_counter() - start
    if code != 0:
        outcome.fail(f"map exited with {code}: {errors.getvalue()[-300:]!r}")
        return seconds, None, 0
    return seconds, out.read_bytes(), errors.getvalue().count("\n")


def run_child(code: str, args, outcome: Outcome) -> str | None:
    """Last stdout line of a fresh interpreter running ``code``, or None on failure."""
    outcome.attempted += 1
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        message = f"child process timed out after {CHILD_TIMEOUT_S} s"
    else:
        if done.returncode == 0:
            return done.stdout.strip().splitlines()[-1]
        message = f"child process exited with {done.returncode}: {done.stderr[-300:]!r}"
    outcome.fail(message)
    return None


def measure_peak_rss(work: Workload, reference: bytes, outcome: Outcome) -> float | None:
    work.out.unlink(missing_ok=True)
    printed = run_child(RSS_CHILD, [str(SRC), *work.argv], outcome)
    if printed is None:
        return None
    if work.out.read_bytes() != reference:
        outcome.fail("report of the peak-memory child differs from the reference")
    return int(printed) * 1024 / 1e6


def run_gate(work: Workload, outcome: Outcome) -> bytes | None:
    """Check the program on this workload; returns the reference report."""
    import essencemap

    def case_table(mode: str) -> str:
        out = work.directory / "case-study.out"
        argv = ["map", "--practice", str(essencemap.bundled_path("scrum.concepts")),
                "--framework", str(essencemap.bundled_path("essence.concepts")),
                "--mode", mode, "--out", str(out)]
        if mode == "annotated":
            argv += ["--annotations", str(essencemap.bundled_path("paper-table1.ann"))]
        else:
            argv += ["--lexicon", str(essencemap.bundled_path("paper.lex"))]
        _, report, _ = invoke(argv, out, outcome)
        return report.decode("utf-8") if report is not None else ""

    for problem in case_study(case_table):
        outcome.fail(problem)

    _, reference, _ = invoke(work.argv, work.out, outcome)
    if reference is None:
        return None
    shape = work.shape
    try:
        check_report(reference.decode("utf-8"), shape.out_format, work.corpus.practice,
                     work.corpus.framework, shape.mode, shape.threshold)
    except ReportError as exc:
        outcome.fail(f"report fails the gate: {exc}")
        return None

    practice = essencemap.load_concepts(work.paths["practice"])
    framework = essencemap.load_concepts(work.paths["framework"])
    annotations = None
    if "annotations" in work.paths:
        annotations = essencemap.load_annotations(work.paths["annotations"], (practice, framework))
    scorer = essencemap.MapConfig(
        essencemap.load_lexicon(work.paths["lexicon"]), annotations, shape.mode, shape.threshold
    ).make_scorer()
    rng = random.Random(f"oracle:{shape.name}:{work.seed}")
    checked, mismatches = oracle_probe(practice, framework, scorer, shape.threshold,
                                       rng, ORACLE_SAMPLES)
    if mismatches:
        outcome.fail(f"max_matching disagrees with the oracle on {mismatches} of {checked} pairs")
    outcome.lines.append(f"oracle            {mismatches} mismatches over {checked} concept pairs")
    return reference


class HostSpeed:
    """Scales times to a host on which the reference loop takes REFERENCE_LOOP_S.

    Other tenants of a shared machine slow it down, often twofold and for
    seconds to minutes at a time, through the CPU and through the shared
    cache.  The reference loop does both kinds of work: small-dict, tuple-hash
    and set operations, then random lookups in a table larger than a core's
    caches.  Each measurement is divided by the median of the reference loops
    run just before and just after it, so slow spells largely cancel.
    """

    def __init__(self):
        self._table = {(i, str(i)): i for i in range(REFERENCE_TABLE)}
        keys = list(self._table)
        random.Random(0).shuffle(keys)
        self._keys = keys[:REFERENCE_LOOKUPS]
        gc.freeze()  # keep the table out of the program's collections
        self._last = None

    def reference_loop(self) -> float:
        """Seconds for one pass; the collector is off while it runs."""
        small, table = {}, self._table
        gc.disable()
        try:
            start = time.perf_counter()
            for i in range(20000):
                key = (i & 255, "k")
                small[key] = small.get(key, 0) + 1
                frozenset((i, i + 1)) & frozenset((i + 1,))
            total = 0
            for key in self._keys:
                total += table[key]
            return time.perf_counter() - start
        finally:
            gc.enable()

    def _probe(self) -> list[float]:
        return [self.reference_loop() for _ in range(REFERENCE_PROBES)]

    def around(self, call):
        """(result of ``call()``, factor that scales its times to the reference host)."""
        before = self._last if self._last is not None else self._probe()
        result = call()
        self._last = self._probe()
        return result, REFERENCE_LOOP_S / statistics.median(before + self._last)


def timed_loop(seconds: float, step):
    """Call ``step`` at least MIN_SAMPLES times, and again while another
    call, as long as the longest so far, still ends within ``seconds``."""
    start = time.perf_counter()
    rounds, longest = 0, 0.0
    while rounds < MIN_SAMPLES or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - began)
        rounds += 1


def checked_invoke(work: Workload, reference: bytes, outcome: Outcome):
    """A timed ``map`` whose report must equal the reference: (seconds, diagnostics) or None."""
    seconds, report, diagnostics = invoke(work.argv, work.out, outcome)
    if report is None:
        return None
    if report != reference:
        outcome.fail("report differs from the reference report of this run")
        return None
    return seconds, diagnostics


LAYER_TIMES = ("corpus.load_s", "lta.level_s", "lta.extract_spo_s", "lta.canonicalize_s",
               "matching.candidate_pairs_s", "matching.max_matching_s", "concepts.similarity_s",
               "mapper.classify_s", "mapper.self_s", "cli.render_s")


def layer_metrics(tracer: Tracer, report_bytes: int, diagnostics: int, factor: float) -> dict:
    """Per-layer figures of the one traced invocation just run; times scaled by ``factor``."""
    stats = tracer.stats
    self_s = lambda *keys: factor * sum(s.self_s for k, s in stats.items() if k.startswith(keys))
    level_calls = stats["StatementScorer.level"].calls
    candidates = stats["candidate_pairs"].items
    lines = sum(len(Path(p).read_text(encoding="utf-8").splitlines())
                for p in dict.fromkeys(map(str, tracer.loaded_paths)))
    return {
        "corpus.load_s": self_s("load_"),
        "corpus.lines": lines,
        "corpus.annotation_pairs": stats["load_annotations"].items,
        "corpus.level_for_calls": stats["AnnotationTable.level_for"].calls,
        "corpus.level_for_hits": stats["AnnotationTable.level_for"].items,
        "lta.level_calls": level_calls,
        "lta.level_s": self_s("StatementScorer.level"),
        "lta.extract_spo_calls": stats["extract_spo"].calls,
        "lta.extract_spo_s": self_s("extract_spo"),
        "lta.canonicalize_calls": stats["canonicalize_part"].calls,
        "lta.canonicalize_s": self_s("canonicalize_part"),
        "matching.candidate_pairs_s": self_s("candidate_pairs"),
        "matching.candidates": candidates,
        "matching.keep_ratio": candidates / level_calls if level_calls else 0.0,
        "matching.max_matching_s": self_s("max_matching"),
        "matching.max_matching_calls": stats["max_matching"].calls,
        "matching.matched_pairs": stats["max_matching"].items,
        "concepts.similarity_s": self_s("similarity"),
        "mapper.classify_s": self_s("classify"),
        "mapper.self_s": self_s("map_contexts"),
        "mapper.results": stats["map_contexts"].items,
        "cli.render_s": self_s("render_"),
        "cli.report_bytes": report_bytes,
        "cli.diagnostics": diagnostics,
        "_layers": {layer: factor * t for layer, t in tracer.layer_self_s().items()},
    }


def run_workload(shape: Shape, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{shape.name}-", dir=WORK))
    try:
        work = Workload(shape, seed, directory)
        outcome.lines.append(
            f"== {shape.name} (seed {seed}): {shape.practice_concepts} x {shape.framework_concepts}"
            f" concepts x {shape.attributes} attributes, {shape.mode} mode, threshold"
            f" {shape.threshold}, {shape.out_format}; {shape.attr_pairs} attribute pairs"
        )
        reference = run_gate(work, outcome)
        if reference is None:
            return outcome
        if trace:
            trace_run(work, reference, seconds, outcome)
        else:
            plain_run(work, reference, seconds, outcome)
        outcome.lines.append(f"failed_frac       {outcome.failed / outcome.attempted:.4f}"
                             f"  ({outcome.failed} of {outcome.attempted} invocations)")
        outcome.lines.append(f"report_sha256     {hashlib.sha256(reference).hexdigest()}")
        outcome.lines.append(f"src_lines         {src_line_count()}")
        return outcome
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def plain_run(work: Workload, reference: bytes, seconds: float, outcome: Outcome):
    rss_mb = measure_peak_rss(work, reference, outcome)
    setup_args = [str(SRC), *work.input_files()]
    host = HostSpeed()
    plain, raw, setup = [], [], []

    def step():
        done, factor = host.around(lambda: checked_invoke(work, reference, outcome))
        if done is not None:
            plain.append(done[0] * factor)
            raw.append(done[0])
        printed, factor = host.around(lambda: run_child(SETUP_CHILD, setup_args, outcome))
        if printed is not None:
            setup.append(float(printed) * factor)

    timed_loop(seconds, step)
    if not (plain and setup and rss_mb):
        return
    map_s = statistics.median(plain)
    rate = work.shape.attr_pairs / map_s
    outcome.metrics = {
        "map_s": {"value": map_s, "unit": "s"},
        "attr_pairs_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    outcome.lines += [
        f"map_s             {map_s:.4f} s  {describe(plain)}; unscaled median {statistics.median(raw):.4f} s",
        f"attr_pairs_per_s  {rate:.1f} 1/s  ({work.shape.attr_pairs} attribute pairs / map_s)",
        f"setup_s           {statistics.median(setup):.4f} s  {describe(setup)} fresh interpreters",
        f"peak_rss_mb       {rss_mb:.2f} MB  (1 child process)",
    ]


PER_LAYER_UNITS = {"keep_ratio": "ratio", "report_bytes": "bytes"}


def trace_run(work: Workload, reference: bytes, seconds: float, outcome: Outcome):
    tracer = Tracer()
    host = HostSpeed()
    plain, traced, runs = [], [], []

    def traced_invoke():
        tracer.reset()
        with tracer.installed():
            return checked_invoke(work, reference, outcome)

    def step():
        done, factor = host.around(lambda: checked_invoke(work, reference, outcome))
        if done is not None:
            plain.append(done[0] * factor)
        done, factor = host.around(traced_invoke)
        if done is not None:
            traced.append(done[0] * factor)
            runs.append(layer_metrics(tracer, len(reference), done[1], factor))

    timed_loop(seconds, step)
    if not (plain and runs):
        return
    counts = [{k: v for k, v in run.items() if k not in LAYER_TIMES and k != "_layers"} for run in runs]
    if any(c != counts[0] for c in counts):
        outcome.problems.append("per-layer counts differ between traced invocations")
    metrics = {}
    for name, value in counts[0].items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    for name in LAYER_TIMES:
        metrics[name] = {"value": statistics.median(run[name] for run in runs), "unit": "s"}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    outcome.metrics = metrics
    layers = {layer: statistics.median(run["_layers"][layer] for run in runs)
              for layer in runs[0]["_layers"]}
    outcome.lines.append(f"traced map_s      {statistics.median(traced):.4f} s  {describe(traced)}")
    outcome.lines.append(f"untraced map_s    {statistics.median(plain):.4f} s  {describe(plain)}")
    for name, metric in metrics.items():
        outcome.lines.append(f"{name:<28} {metric['value']:.6g} {metric['unit']}")
    total = sum(layers.values())
    for layer, value in sorted(layers.items(), key=lambda item: -item[1]):
        outcome.lines.append(f"layer self time   {layer:<9} {value:.4f} s  {value / total:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*SHAPES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "essencemap" / "__init__.py").is_file():
        print(f"bench: no essencemap package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # One CPU for this process and its children, so the reference loops
    # that scale a measurement ran where the measurement ran.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(SHAPES) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = outcome = run_workload(SHAPES[name], args.seed, args.seconds, bool(args.trace))
            for line in outcome.lines + [f"problem: {p}" for p in outcome.problems]:
                print(line, flush=True)
    except MissingHookError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if len(outcomes) == 1:
        metrics = outcome.metrics
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o.metrics.items()}
    result = {
        "correct": all(not o.problems and o.metrics for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
