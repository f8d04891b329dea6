"""Run one workload in this interpreter and return its samples.

Called by `run.py` after its set-up probes, in the interpreter `run.py`
started in, which imports miniK only here. Every driver command goes through
`minik.cli.main([...])` with stdout captured, and every golden run through
`minik.cli.run_corpus`; each output is checked against a reference that does
not come from miniK (the committed goldens for `corpus`, the generators'
by-construction outputs otherwise).
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import minik.cli  # noqa: E402

import calibrate  # noqa: E402
import gen  # noqa: E402

GOLDEN_COLUMNS = {
    "check_ms": "check",
    "check_strict_ms": "check-strict",
    "lint_ms": "lint",
    "sites_ms": "sites",
    "run_erased_ms": "run-erased",
    "run_reified_ms": "run-reified",
}
BLOCKED = "<blocked by errors>"
MIN_PASSES = 3
GOLDEN_AFTER_PASS = 2  # golden_s samples per pass on workloads whose pass has no golden run
CALIBRATE_EVERY_S = 0.1  # time the calibration kernel between invocations this often
NEARBY_CALIBRATIONS = 5  # a sample is scaled by the median kernel time this many points either side of it
SECOND_SEED_SIZE = {"launder": 20, "calltree": 5}  # the reference check on a second seed


@dataclass(frozen=True)
class Job:
    path: Path
    expected: dict[str, gen.Expected]


# ============================================================
# WORKLOAD INPUTS
# ============================================================


def _golden_sections(text: str) -> dict[str, list[str]]:
    # Read here rather than with miniK's own golden reader, so that the
    # reference does not come from the toolchain under test.
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], [])
        elif current is not None and line.strip() and not line.startswith("#"):
            current.append(line.rstrip())
    return sections


def _golden_expected(lines: list[str]) -> gen.Expected:
    """The CLI's stdout and exit code implied by one golden column: the run
    and sites columns record a program blocked by errors with a marker
    line the CLI does not print."""
    shown = [ln for ln in lines if ln != BLOCKED]
    if shown and shown[0].startswith("parse error "):
        code = 2
    elif BLOCKED in lines or any(ln.startswith("error ") for ln in lines):
        code = 1
    else:
        code = 0
    return gen.Expected("".join(ln + "\n" for ln in shown), code)


def corpus_jobs(seed: int) -> list[Job]:
    corpus_dir = ROOT / "src" / "minik" / "corpus"
    jobs = []
    for path in sorted(corpus_dir.glob("*.mk")):
        golden = _golden_sections((corpus_dir / "golden" / f"{path.stem}.golden").read_text(encoding="utf-8"))
        jobs.append(Job(path, {m: _golden_expected(golden[c]) for m, c in GOLDEN_COLUMNS.items()}))
    if not jobs:
        raise FileNotFoundError(f"no corpus programs under {corpus_dir}")
    random.Random(f"corpus:{seed}").shuffle(jobs)
    return jobs


def generated_job(workload: str, seed: int, *size: int) -> Job:
    g = gen.GENERATORS[workload](seed, *size)
    path = WORK / "programs" / f"{workload}-seed{seed}-{'-'.join(map(str, size)) or 'full'}" / g.filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(g.source, encoding="utf-8")
    return Job(path, g.expected)


# ============================================================
# INVOCATIONS
# ============================================================


class Runner:
    """Invokes the toolchain, times each invocation, and checks its output.
    Between invocations it times the calibration kernel every
    `CALIBRATE_EVERY_S`, outside every timed region."""

    def __init__(self, golden_total: int) -> None:
        self.golden_total = golden_total
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []
        self._last_calibration = time.perf_counter()

    def calibrate_if_due(self) -> int:
        """Time the kernel if it is due; return the ns spent doing so."""
        start = time.perf_counter_ns()
        if start / 1e9 - self._last_calibration < CALIBRATE_EVERY_S:
            return 0
        self.calibrations.append(calibrate.measure())
        end = time.perf_counter_ns()
        self._last_calibration = end / 1e9
        return end - start

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {detail}")

    def command(self, job: Job, metric: str, args: tuple[str, ...]) -> float:
        """One `minik <cmd> <file>` invocation; returns its latency in ms."""
        self.attempted += 1
        argv = [args[0], str(job.path), *args[1:]]
        buf = io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                code = minik.cli.main(argv)
        except (Exception, SystemExit):
            self._fail(" ".join(argv), traceback.format_exc(limit=3))
            return (time.perf_counter_ns() - start) / 1e6
        elapsed = (time.perf_counter_ns() - start) / 1e6
        want = job.expected[metric]
        if code != want.exit_code or buf.getvalue() != want.stdout:
            self._fail(" ".join(argv), f"exit {code} (want {want.exit_code}); stdout differs from the reference:\n"
                       f"--- got (first 400 chars)\n{buf.getvalue()[:400]}\n--- want\n{want.stdout[:400]}")
        return elapsed

    def golden(self) -> float:
        """One `minik corpus` run; returns its duration in s."""
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter_ns()
        try:
            code = minik.cli.run_corpus(None, False, out=buf)
        except Exception:
            self._fail("minik corpus", traceback.format_exc(limit=3))
            return (time.perf_counter_ns() - start) / 1e9
        elapsed = (time.perf_counter_ns() - start) / 1e9
        lines = buf.getvalue().splitlines()
        summary = f"total={self.golden_total} failed=0"
        if code != 0 or not lines or lines[-1] != summary or not all(ln.endswith(" PASS") for ln in lines[:-1]):
            self._fail("minik corpus", f"exit {code}, want {summary!r}; got {lines[-1] if lines else ''!r}")
        return elapsed

    def nearby_kernel(self, first: int, last: int) -> float:
        """Median kernel time around the calibration points `first`..`last`
        (indices into `calibrations` taken when a sample began and ended)."""
        lo = max(0, first - NEARBY_CALIBRATIONS)
        return statistics.median(self.calibrations[lo:last + NEARBY_CALIBRATIONS])

    def run_pass(self, jobs: list[Job], with_golden: bool):
        """Every program through the six driver commands (plus one golden
        run when asked). Returns the pass time in s and each latency, and
        the calibration window (first, last index into `calibrations`) of
        the pass and of each latency."""
        gc.collect()  # each pass starts from the same heap; GC stays on inside it
        latencies: dict[str, list[float]] = {m: [] for m, _ in gen.COMMANDS}
        windows: dict[str, list[tuple[int, int]]] = {m: [] for m, _ in gen.COMMANDS}
        calibrating = 0
        first = len(self.calibrations)
        start = time.perf_counter_ns()
        for job in jobs:
            for metric, args in gen.COMMANDS:
                latencies[metric].append(self.command(job, metric, args))
                windows[metric].append((len(self.calibrations),) * 2)
                calibrating += self.calibrate_if_due()
        if with_golden:
            latencies["golden_s"] = [self.golden()]
            windows["golden_s"] = [(len(self.calibrations),) * 2]
        elapsed = (time.perf_counter_ns() - start - calibrating) / 1e9
        windows["pass_s"] = [(first, len(self.calibrations))]
        self.calibrate_if_due()
        return elapsed, latencies, windows


# ============================================================
# THE RUN
# ============================================================


def timed_passes(runner: Runner, jobs: list[Job], with_golden: bool, seconds: float, minimum: int = MIN_PASSES):
    """Passes until `seconds` have elapsed. Where a pass has no golden run,
    golden runs are timed after each pass instead, so that their samples,
    like every other metric's, spread over the whole run."""
    samples: dict[str, list[float]] = {}
    windows: dict[str, list[tuple[int, int]]] = {}
    runner.calibrations[:] = [calibrate.measure()]
    deadline = time.perf_counter() + seconds
    while len(samples.get("pass_s", ())) < minimum or time.perf_counter() < deadline:
        elapsed, latencies, pass_windows = runner.run_pass(jobs, with_golden)
        latencies["pass_s"] = [elapsed]
        if not with_golden:
            latencies["golden_s"], pass_windows["golden_s"] = [], []
            for _ in range(GOLDEN_AFTER_PASS):
                latencies["golden_s"].append(runner.golden())
                pass_windows["golden_s"].append((len(runner.calibrations),) * 2)
                runner.calibrate_if_due()
        for k, v in latencies.items():
            samples.setdefault(k, []).extend(v)
            windows.setdefault(k, []).extend(pass_windows[k])
    kernels = {k: [runner.nearby_kernel(a, b) for a, b in v] for k, v in windows.items()}
    return samples, kernels, list(runner.calibrations)


def traced_layers(runner: Runner, jobs: list[Job], with_golden: bool, seconds: float, workload: str, seed: int):
    """Untraced and traced passes in turn. Per-layer numbers are medians
    over the traced passes; `trace.overhead` is the median ratio of each
    traced pass to the untraced pass just before it, so that both sides of
    a ratio see the same host speed."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        runner.run_pass(jobs, with_golden)  # fills the tracer's memo tables; discarded
    finally:
        tracer.uninstall()
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(per_pass) < 2 or time.perf_counter() < deadline:
        untraced = runner.run_pass(jobs, with_golden)[0]
        tracer.install()
        try:
            first = tracer.begin_pass()
            traced = runner.run_pass(jobs, with_golden)[0]
        finally:
            tracer.uninstall()
        layers = tracer.summarize(first)
        layers["trace.pass_s"] = traced
        layers["trace.overhead"] = traced / untraced
        per_pass.append(layers)
    tracer.dump(WORK / "trace" / f"{workload}-seed{seed}.spans")

    result = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    traced_pass_ms = result["trace.pass_s"] * 1e3
    result["share.runtime_pct"] = 100 * (result["runtime.erased_ms"] + result["runtime.reified_ms"]) / traced_pass_ms
    result["share.frontend_pct"] = 100 * (result["lexer.ms"] + result["parser.ms"] + result["checker.ms"]) / traced_pass_ms
    return result, len(per_pass)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Check the references, warm up, then time (or trace) passes for
    `seconds`. Returns the samples (or layer numbers) and the counts of
    invocations attempted and failed."""
    corpus = corpus_jobs(seed)
    runner = Runner(golden_total=len(corpus) * len(gen.COMMANDS))
    if workload == "corpus":
        jobs = corpus
    else:
        # The reference is checked on a second seed (small) before timing;
        # the run's own seed is checked by the warm-up pass and every pass.
        runner.run_pass([generated_job(workload, seed + 1, SECOND_SEED_SIZE[workload])], False)
        jobs = [generated_job(workload, seed)]
    with_golden = workload == "corpus"

    runner.run_pass(jobs, with_golden)  # warm-up: the first passes read slower
    out: dict = {}
    if trace:
        out["layers"], out["traced_passes"] = traced_layers(runner, jobs, with_golden, seconds, workload, seed)
    else:
        out["samples"], out["kernels"], out["calibrations"] = timed_passes(runner, jobs, with_golden, seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return out
