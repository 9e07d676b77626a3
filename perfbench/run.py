"""sosid benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload duration-grid --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every request twice, untraced and traced in alternating order, and
reports the per-layer metrics from the traced copies plus the tracing
overhead. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment record and sample counts, which also go, with the spans of
a traced run, to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One BLAS thread: the machine has two cores and is shared, and a single
# thread keeps run-to-run spread low. Set before numpy is first imported.
BLAS_THREADS = 1

# The gated end-to-end metrics. The host's speed switches between a fast
# and a slow state for tens of seconds at a time, which moves a run's median
# request time by up to a quarter from run to run; interference only adds
# time, so the fastest request is the steady figure to gate on. Medians,
# tails, throughput and enrollment are printed too, in the line before the
# result, but not gated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "request_s_min": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read straight off the spans: (span name, field).
SPAN_FIELDS = (
    ("frontend.load_wav", "calls"),
    ("frontend.load_wav", "s"),
    ("frontend.extract_features", "calls"),
    ("frontend.extract_features", "s"),
    ("frontend.load_features_csv", "calls"),
    ("frontend.load_features_csv", "s"),
    ("frontend.save_features_csv", "s"),
    ("gaussian.from_frames", "calls"),
    ("gaussian.from_frames", "s"),
    ("gaussian.factorize", "calls"),
    ("gaussian.factorize", "s"),
    ("gaussian.save_model_store", "s"),
    ("gaussian.load_model_store", "s"),
    ("measures.evaluate", "calls"),
    ("measures.evaluate", "s"),
    ("identify.register", "calls"),
    ("identify.register", "s"),
    ("identify.identify", "calls"),
    ("identify.identify", "s"),
    ("identify.score_matrix", "calls"),
    ("identify.score_matrix", "s"),
    ("phonetic.parse_alignment", "calls"),
    ("phonetic.parse_alignment", "s"),
    ("phonetic.expand_kernels", "s"),
    ("phonetic.select_frames", "s"),
    ("phonetic.assemble_tests", "s"),
    ("experiment.load_corpus", "s"),
    ("experiment.run_duration_experiment", "self_s"),
    ("experiment.run_phonetic_experiment", "self_s"),
    ("experiment.emit_report", "s"),
    ("synthetic.make_corpus", "s"),
    ("synthetic.write_corpus", "s"),
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals, counts, overhead: float, coverage: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    metrics = {
        f"{span}.{field}": (totals[span][field], FIELD_UNITS[field])
        for span, field in SPAN_FIELDS
    }

    def busy(span):
        return totals[span]["s"]

    def calls(span):
        return totals[span]["calls"]

    metrics.update(
        {
            "frontend.frames_per_s": (
                _ratio(counts["frames"], busy("frontend.extract_features")), "1/s"),
            "frontend.csv_rows_per_s": (
                _ratio(counts["rows"], busy("frontend.load_features_csv")), "1/s"),
            "gaussian.models_per_s": (
                _ratio(calls("gaussian.from_frames"), busy("gaussian.from_frames")), "1/s"),
            "gaussian.factorize_per_model": (
                _ratio(calls("gaussian.factorize"), calls("gaussian.from_frames")), "ratio"),
            "gaussian.loading_events": (counts["loading_events"], "count"),
            "measures.pairs_per_s": (
                _ratio(calls("measures.evaluate"), busy("measures.evaluate")), "1/s"),
            "identify.cells_per_s": (
                _ratio(counts["cells"], busy("identify.score_matrix")), "1/s"),
            "phonetic.selected_frames": (counts["selected_frames"], "count"),
            "trace.overhead_frac": (overhead, "ratio"),
            "trace.coverage_frac": (coverage, "ratio"),
        }
    )
    return metrics


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


class Run:
    """Drives one workload through setup, enrollment and the request loop.

    The host's speed drifts between a fast and a slow state for seconds at
    a time, so the repetitions of setup and enrollment after the first are
    spread evenly over the request window instead of being run back to
    back; each timing then samples the same mix of states as the requests.
    """

    def __init__(self, workload, seconds: float, recorder=None):
        self.w = workload
        self.seconds = seconds
        self.recorder = recorder
        self.ok = True
        self.fingerprint = None
        self.attempted = 0
        self.failed = 0
        self.decisions = 0
        self.setup_times = []
        self.enroll_times = []
        self.times = []
        self.traced_times = []

    def _phase(self, request_id, fn):
        """Time fn; under a recorder, trace it as its own root span."""
        if self.recorder is None:
            return _timed(fn)
        with self.recorder.installed(), self.recorder.request(request_id) as root:
            out = fn()
        return self.recorder.duration(root), out

    def _setup(self, k: int) -> None:
        elapsed, fingerprint = self._phase("setup", lambda: self.w.setup(k))
        self.setup_times.append(elapsed)
        if k:
            self.w.retire(k - 1)
        self.fingerprint = self.fingerprint or fingerprint
        self.ok &= fingerprint == self.fingerprint

    def _enroll(self) -> None:
        elapsed, code = self._phase("enroll", self.w.enroll)
        self.enroll_times.append(elapsed)
        self.ok &= code in (None, 0) and self.w.check_enroll()

    def _one(self, n, traced: bool):
        """One request and its check; a raised error counts as a failure."""
        self.attempted += 1
        try:
            if traced:
                with self.recorder.installed(), self.recorder.request(f"r{n}") as root:
                    out = self.w.request(n)
                elapsed = self.recorder.duration(root)
            else:
                elapsed, out = _timed(self.w.request, n)
            good, decisions = self.w.check(n, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self.failed += not good
        self.decisions += decisions
        (self.traced_times if traced else self.times).append(elapsed)

    def run(self) -> None:
        self._setup(0)
        self.w.prepare()
        self._enroll()
        # A traced run sets up and enrolls once: its per-layer figures count
        # one of each.
        extras = []
        if self.recorder is None:
            for reps, kind in ((self.w.setup_reps, "setup"), (self.w.enroll_reps, "enroll")):
                extras += [(self.seconds * k / reps, kind, k) for k in range(1, reps)]
            extras.sort()
        start = time.perf_counter()
        n = 0
        while n < self.w.min_requests or time.perf_counter() - start < self.seconds:
            while extras and time.perf_counter() - start >= extras[0][0]:
                self._extra(*extras.pop(0)[1:])
            if self.recorder is None:
                self._one(n, traced=False)
            else:
                for traced in (False, True) if n % 2 == 0 else (True, False):
                    self._one(n, traced)
            n += 1
        for _, kind, k in extras:
            self._extra(kind, k)

    def _extra(self, kind: str, k: int) -> None:
        if kind == "setup":
            self._setup(k)
        else:
            self._enroll()


def end_to_end(run: Run) -> tuple:
    """(gated metrics, reported-only metrics), each {name: (value, unit)}."""
    times = run.times or [0.0]
    p95 = statistics.quantiles(times, n=20, method="inclusive")[18] if len(times) > 1 else times[0]
    gated = {
        "setup_s": statistics.median(run.setup_times),
        "request_s_min": min(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reported = {
        "request_s_p50": (statistics.median(times), "s"),
        "request_s_p95": (p95, "s"),
        "decisions_per_s": (_ratio(run.decisions, sum(times)), "1/s"),
        "enroll_s": (statistics.median(run.enroll_times), "s"),
        "enroll_s_min": (min(run.enroll_times), "s"),
    }
    return {name: (gated[name], unit) for name, unit in END_TO_END_UNITS.items()}, reported


def traced_metrics(run: Run, recorder) -> dict:
    """Per-layer totals for one setup, one enrollment and the mean request."""
    n_requests = max(1, len(run.traced_times))
    once = defaultdict(lambda: defaultdict(float))  # setup and enrollment
    requests = defaultdict(lambda: defaultdict(float))  # summed over requests
    top_level = 0.0
    roots = 0.0
    self_times = recorder.self_times()
    for i, name in enumerate(recorder.names):
        is_request = recorder.requests[i].startswith("r")
        if name == "request":
            roots += recorder.duration(i) if is_request else 0.0
            continue
        fields = (requests if is_request else once)[name]
        fields["calls"] += 1
        fields["s"] += recorder.duration(i)
        fields["self_s"] += self_times[i]
        if is_request and recorder.names[recorder.parents[i]] == "request":
            top_level += recorder.duration(i)
    once_counts = defaultdict(float)
    request_counts = defaultdict(float)
    for request_id, named in recorder.counts.items():
        target = request_counts if request_id.startswith("r") else once_counts
        for name, value in named.items():
            target[name] += value
    for name, value in request_counts.items():
        once_counts[name] += value / n_requests
    for name, fields in requests.items():
        for field, value in fields.items():
            once[name][field] += value / n_requests
    overhead = _ratio(sum(run.traced_times), sum(run.times)) - 1.0
    return per_layer_metrics(once, once_counts, overhead, _ratio(top_level, roots))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": getattr(workload, "corpus_seed", args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one setup, one enrollment and the fewest requests: for the benchmark's tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sosid" / "__init__.py").is_file():
        print(f"error: no sosid sources at {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
    recorder = spans.Recorder() if args.trace else None
    run = Run(workload, 0.0 if args.smoke else args.seconds, recorder)
    try:
        work.mkdir(parents=True)
        run.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = {}
    if recorder is None:
        metrics, reported = end_to_end(run)
    else:
        metrics = traced_metrics(run, recorder)
        recorder.write(results / f"{stem}.spans.jsonl")
    result = {
        "correct": bool(run.ok and run.failed == 0),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    info = {
        "environment": environment(args, workload),
        "samples": {
            "setup": len(run.setup_times),
            "enroll": len(run.enroll_times),
            "requests": len(run.times),
            "traced_requests": len(run.traced_times),
            "decisions": run.decisions,
        },
        "failed_frac": _ratio(run.failed, run.attempted),
        "reported": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
        **workload.diagnostics(),
    }
    timings = {
        "setup_s": run.setup_times,
        "enroll_s": run.enroll_times,
        "request_s": run.times,
        "traced_request_s": run.traced_times,
    }
    (results / f"{stem}.json").write_text(
        json.dumps({**info, "timings": timings, "result": result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
