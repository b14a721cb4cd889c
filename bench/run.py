"""sematlas benchmark: one workload per process, end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload census-20 --seed 1 --seconds 45 --trace 0

The load is one closed-loop caller in this process: it repeats the
workload's fixed job list, one repetition at a time, for ``--seconds``
(at least one repetition; another starts only if it is predicted to end in
time).  Library caches are cleared before every repetition, so each one
costs what a fresh ``sematlas`` call costs.

``--trace 0`` prints the end-to-end metrics:

* ``calibrated_wall_s``: median time of one repetition (time to solution of
  the job list; throughput is its inverse), rescaled to the host's nominal
  speed.  The host is shared, and its speed drifts by tens of percent over
  seconds to minutes, alike for sematlas and for any other Python code.  So
  a ``Calibrator`` interleaves a fixed reference kernel with the work and
  rescales each stretch of work by the kernel's time right after it.  The
  raw median, ``wall_s``, is in the stamp;
* ``setup_s``: import of sematlas plus input preparation, median of this
  process's own set-up and of set-up probes: fresh interpreters that do
  only the set-up, three after each repetition, one at a time, never while
  a repetition runs.  Each sample is rescaled to the host's nominal speed
  by reference kernel calls made right after it in the same interpreter;
  the raw samples are in the stamp;
* ``peak_rss_mb``: this process's peak resident memory;
* ``success_rate``: 1 - error_rate, where error_rate is failed checks and
  exceptions over checks attempted (reported as its complement so that the
  metric is never 0; ``attempted`` and ``failed`` are in the result line).

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``layers.PER_LAYER``; see ``bench/README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it starts with
``stamp:`` and records the run's provenance and machine-independent counters.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers

PROBES_PER_STEP = 3
REFERENCE_LOOPS = 60_000
REFERENCE_TUPLES = 7_000
REFERENCE_PERIOD_S = 0.1
#: Median time of ``reference_kernel()`` on a 2-vCPU 2.1 GHz x86-64 VM under
#: CPython 3.11.7: the speed ``calibrated_wall_s`` is rescaled to.
REFERENCE_NOMINAL_S = 0.012
BUDGET_ENV = "SEM_ATLAS_BUDGET"

#: (name, unit) of the metrics a ``--trace 0`` run prints.
END_TO_END = (
    ("calibrated_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
)


def clear_library_caches() -> None:
    """Empty every ``functools`` cache bound at the top of a sematlas module."""
    for module in layers.sematlas_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def reference_kernel() -> int:
    """Fixed pure-Python work that uses nothing from sematlas: integer
    arithmetic, then tuples gathered into a set and a sorted list (the mix
    sematlas itself runs on: flag tuples, sets of seen flags, sorted faces).
    """
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    seen = set()
    items = []
    for i in range(REFERENCE_TUPLES):
        t = (i * 7919 % 4099, i % 13, i % 5)
        if t not in seen:
            seen.add(t)
            items.append(t)
    items.sort()
    return s + len(items)


def reference_time(calls: int = 3) -> float:
    """Median time of a few ``reference_kernel()`` calls: the host's speed now."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return layers.median(samples)


class Calibrator:
    """Interleaves ``reference_kernel()`` calls with the timed work.

    A ``SIGALRM`` interval timer interrupts the work every
    ``REFERENCE_PERIOD_S``; the handler times one ``reference_kernel()`` call
    and records ``(work, reference)``: the seconds of work since the last
    call and the call's own time.  The handler's time is kept off ``wall``.
    """

    def __init__(self):
        self.segments: list[tuple[float, float]] = []
        self._mark = 0.0
        self._handler = None

    def _sample(self, *_):
        now = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.segments.append((now - self._mark, end - now))
        self._mark = end

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._handler)
        return False

    @property
    def wall(self) -> float:
        return sum(work for work, _ in self.segments)

    @property
    def calibrated(self) -> float:
        """``wall`` at the host's nominal speed: each segment of work rescaled
        by ``REFERENCE_NOMINAL_S`` over the reference call that follows it."""
        return sum(work * REFERENCE_NOMINAL_S / ref for work, ref in self.segments)


def repetition(workload, names, checks, calibrate=False) -> tuple[float, list, float]:
    """One timed repetition with the given names recorded; checks follow.

    Returns ``(wall, spans, calibrated_wall)``; with ``calibrate`` the work is
    interleaved with reference calls (see ``Calibrator``), which ``wall``
    leaves out; without, ``calibrated_wall`` is 0.
    """
    clear_library_caches()
    recorder = layers.Recorder(names)
    calibrator = Calibrator() if calibrate else contextlib.nullcontext()
    outcome = None
    with recorder:
        start = time.perf_counter()
        with calibrator:
            try:
                outcome = workload.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
    if calibrate:
        wall, scaled = calibrator.wall, calibrator.calibrated
    else:
        scaled = 0.0
    if recorder.missing:
        print("warning: not traced (gone from sematlas): "
              + ", ".join(recorder.missing), file=sys.stderr)
    if outcome is None:
        checks.check(False, "repetition raised")
    else:
        workload.check(outcome, checks)
    return wall, recorder.spans, scaled


def measure(workload, seconds: float, trace: bool, checks, between=None):
    """Repeat the workload for ``seconds``.

    Returns the untraced repetitions and, with ``trace``, the traced ones,
    each as ``(wall, spans, calibrated_wall)``; only untraced repetitions
    of an untraced run are calibrated.  With ``trace`` every step is one
    untraced repetition followed by one traced repetition.  ``between`` is
    called after every step, outside the timed repetitions.
    """
    traced_names = {name for name, _, _ in layers.TRACED}
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        untraced.append(repetition(workload, layers.COUNTED, checks, calibrate=not trace))
        if trace:
            traced.append(repetition(workload, traced_names, checks))
        if between is not None:
            between()
        now = time.perf_counter()
        if (now - start) + (now - step_start) > seconds:
            return untraced, traced


def check_counters(reps, store: Path, key: str, checks) -> dict:
    """Counters must repeat across repetitions and across runs of one code."""
    all_counts = [layers.counters(spans) for _, spans, _ in reps]
    counts = all_counts[0]
    checks.check(all(c == counts for c in all_counts),
                 f"machine-independent counters differ between repetitions: {all_counts}")
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    if key in known:
        checks.check(known[key] == counts,
                     f"counters {counts} differ from an earlier run of this code: {known[key]}")
    else:
        known[key] = counts
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
        os.replace(tmp, store)
    return counts


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git``, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter (see ``--setup-probe``),
    and the reference time measured there right after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["reference_s"]


def evaluate(workload, seconds, trace, setup_samples, checks, counter_store, key,
             between=None):
    """Measure, check the counters, and return the printed metrics.

    Returns ``(metrics, untraced, traced, counters)``; ``metrics`` maps each
    name to ``{"value", "unit"}``: the end-to-end set, or with ``trace`` the
    per-layer set.  ``setup_samples`` may grow while ``between`` runs.
    """
    untraced, traced = measure(workload, seconds, trace, checks, between)
    counts = check_counters(untraced + traced, counter_store, key, checks)
    walls = [wall for wall, _, _ in untraced]
    if trace:
        values = layers.per_layer([(wall, spans) for wall, spans, _ in traced], walls)
        units = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        values = {
            "calibrated_wall_s": layers.median([scaled for _, _, scaled in untraced]),
            "setup_s": layers.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - checks.failed / checks.attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return metrics, untraced, traced, counts


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("census-20", "search-22", "invariants-large"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print {\"setup_s\": ...} and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sematlas" / "__init__.py").is_file():
        print("error: no sematlas sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    # an inherited node cap would stop the census partway
    os.environ.pop(BUDGET_ENV, None)
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import sematlas
    import workloads
    workdir = root / ".bench_build"
    workdir.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, workdir, args.seed, workloads.load_golden())
    setup = time.perf_counter() - start
    reference = reference_time()

    if not Path(sematlas.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported sematlas from {sematlas.__file__}, not ./src",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup, "reference_s": reference}))
        return 0

    # set-up probes run between repetitions, so that they sample the same
    # stretch of machine time as the repetitions do; each set-up time is
    # rescaled to the host's nominal speed like the repetitions' work
    setup_raw = [setup]
    setup_samples = [setup * REFERENCE_NOMINAL_S / reference]

    def probe():
        for _ in range(PROBES_PER_STEP):
            raw, ref = setup_probe(args.workload, args.seed)
            setup_raw.append(raw)
            setup_samples.append(raw * REFERENCE_NOMINAL_S / ref)

    checks = workloads.Checks(log=sys.stderr)
    code = source_digest(src / "sematlas")
    metrics, untraced, traced, counts = evaluate(
        workload, args.seconds, bool(args.trace), setup_samples, checks,
        workdir / "sematlas-counters.json", f"{args.workload}|{code}",
        between=None if args.trace else probe)
    walls = [wall for wall, _, _ in untraced]

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "source_sha256": code,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_wall_s": walls,
        "wall_s": layers.median(walls),
        "calibrated_wall_s": [scaled for _, _, scaled in untraced],
        "setup_samples_s": setup_raw,
        "setup_calibrated_s": setup_samples,
        "error_rate": checks.failed / checks.attempted,
        "counters": counts,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
