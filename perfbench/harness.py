"""Measurement loop: set-up, timed repetitions, output checks and the trace.

Every command runs in-process through ``conceptmine.cli.main(argv)``, one
after the other (a closed loop with a single client). An untraced run
reports the end-to-end metrics, timing the program against the frozen
baseline build in ``perfbench/baseline``; a traced run reports the per-layer
metrics from :class:`perfbench.tracer.Tracer`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from conceptmine import cli
from perfbench.baseline import cli as baseline_cli
from perfbench.tracer import EXACT, UNITS, Tracer
from perfbench.workloads import (DEFAULT_SEED, CheckError, Workload, check,
                                 concept_recovery, expand, outputs)

# Set-up runs at least SETUP_REPS times and for at least a tenth of the run
# length, up to SETUP_SECONDS, so that a set-up of tens of milliseconds still
# gets a steady median.
SETUP_REPS = 5
SETUP_SECONDS = 3.0
# Largest accepted difference between a reported number and reference.json,
# which holds the "numbers" of each workload's default-seed report.
DRIFT_TOLERANCE = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "concept_recovery": "fraction", "train_acc_pct": "%"}


def invoke(argv: list[str], main=None) -> tuple[float, int, str]:
    """Run one CLI command in-process through ``main``, by default
    ``conceptmine.cli.main`` as bound at the call, so that a tracer's
    wrapper is used; returns (seconds, exit code, output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = perf_counter()
        try:
            code = (main or cli.main)(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crash
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    return elapsed, code, buf.getvalue()


def _remove(path: Path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _digest(paths: list[Path]) -> tuple[str, int]:
    """Digest and total size of the files under ``paths``."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            data = f.read_bytes()
            h.update(f.name.encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


class Run:
    """One workload at one seed in one work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 smoke: bool, main=None):
        self.workload = workload
        self.main = main
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.timed = [expand(t, workdir) for t in workload.timed]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.numbers: dict = {}
        self.artifact_bytes = 0
        self._digests: dict[int, str] = {}

    def setup(self) -> float:
        start = perf_counter()
        commands = [self.workload.gen_argv(self.workdir, self.seed, self.smoke)]
        commands += [expand(s, self.workdir) for s in self.workload.setup]
        for argv in commands:
            _, code, text = invoke(argv, self.main)
            if code != 0:
                raise RuntimeError(f"set-up {argv[0]} exited {code}: {text}")
        return perf_counter() - start

    def command(self, index: int) -> float:
        """Run timed command ``index`` once; returns its wall time."""
        argv = self.timed[index]
        for path in outputs(argv):
            _remove(path)
        elapsed, code, text = invoke(argv, self.main)
        self._judge(index, argv, code, text)
        return elapsed

    def repetition(self) -> float:
        """Run the timed commands once; returns their summed wall time."""
        return sum(self.command(i) for i in range(len(self.timed)))

    def _judge(self, index: int, argv: list[str], code: int, text: str):
        self.attempted += 1
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {text.strip()[-2000:]}")
            digest, size = _digest(outputs(argv))
            if index not in self._digests:
                self.numbers.update(check(argv))
                self._digests[index] = digest
                self.artifact_bytes += size
            elif digest != self._digests[index]:
                raise CheckError("outputs differ from the first repetition")
        except Exception as e:  # any fault in the outputs fails the command
            self.failed += 1
            self.errors.append(f"{argv[0]}: {type(e).__name__}: {e}")

    def fail(self, message: str):
        self.errors.append(message)

    def quality(self) -> dict:
        """concept_recovery and train_acc_pct from the last outputs."""
        w = self.workload
        book = Path(expand([w.recovery_book], self.workdir)[0])
        try:
            recovery = concept_recovery(self.workdir / "data.pfd.gt.json", book)
        except Exception as e:  # a missing or broken book fails the run
            self.fail(f"concept_recovery: {type(e).__name__}: {e}")
            recovery = 0.0
        accuracy = self.numbers.get(w.accuracy)
        if accuracy is None:
            self.fail(f"no {w.accuracy} reported")
            accuracy = 0.0
        return {"concept_recovery": recovery, "train_acc_pct": accuracy}

    def drift(self) -> float | None:
        """Largest difference from reference.json; None off the default seed."""
        if self.smoke or self.seed != DEFAULT_SEED:
            return None
        with open(REFERENCE) as fh:
            ref = json.load(fh)[self.workload.name]
        if set(ref) != set(self.numbers):
            self.fail(f"reported numbers {sorted(self.numbers)} != "
                      f"reference {sorted(ref)}")
            return float("inf")
        drift = max(abs(self.numbers[k] - ref[k]) for k in ref)
        if drift > DRIFT_TOLERANCE:
            self.fail(f"max_metric_drift {drift!r} > {DRIFT_TOLERANCE}")
        return drift


class Baseline(Run):
    """The workload run by the frozen build in perfbench/baseline, against
    which the program's times are measured. Its outputs are not checked,
    because the checks load them with the package under test; a command that
    fails still fails the run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 smoke: bool):
        super().__init__(workload, seed, workdir, smoke, baseline_cli.main)

    def _judge(self, index: int, argv: list[str], code: int, text: str):
        if code != 0:
            self.fail(f"baseline {argv[0]}: exit code {code}: "
                      f"{text.strip()[-2000:]}")


def _pair(index: int, program, baseline) -> tuple[float, float]:
    """Time one call of ``program`` and one of ``baseline`` back to back;
    returns their seconds. The baseline goes first on odd pairs, so that a
    steady drift in host speed cancels over two pairs."""
    if index % 2:
        b = baseline()
        return program(), b
    p = program()
    return p, baseline()


def _paired_repetition(run: Run, baseline: Baseline,
                       first: int) -> tuple[float, float]:
    """One repetition of each build, paired command by command, so that
    each pair spans seconds rather than a whole repetition; returns their
    summed seconds. ``first`` numbers the first command pair."""
    program = base = 0.0
    for i in range(len(run.timed)):
        p, b = _pair(first + i, partial(run.command, i),
                     partial(baseline.command, i))
        program += p
        base += b
    return program, base


def _ratio(pairs: list[tuple[float, float]]) -> float:
    return statistics.median(p / b for p, b in pairs)


def _keep_going(start: float, seconds: float, next_rep: float) -> bool:
    """Start another repetition if at least half of it fits in the budget,
    so that a run measures for about ``seconds`` on average."""
    return perf_counter() - start + next_rep / 2 <= seconds


def measure(run: Run, baseline: Baseline,
            seconds: float) -> tuple[dict, dict]:
    """Untraced set-ups and repetitions of the program, each paired with
    one of the baseline build, for ``seconds``; returns (metrics, details).

    The host's speed drifts by tens of percent over minutes, and drifts
    alike for both builds, so a pair's program/baseline ratio does not.
    ``wall_s`` and ``setup_s`` are the median ratio times the baseline's
    nominal time for the workload: the program's time on a host that runs
    the baseline at its nominal speed."""
    start = perf_counter()
    # The program goes first, so that its peak RSS is read before the
    # baseline build allocates anything.
    setup = run.setup()
    wall = run.repetition()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [(setup, baseline.setup())]
    walls = [(wall, baseline.repetition())]
    budget = min(SETUP_SECONDS, seconds / 10)
    setup_start = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - setup_start < budget:
        setups.append(_pair(len(setups), run.setup, baseline.setup))
    while _keep_going(start, seconds, sum(walls[-1])):
        walls.append(_paired_repetition(run, baseline,
                                        len(walls) * len(run.timed)))
    for error in baseline.errors:
        run.fail(error)

    w = run.workload
    metrics = {
        "wall_s": _ratio(walls) * w.baseline_wall_s,
        "peak_rss_mb": peak_rss,
        "setup_s": _ratio(setups) * w.baseline_setup_s,
        **run.quality(),
    }
    details = {
        "wall_s_samples": [p for p, _ in walls],
        "baseline_wall_s_samples": [b for _, b in walls],
        "setup_s_samples": [p for p, _ in setups],
        "baseline_setup_s_samples": [b for _, b in setups],
    }
    return metrics, details


def _traced(run: Run, memory: bool = False) -> tuple[float, Tracer]:
    tracer = Tracer(memory=memory)
    with tracer:
        wall = run.repetition()
    return wall, tracer


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: an untraced, a traced and a memory repetition,
    then untraced/traced pairs while the budget lasts."""
    run.setup()
    start = perf_counter()
    untraced = [run.repetition()]
    wall, tracer = _traced(run)
    traced, tracers = [wall], [tracer]
    _, memory = _traced(run, memory=True)
    while _keep_going(start, seconds, untraced[-1] + traced[-1]):
        untraced.append(run.repetition())
        wall, tracer = _traced(run)
        traced.append(wall)
        tracers.append(tracer)

    per_rep = [t.metrics() for t in tracers]
    metrics = {name: (per_rep[0][name] if name in EXACT else
                      statistics.median(m[name] for m in per_rep))
               for name in per_rep[0]}
    for m in per_rep + [memory.metrics()]:
        for name in EXACT:
            if name in m and m[name] != metrics[name]:
                run.fail(f"count {name} read {m[name]!r} and "
                         f"{metrics[name]!r} in two repetitions")
    for t in tracers + [memory]:
        for error in t.nesting_errors():
            run.fail(f"span tree: {error}")
    metrics["mining.peak_alloc_mb"] = memory.peak_alloc / 2**20
    metrics["cli.artifact_bytes"] = run.artifact_bytes
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)

    details = {
        "untraced_wall_s_samples": untraced, "traced_wall_s_samples": traced,
        "layer_self_s": [t.layer_self_times() for t in tracers],
        "traced_command_s": [t.command_time() for t in tracers],
        # Layer self times over traced command time, per repetition: 1 up
        # to rounding, because every span's time is some layer's self time.
        "self_time_coverage": [sum(t.layer_self_times().values())
                               / t.command_time() for t in tracers],
    }
    return metrics, details


def environment(root: Path) -> dict:
    """What a result depends on besides the code: machine and libraries."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, smoke: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full report)."""
    run = Run(workload, seed, workdir, smoke)
    if trace:
        metrics, details = measure_traced(run, seconds)
        units = UNITS
    else:
        baseline_dir = workdir / "baseline"
        baseline_dir.mkdir()
        baseline = Baseline(workload, seed, baseline_dir, smoke)
        metrics, details = measure(run, baseline, seconds)
        units = END_TO_END_UNITS
    drift = run.drift()
    result = {
        "correct": not run.errors,  # every failed command adds an error
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "error_rate": run.failed / run.attempted,
        "max_metric_drift": drift,  # None: not computed off the default seed
        "errors": run.errors, "numbers": run.numbers,
        **details, "result": result,
    }
    return result, report
