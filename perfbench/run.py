"""Run one conceptmine benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-M --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, timed against the frozen baseline build in
perfbench/baseline, the per-layer metrics with ``--trace 1``. The
full report, stamped with the environment, goes to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json`` at the checkout root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _prepare():
    """Run BLAS on one thread and import conceptmine from this checkout's
    src/. Exits non-zero when the sources are not there.

    One BLAS thread because the workloads' matrices are small: on a 2-CPU
    host a second thread only spun on the other CPU, which made report-dense
    repetitions up to 20% slower and less steady than with one thread."""
    src = ROOT / "src"
    package = src / "conceptmine"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no conceptmine sources under {src}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT)]
    import conceptmine
    if Path(conceptmine.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: conceptmine imported from {conceptmine.__file__}, "
                 f"not from {package}")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=("pipeline-M", "report-dense", "mine-bigcell"))
    p.add_argument("--seed", type=int,
                   help="input seed (default 0, the only seed with "
                        "reference values)")
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="same commands on a dataset of the CLI default size")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare()
    from perfbench.harness import environment, run_workload
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, report = run_workload(workload, seed, args.seconds,
                                      bool(args.trace), workdir, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while other runs use it
            workdir.parent.rmdir()

    report["environment"] = environment(ROOT)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  raw median seconds per repetition: program "
              f"{statistics.median(report['wall_s_samples']):.6g}, baseline "
              f"{statistics.median(report['baseline_wall_s_samples']):.6g} "
              f"({len(report['wall_s_samples'])} pairs)")
    if args.trace:
        command_s = report["traced_command_s"][0]
        split = ", ".join(f"{layer} {100 * t / command_s:.1f}%" for layer, t
                          in sorted(report["layer_self_s"][0].items(),
                                    key=lambda kv: -kv[1]))
        print(f"  layer self time, first traced repetition: {split}")
    drift = report["max_metric_drift"]
    print(f"  error_rate {report['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']} commands); "
          f"max_metric_drift {'not computed' if drift is None else repr(drift)}")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    print(f"full report: {path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
