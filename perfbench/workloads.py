"""The benchmark's workloads and the checks on their outputs.

A workload is a ``gen`` call (its size flags), set-up commands that are not
timed, and the timed commands. Command templates use ``{w}`` for the run's
work directory. Every check loads artifacts back through the package's own
loaders and returns the numbers the command reports, keyed
``<command>.<number>``, for the drift comparison against ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conceptmine.head import load_head
from conceptmine.mining import load_book
from conceptmine.partproto import load_centers

# The input seed when none is given; the only seed with reference values.
DEFAULT_SEED = 0

# A planted mean counts as recovered when its cell has a mined centroid
# this close to it; planted means are at least 1.0 apart.
RECOVERY_RADIUS = 0.25


class CheckError(Exception):
    """An output of a benchmark command failed a check."""


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]  # gen size flags; smoke mode uses the CLI defaults
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    recovery_book: str  # book scored against the planted means
    accuracy: str  # reported number that gives train_acc_pct
    # Typical seconds of one repetition and of one set-up of the baseline
    # build (perfbench/baseline) at the default seed, on a quiet 2-vCPU Xeon
    # (Sapphire Rapids) host. They only set the scale in which the
    # program/baseline time ratios are reported as wall_s and setup_s.
    baseline_wall_s: float
    baseline_setup_s: float

    def gen_argv(self, workdir: Path, seed: int, smoke: bool) -> list[str]:
        size = [] if smoke else list(self.gen)
        return ["gen", *size, "--seed", str(seed), "-o", f"{workdir}/data.pfd"]


def _cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline-M",
        gen=_cmd("--classes 10 --parts 6 --dim 64 --per-class 200 "
                 "--concepts 3 --noise 0.02"),
        setup=(),
        timed=(_cmd("pipeline --data {w}/data.pfd --k 5 --epochs 40 "
                    "-o {w}/run"),),
        recovery_book="{w}/run/book.json",
        accuracy="pipeline.accuracies.full",
        baseline_wall_s=9.0,
        baseline_setup_s=0.06,
    ),
    Workload(
        name="report-dense",
        gen=_cmd("--classes 6 --parts 4 --dim 32 --per-class 300 "
                 "--concepts 8 --noise 0.02"),
        setup=(_cmd("mine --data {w}/data.pfd --eps 0.3 --min-pts 3 "
                    "-o {w}/book.json"),
               _cmd("train --data {w}/data.pfd --book {w}/book.json "
                    "--epochs 100 -o {w}/head.json")),
        timed=(_cmd("eval --data {w}/data.pfd --book {w}/book.json "
                    "--head {w}/head.json --k 10 -o {w}/report.json"),
               _cmd("occlude --data {w}/data.pfd --book {w}/book.json "
                    "--head {w}/head.json --fractions 0.1,0.2,0.3 "
                    "-o {w}/curve.csv")),
        recovery_book="{w}/book.json",
        accuracy="eval.accuracies.full",
        baseline_wall_s=2.6,
        baseline_setup_s=0.75,
    ),
    Workload(
        name="mine-bigcell",
        gen=_cmd("--classes 3 --parts 2 --dim 128 --per-class 800 "
                 "--concepts 4 --noise 0.02"),
        setup=(),
        timed=(_cmd("mine --data {w}/data.pfd --eps 0.35 --min-pts 3 "
                    "-o {w}/book.json"),
               _cmd("merge --book {w}/book.json --threshold 10 --level 1 "
                    "--data {w}/data.pfd -o {w}/merged.json")),
        recovery_book="{w}/book.json",
        accuracy="merge.merged.accuracy",
        baseline_wall_s=3.4,
        baseline_setup_s=0.055,
    ),
)}


def expand(template, workdir: Path) -> list[str]:
    return [part.replace("{w}", str(workdir)) for part in template]


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def outputs(argv: list[str]) -> list[Path]:
    """Files and directories a command writes."""
    out = Path(flag(argv, "-o"))
    if argv[0] == "merge":
        return [out, Path(f"{out}.table.csv")]
    return [out]


# -- checks ---------------------------------------------------------------


def _expect(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _in_range(name: str, value, lo: float, hi: float) -> float:
    value = float(value)
    _expect(math.isfinite(value) and lo <= value <= hi,
            f"{name}={value!r} outside [{lo}, {hi}]")
    return value


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report_numbers(report: dict) -> dict:
    """The numbers of a metric report, range-checked."""
    nums = {}
    for name, value in report["accuracies"].items():
        nums[f"accuracies.{name}"] = _in_range(name, value, 0, 100)
    for n, value in report["faithfulness"].items():
        nums[f"F({n})"] = _in_range(f"F({n})", value, -100, 100)
    nums["stability"] = _in_range("stability", report["stability"], 0, 100)
    for key in ("consistency_intra", "consistency_inter"):
        nums[key] = _in_range(key, report[key], -100, 100)
    nums["sparseness"] = _in_range("sparseness", report["sparseness"], 0, 100)
    return nums


def _check_pipeline(argv):
    run = Path(flag(argv, "-o"))
    manifest = _read_json(run / "manifest.json")
    book = load_book(run / "book.json", "json")
    book_bin = load_book(run / "book.pcmb", "pcmb")
    head = load_head(run / "head.json", "json")
    head_bin = load_head(run / "head.pcmh", "pcmh")
    load_centers(run / "centers.pcmc", "pcmc")
    _read_csv(run / "metrics.csv")
    log = _read_csv(run / "training_log.csv")
    _expect(len(log) == int(flag(argv, "--epochs")),
            f"training log has {len(log)} epochs")
    d_c = {book.d_c, book_bin.d_c, head.W1.shape[0], head_bin.W1.shape[0],
           manifest["d_c"]}
    _expect(len(d_c) == 1, f"book, head and manifest disagree on d_c: {d_c}")
    nums = _report_numbers(_read_json(run / "metrics.json"))
    nums["d_c"] = book.d_c
    return nums


def _check_eval(argv):
    book = load_book(flag(argv, "--book"), "json")
    head = load_head(flag(argv, "--head"), "json")
    _expect(book.d_c == head.W1.shape[0],
            f"book d_c={book.d_c} != head W1 rows={head.W1.shape[0]}")
    nums = _report_numbers(_read_json(Path(flag(argv, "-o"))))
    nums["d_c"] = book.d_c
    return nums


def _check_occlude(argv):
    rows = _read_csv(Path(flag(argv, "-o")))
    wanted = [0.0] + [float(f) for f in flag(argv, "--fractions").split(",")]
    _expect([float(r["fraction"]) for r in rows] == wanted,
            f"curve fractions {[r['fraction'] for r in rows]} != {wanted}")
    nums = {}
    for r in rows:
        f = float(r["fraction"])
        nums[f"{f:g}.accuracy"] = _in_range("accuracy", r["accuracy"], 0, 100)
        nums[f"{f:g}.F3"] = _in_range("F3", r["F3"], -100, 100)
    return nums


def _check_mine(argv):
    book = load_book(flag(argv, "-o"), "json")
    _expect(book.d_c >= 1, "mined book is empty")
    return {"d_c": book.d_c}


def _check_merge(argv):
    book = load_book(flag(argv, "--book"), "json")
    merged_path, table_path = outputs(argv)
    merged = load_book(merged_path, "json")
    rows = {r["book"]: r for r in _read_csv(table_path)}
    _expect(set(rows) == {"input", "merged"}, f"merge table rows {set(rows)}")
    _expect(int(rows["input"]["d_c"]) == book.d_c,
            "merge table input d_c differs from the input book")
    _expect(int(rows["merged"]["d_c"]) == merged.d_c <= book.d_c,
            "merge table merged d_c differs from the merged book")
    nums = {}
    for tag, r in rows.items():
        nums[f"{tag}.d_c"] = int(r["d_c"])
        nums[f"{tag}.accuracy"] = _in_range("accuracy", r["accuracy"], 0, 100)
        nums[f"{tag}.F3"] = _in_range("F3", r["F3"], -100, 100)
    return nums


CHECKS = {"pipeline": _check_pipeline, "eval": _check_eval,
          "occlude": _check_occlude, "mine": _check_mine,
          "merge": _check_merge}


def check(argv: list[str]) -> dict:
    """Check one command's outputs; returns its numbers keyed by command."""
    nums = CHECKS[argv[0]](argv)
    return {f"{argv[0]}.{key}": value for key, value in nums.items()}


def concept_recovery(gt_path: Path, book_path: Path) -> float:
    """Share of planted means with a mined centroid of their own cell within
    :data:`RECOVERY_RADIUS`."""
    means = np.asarray(_read_json(gt_path)["planted_means"], dtype=np.float64)
    book = load_book(book_path, "json")
    cents, classes, parts = book.centroid_matrix(), book.classes(), book.parts()
    hits = 0
    n_classes, n_parts = means.shape[:2]
    for j in range(n_classes):
        for p in range(n_parts):
            cell = cents[(classes == j) & (parts == p)]
            if cell.size == 0:
                continue
            dist = np.linalg.norm(means[j, p][:, None, :] - cell[None], axis=2)
            hits += int(np.count_nonzero(dist.min(axis=1) <= RECOVERY_RADIUS))
    return hits / (means.shape[0] * means.shape[1] * means.shape[2])
