"""Command-line front end: dataset generation, the staged pipeline
(the center fit's descent, in a forked child beside one concept-mining pass
and one sparse-head training run), and report/merge/occlusion utilities.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import logging
import os
import pickle
import signal
import sys
import time
import types
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cav import compute_cav_batch, export_cav_csv
from .dataset import (PartFeatureDataset, SyntheticSpec, generate_synthetic,
                      load_dataset, save_dataset, split_kfold)
from .errors import (SEED_MAX, CompatibilityError, ConceptMineError,
                     ValidationError, check_int, read_json_object, write_csv,
                     write_json)
from .head import HeadTrainConfig, accuracy, load_head, save_head, train_head
from .mining import (MergeConfig, MiningConfig, load_book, merge_centroids,
                     mine_concepts, save_book)
from .occlusion import OcclusionConfig, occlusion_eval, save_curve_csv, save_curve_svg
from .partproto import McmConfig, best_epoch, descend, save_centers
from .xaimetrics import (_accuracy_and_faithfulness, config_hash, metric_report,
                         save_report, save_report_csv)

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Module configs plus the metric settings of one run."""

    mcm: McmConfig = field(default_factory=McmConfig)
    head: HeadTrainConfig = field(default_factory=HeadTrainConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    stability_k: int = field(default=10, metadata={
        "flag": "--k", "help": "stability fold count"})
    faithfulness_ns: tuple[int, ...] = field(default=(1, 2, 3, 4, 5), metadata={
        "flag": "--ns", "help": "comma-separated faithfulness n list"})
    seed: int = 0

    def __post_init__(self):
        check_int("seed", self.seed, 0, SEED_MAX)
        check_int("stability_k", self.stability_k, 2)
        self.faithfulness_ns = tuple(self.faithfulness_ns)
        for n in self.faithfulness_ns:
            check_int("faithfulness_ns entry", n, 0)

    def to_dict(self) -> dict:
        return asdict(self)


# Nested sections of the config dict and the dataclass whose fields they set.
_SECTIONS = {"mcm": McmConfig, "head": HeadTrainConfig, "mining": MiningConfig}


def _known_keys(raw, cls, prefix: str = "") -> dict:
    """``raw``, refused unless it is an object whose keys are fields of ``cls``."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config key {prefix[:-1]} must be an object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown config key {prefix}{unknown[0]}")
    return raw


def pipeline_config_from_dict(raw: dict) -> PipelineConfig:
    """Build a config from its :meth:`PipelineConfig.to_dict` form; a
    missing key takes its dataclass default, and a key no config field reads
    is refused."""
    _known_keys(raw, PipelineConfig)
    sections = {name: _known_keys(raw.get(name, {}), cls, f"{name}.")
                for name, cls in _SECTIONS.items()}
    try:
        return PipelineConfig(**{**raw, **{name: cls(**sections[name])
                                          for name, cls in _SECTIONS.items()}})
    except (TypeError, ValueError) as e:
        raise ValidationError(f"bad config value: {e}") from None


def _dataset_format(path: Path) -> str:
    return "csv" if path.suffix == ".csv" else "pfd"


def _book_format(path) -> str:
    return "pcmb" if Path(path).suffix == ".pcmb" else "json"


def _head_format(path) -> str:
    return "pcmh" if Path(path).suffix == ".pcmh" else "json"


def _load_data(path) -> PartFeatureDataset:
    return load_dataset(path, _dataset_format(Path(path)))


def _load_book(path, ds: PartFeatureDataset | None = None):
    """The book at ``path``; given the dataset it is used with, refused if
    an entry names a class that ``ds`` does not have."""
    book = load_book(path, _book_format(path))
    bad = None if ds is None else next(
        (i for i, e in enumerate(book.entries) if e.class_id >= ds.n_classes),
        None)
    if bad is not None:
        raise CompatibilityError(
            f"book entry {bad} has class {book.entries[bad].class_id} but "
            f"the dataset has {ds.n_classes} classes")
    return book


def _load_scored_run(args):
    """Dataset, book and head for ``eval``/``occlude``; refuses a d_c, d_f
    or class-count mismatch, and a hash mismatch unless ``--force`` is given."""
    ds = _load_data(args.data)
    book = _load_book(args.book, ds)
    head = load_head(args.head, _head_format(args.head))
    if head.W1.shape[0] != book.d_c:
        raise CompatibilityError(
            f"head expects d_c={head.W1.shape[0]} but book has d_c={book.d_c}")
    if head.W2.shape[0] != ds.feat_dim:
        raise CompatibilityError(f"head expects d_f={head.W2.shape[0]} but "
                                 f"the dataset has d_f={ds.feat_dim}")
    if head.n_classes != ds.n_classes:
        raise CompatibilityError(f"head scores {head.n_classes} classes but "
                                 f"the dataset has {ds.n_classes}")
    bh = book.meta.get("config_hash")
    hh = head.meta.get("config_hash")
    if not args.force and bh and hh and bh != hh:
        raise CompatibilityError(
            f"book config hash {bh} != head config hash {hh}; "
            f"pass --force to evaluate anyway")
    return ds, book, head


def _given(values, cls) -> dict:
    """The flags (or, for a dict, the keys) named after fields of ``cls``
    whose value is not None: the settings given, which override defaults.
    The nested sections are never flags (``eval``'s ``--head`` is a path)."""
    values = values if isinstance(values, dict) else vars(values)
    return {f.name: values[f.name] for f in fields(cls)
            if f.name not in _SECTIONS and values.get(f.name) is not None}


# Pipe capacity asked for: Linux's default cap for unprivileged processes.
# With the default 64 KiB a pipeline-M child blocks after about 20 epochs.
_PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def _stage(name: str):
    """Run the body as stage ``name``: its :class:`ConceptMineError` is
    re-raised as a copy that keeps its type and attributes (such as
    ``DivergenceError.epoch``) and whose message starts ``stage <name>: ``,
    and its ``OSError`` as a :class:`ValidationError` with that message."""
    try:
        yield
    except ConceptMineError as e:
        err = copy.copy(e)
        err.args = (f"stage {name}: {e}",)
        raise err from e
    except OSError as e:
        raise ValidationError(f"stage {name}: {e}") from e


@contextlib.contextmanager
def _fitting(ds: PartFeatureDataset, mcm: McmConfig, seed: int):
    """Fit the centers beside the body and, once it ends normally, score
    them as stage ``fit-centers`` into ``fit.centers``. Any exception, from
    the body or from the scoring, kills and reaps the child unscored.

    A forked child runs only :func:`descend` and pickles each snapshot down
    a pipe, then its error (or None) and its descent time. The snapshots are
    scored with :func:`best_epoch` as they are read, so this process holds
    one group of them at a time and the pipe's capacity bounds the child's
    lead; a divergence found here kills the child and wins over any error
    the child raised after it. Without ``os.fork`` the fit runs in process.
    """
    fit = types.SimpleNamespace(centers=None)
    if not hasattr(os, "fork"):
        yield fit
        with _stage("fit-centers"):
            fit.centers = best_epoch(ds, mcm, descend(ds, mcm, seed=seed))
        return
    import fcntl  # POSIX only, like os.fork

    read_end, write_end = os.pipe()
    try:  # best effort: keep whatever capacity the OS grants
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass
    pid = os.fork()
    if pid == 0:
        code = 1  # a child that cannot send its result says so by its status
        try:
            os.close(read_end)
            start = time.perf_counter()
            with open(write_end, "wb") as fh:
                error = None
                try:
                    for c in descend(ds, mcm, seed=seed):
                        pickle.dump(c, fh)
                        fh.flush()
                except Exception as e:
                    error = e
                pickle.dump((error, time.perf_counter() - start), fh)
            code = 0
        finally:  # never return into the caller's stack or flush its stdio
            os._exit(code)
    os.close(write_end)
    status = None

    def reap():
        nonlocal status
        status = os.waitpid(pid, 0)[1]
        return status

    def trajectory(start):
        try:  # what our own child wrote: snapshots, then a result unless cut off
            while isinstance(msg := pickle.load(pipe), np.ndarray):
                yield msg
            error, fit_s = msg
        except Exception:
            code = os.waitstatus_to_exitcode(reap())
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ConceptMineError(
                f"center fitting ended without a result ({how})") from None
        reap()
        log.debug("fit-centers: %.3f s in the child, %.3f s waited for it",
                  fit_s, time.perf_counter() - start)
        if error is not None:
            raise error

    with open(read_end, "rb") as pipe:
        try:
            yield fit
            with _stage("fit-centers"):
                fit.centers = best_epoch(ds, mcm, trajectory(time.perf_counter()))
        finally:  # a child not yet reaped is one this process stopped reading
            if status is None:
                os.kill(pid, signal.SIGKILL)
                reap()


def run_pipeline(ds: PartFeatureDataset, cfg: PipelineConfig, outdir: Path) -> dict:
    """Fit centers, mine the concept book, train the head, evaluate metrics,
    and write all artifacts to ``outdir``. Returns the manifest dict.

    The part features are fixed inputs and mining is a pure function of
    them, so the book is mined once and the head trained once for all
    epochs at ``beta * lr``. Nothing but the centers file reads the
    centers, so a forked child runs their descent (:func:`_fitting`) while
    this process mines, trains and scores the run; this process then scores
    the child's epochs, keeps the best and writes every file. The
    stability folds are checked before any costly stage runs or ``outdir``
    is created. The stages run as ``preflight``, ``mine``, ``train``,
    ``metrics``, ``fit-centers``, ``write-artifacts``, and the first to
    fail ends the run with an error that names it (:func:`_stage`).
    """
    cfg_dict = cfg.to_dict()
    h = config_hash(cfg_dict)

    with _stage("preflight"):
        if ds.n_classes < 2:
            raise ValidationError(
                f"consistency needs at least 2 classes, got {ds.n_classes}")
        split_kfold(ds, cfg.stability_k, cfg.seed)
        outdir.mkdir(parents=True, exist_ok=True)

    with _fitting(ds, cfg.mcm, cfg.seed) as fit:
        with _stage("mine"):
            book = mine_concepts(ds, cfg.mining)
            z, g = compute_cav_batch(ds, book)

        with _stage("train"):
            objectives = []

            def on_epoch(epoch, objective, step, pre_prox, w1):
                objectives.append(objective)

            head = train_head(z, g, ds.labels,
                              replace(cfg.head, lr=cfg.head.beta * cfg.head.lr),
                              on_epoch)

        with _stage("metrics"):
            report = metric_report(ds, z, g, book, head, cfg.stability_k,
                                   cfg.mining, cfg.seed,
                                   list(cfg.faithfulness_ns), cfg_dict)

    with _stage("write-artifacts"):
        book.meta = {"config_hash": h, **asdict(cfg.mining)}
        head.meta = {"config_hash": h, "lambda": cfg.head.lam,
                     "gamma": cfg.head.gamma}
        save_centers(fit.centers, outdir / "centers.pcmc", "pcmc")
        for fmt in ("json", "pcmb"):
            save_book(book, outdir / f"book.{fmt}", fmt)
        for fmt in ("json", "pcmh"):
            save_head(head, outdir / f"head.{fmt}", fmt)
        save_report(report, outdir / "metrics.json")
        save_report_csv(report, outdir / "metrics.csv")
        write_csv(outdir / "training_log.csv", ["epoch", "objective"],
                  enumerate(objectives))

        manifest = {
            "config": cfg_dict,
            "config_hash": h,
            "d_c": book.d_c,
            "accuracies": report["accuracies"],
            "artifacts": {
                "centers": "centers.pcmc",
                "book": "book.json",
                "book_binary": "book.pcmb",
                "head": "head.json",
                "head_binary": "head.pcmh",
                "metrics": "metrics.json",
                "metrics_csv": "metrics.csv",
                "training_log": "training_log.csv",
            },
        }
        write_json(outdir / "manifest.json", manifest, indent=2)
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    spec = SyntheticSpec(**_given(args, SyntheticSpec))
    ds, gt = generate_synthetic(spec)
    out = Path(args.output)
    save_dataset(ds, out, _dataset_format(out))
    gt_path = Path(args.ground_truth) if args.ground_truth else \
        out.with_suffix(out.suffix + ".gt.json")
    write_json(gt_path, {
        "planted_means": gt.planted_means.tolist(),
        "assignment": gt.assignment.tolist(),
        "spec": asdict(spec),
    })
    print(f"wrote {out} ({ds.n_samples} samples, K={ds.n_parts}, "
          f"L={ds.n_classes}, d_f={ds.feat_dim}) and {gt_path}")
    return 0


def _load_pipeline_config(args) -> PipelineConfig:
    """The --config file (all defaults without one) with the flags given
    laid over it."""
    raw = read_json_object(args.config) if args.config else {}
    raw.update(_given(args, PipelineConfig))
    for name, given in (("mining", _given(args, MiningConfig)),
                        ("head", _given(args, HeadTrainConfig))):
        if given and isinstance(raw.get(name, {}), dict):
            raw[name] = {**raw.get(name, {}), **given}
    return pipeline_config_from_dict(raw)


def cmd_pipeline(args) -> int:
    cfg = _load_pipeline_config(args)
    with _stage("load-data"):
        ds = _load_data(args.data)
    manifest = run_pipeline(ds, cfg, Path(args.output))
    acc = manifest["accuracies"]["full"]
    print(f"pipeline done: d_c={manifest['d_c']}, "
          f"train_acc={acc:.2f}%, config_hash={manifest['config_hash']}")
    return 0


def cmd_mine(args) -> int:
    mining = MiningConfig(**_given(args, MiningConfig))
    ds = _load_data(args.data)
    book = mine_concepts(ds, mining)
    out = Path(args.output)
    meta = asdict(mining)
    book.meta = {"config_hash": config_hash(meta), **meta}
    save_book(book, out, _book_format(out))
    print(f"mined {book.d_c} concepts from {ds.n_samples} samples")
    return 0


def cmd_merge(args) -> int:
    given = [*_given(args, HeadTrainConfig), *(["csv"] if args.csv else [])]
    if given and not args.data:
        args.usage_error(f"--{given[0]} needs --data: it sets only the table")
    ds = _load_data(args.data) if args.data else None
    book = _load_book(args.book, ds)
    cfg = MergeConfig(**_given(args, MergeConfig))
    merged = merge_centroids(book, cfg)
    merged.meta = book.meta
    out = Path(args.output)
    save_book(merged, out, _book_format(out))
    print(f"d_c before={book.d_c} after={merged.d_c} "
          f"(threshold={cfg.threshold_pct}%, level={cfg.level})")

    if args.data:
        head_cfg = HeadTrainConfig(**_given(args, HeadTrainConfig))
        rows = []
        for tag, pct, b in (("input", 0.0, book),
                            ("merged", cfg.threshold_pct, merged)):
            z, g = compute_cav_batch(ds, b)
            head = train_head(z, g, ds.labels, head_cfg)
            acc, drops = _accuracy_and_faithfulness(z, g, ds.labels, head, b, [3])
            rows.append((tag, pct, cfg.level, b.d_c, acc, drops[3]))
        csv_path = args.csv or (str(out) + ".table.csv")
        write_csv(csv_path, ["book", "threshold_pct", "level", "d_c",
                             "accuracy", "F3"], rows)
        for tag, pct, level, d_c, acc, f3 in rows:
            print(f"  {tag}: d_c={d_c} accuracy={acc:.2f}% F(3)={f3:.2f}")
    return 0


def cmd_train(args) -> int:
    ds = _load_data(args.data)
    book = _load_book(args.book, ds)
    z, g = compute_cav_batch(ds, book)
    cfg = HeadTrainConfig(**_given(args, HeadTrainConfig))
    head = train_head(z, g, ds.labels, cfg)
    out = Path(args.output)
    head.meta = {"config_hash": book.meta.get("config_hash",
                                              config_hash(asdict(cfg))),
                 "lambda": cfg.lam, "gamma": cfg.gamma}
    save_head(head, out, _head_format(out))
    acc = accuracy(z, g, ds.labels, head)
    print(f"trained head: train_acc={acc:.2f}%, "
          f"W1 zeros={float(np.mean(head.W1 == 0)):.2%}")
    return 0


def cmd_eval(args) -> int:
    cfg = PipelineConfig(**_given(args, PipelineConfig))
    ds, book, head = _load_scored_run(args)
    # The book's mining settings, with the flags given laid over them.
    mining = MiningConfig(**{**_given(book.meta, MiningConfig),
                             **_given(args, MiningConfig)})
    z, g = compute_cav_batch(ds, book)
    ns = list(cfg.faithfulness_ns)
    report = metric_report(
        ds, z, g, book, head, cfg.stability_k, mining, cfg.seed, ns,
        {"book": book.meta, "k": cfg.stability_k, "ns": ns, **asdict(mining)})
    save_report(report, args.output)
    if args.csv:
        save_report_csv(report, args.csv)
    print(f"metrics written to {args.output}: "
          f"acc={report['accuracies']['full']:.2f}% "
          f"intra={report['consistency_intra']:.2f} "
          f"inter={report['consistency_inter']:.2f} "
          f"Sp={report['sparseness']:.2f} stability={report['stability']:.2f}")
    return 0


def cmd_occlude(args) -> int:
    ds, book, head = _load_scored_run(args)
    rows = occlusion_eval(ds, head, book,
                          OcclusionConfig(**_given(args, OcclusionConfig)))
    save_curve_csv(rows, args.output)
    if args.svg:
        save_curve_svg(rows, args.svg)
    for fraction, acc, f3 in rows:
        print(f"fraction={fraction:g}: accuracy={acc:.2f}% F(3)={f3:.2f}")
    return 0


def cmd_export(args) -> int:
    ds = _load_data(args.data)
    out = Path(args.output)
    if args.book:
        book = _load_book(args.book)
        z, g = compute_cav_batch(ds, book)
        export_cav_csv(z, g, ds.labels, out)
        print(f"wrote CAV matrix ({z.shape[0]} x {z.shape[1]}) to {out}")
    else:
        save_dataset(ds, out, _dataset_format(out))
        print(f"converted {args.data} -> {out}")
    return 0


def _list_of(kind, minimum=None):
    """argparse ``type`` for a comma-separated list of ``kind`` values,
    each at least ``minimum`` when one is given."""
    def parse(text: str) -> list:
        try:
            values = [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, "
                f"got {text!r}") from None
        if minimum is not None and min(values) < minimum:
            raise argparse.ArgumentTypeError(
                f"values must be >= {minimum}, got {text!r}")
        return values
    return parse


# The argparse type of each field annotation that a setting flag parses,
# keyed by the annotation's text: every config module postpones annotations.
_FLAG_TYPES = {"int": int, "int | None": int, "float": float,
               "float | None": float,
               "tuple[int, ...]": _list_of(int, minimum=0),
               "tuple[float, ...]": _list_of(float)}


def _add_flags(parser, cls, *names, **kwargs):
    """Add the flag of each field of ``cls`` in ``names`` (of every field
    when none is named): ``metadata["flag"]`` or ``--name-with-dashes``,
    dest the field name, type from the annotation, help ``metadata["help"]``.
    ``kwargs`` carry what only argparse needs (required, choices)."""
    by_name = {f.name: f for f in fields(cls)}
    for name in names or by_name:
        f = by_name[name]
        parser.add_argument(
            f.metadata.get("flag", "--" + name.replace("_", "-")), dest=name,
            type=_FLAG_TYPES[f.type], help=f.metadata.get("help"), **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptmine",
        description="Concept mining, sparse concept-vector classification, "
                    "and explainability metrics over part-feature datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted synthetic dataset")
    _add_flags(p, SyntheticSpec)
    p.add_argument("--ground-truth", help="ground-truth JSON path")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pipeline", help="run the full staged pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON pipeline config")
    _add_flags(p, PipelineConfig, "seed", "stability_k")
    _add_flags(p, MiningConfig)
    _add_flags(p, HeadTrainConfig)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("mine", help="mine a concept book from a dataset")
    p.add_argument("--data", required=True)
    _add_flags(p, MiningConfig)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("merge", help="merge similar centroids in a book")
    p.add_argument("--book", required=True)
    _add_flags(p, MergeConfig, "threshold_pct", required=True)
    _add_flags(p, MergeConfig, "level", choices=(1, 2, 3))
    p.add_argument("--data", help="dataset for the accuracy/F(3) table")
    p.add_argument("--csv", help="path of the Table-style CSV report")
    _add_flags(p, HeadTrainConfig, "lam", "gamma", "epochs")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_merge, usage_error=p.error)

    p = sub.add_parser("train", help="train the sparse head on a book's CAVs")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    _add_flags(p, HeadTrainConfig, "lam", "gamma", "lr", "epochs")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compute the metric report")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--head", required=True)
    _add_flags(p, PipelineConfig, "stability_k", "faithfulness_ns")
    _add_flags(p, MiningConfig)
    _add_flags(p, PipelineConfig, "seed")
    p.add_argument("--force", action="store_true",
                   help="skip the config-hash compatibility check")
    p.add_argument("--csv", help="also write the one-row CSV report")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("occlude", help="occlusion robustness curve")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--head", required=True)
    _add_flags(p, OcclusionConfig)
    p.add_argument("--svg", help="also write an SVG chart")
    p.add_argument("--force", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("export", help="export CAV CSV or convert a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--book", help="book for CAV export; omit to convert the dataset")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConceptMineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
