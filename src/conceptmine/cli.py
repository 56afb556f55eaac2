"""Command-line front end: dataset generation, the staged pipeline
(center fitting, then one concept-mining pass and one sparse-head training
run), and report/merge/occlusion utilities.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .cav import compute_cav_batch, export_cav_csv
from .dataset import (PartFeatureDataset, SyntheticSpec, generate_synthetic,
                      load_dataset, save_dataset, split_kfold)
from .errors import (CompatibilityError, ConceptMineError, ValidationError,
                     check_int, read_json_object)
from .head import HeadTrainConfig, accuracy, load_head, save_head, train_head
from .mining import (DbscanParams, load_book, merge_centroids, MergeConfig,
                     mine_concepts, save_book)
from .occlusion import OcclusionConfig, occlusion_eval, save_curve_csv, save_curve_svg
from .partproto import McmConfig, fit_prototype_centers, save_centers
from .xaimetrics import (config_hash, faithfulness, metric_report, save_report,
                         save_report_csv)


@dataclass
class PipelineConfig:
    """Module configs plus the mining and metric settings of one run."""

    mcm: McmConfig
    head: HeadTrainConfig
    eps: float | None = None  # None -> per-cell adaptive DBSCAN defaults
    min_pts: int | None = None
    stability_k: int = 10
    faithfulness_ns: tuple[int, ...] = (1, 2, 3, 4, 5)
    seed: int = 0

    def __post_init__(self):
        _mining_params(self.eps, self.min_pts)  # checks eps and min_pts
        check_int("seed", self.seed, 0)
        check_int("stability_k", self.stability_k, 2)
        for n in self.faithfulness_ns:
            check_int("faithfulness_ns entry", n, 0)

    def to_dict(self) -> dict:
        return {
            "mcm": asdict(self.mcm),
            "head": asdict(self.head),
            "mining": {"eps": self.eps, "min_pts": self.min_pts},
            "stability_k": self.stability_k,
            "faithfulness_ns": list(self.faithfulness_ns),
            "seed": self.seed,
        }


def _mining_params(eps, min_pts) -> DbscanParams | None:
    """Fixed DBSCAN params (min_pts 3 if unset); None (adaptive) if no eps.
    A min_pts without eps is refused: adaptive mining sets its own."""
    if eps is None:
        if min_pts is not None:
            raise ValidationError(
                f"min_pts={min_pts!r} needs eps; without eps mining is "
                f"adaptive and sets its own min_pts per cell")
        return None
    return DbscanParams(eps=eps, min_pts=3 if min_pts is None else min_pts)


# Nested sections of the config dict and the dataclass whose fields they set.
_SECTIONS = {"mcm": McmConfig, "head": HeadTrainConfig, "mining": DbscanParams}


def _config_section(raw: dict, name: str) -> dict:
    """``raw[name]`` (empty if absent), refusing keys its dataclass lacks."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config key {name} must be an object")
    known = {f.name for f in fields(_SECTIONS[name])}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ValidationError(f"unknown config key {name}.{unknown[0]}")
    return section


def pipeline_config_from_dict(raw: dict) -> PipelineConfig:
    """Build a config from its :meth:`PipelineConfig.to_dict` form; every
    key is optional, and a key no config field reads is refused."""
    known = {f.name for f in fields(PipelineConfig)} - {"eps", "min_pts"}
    unknown = sorted(set(raw) - known - set(_SECTIONS))
    if unknown:
        raise ValidationError(f"unknown config key {unknown[0]}")
    mining = _config_section(raw, "mining")
    mcm_raw = _config_section(raw, "mcm")
    head_raw = _config_section(raw, "head")
    try:
        seed = raw.get("seed", 0)
        if mcm_raw.get("seed", seed) != seed:
            raise ValidationError(
                f"config key mcm.seed ({mcm_raw['seed']!r}) must equal "
                f"seed ({seed}); the top-level seed seeds center fitting")
        return PipelineConfig(
            mcm=McmConfig(**{**mcm_raw, "seed": seed}),
            head=HeadTrainConfig(**head_raw),
            eps=mining.get("eps"),
            min_pts=mining.get("min_pts"),
            stability_k=raw.get("stability_k", 10),
            faithfulness_ns=tuple(raw.get("faithfulness_ns", (1, 2, 3, 4, 5))),
            seed=seed,
        )
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


def _load_scored_run(args):
    """Dataset, book and head for ``eval``/``occlude``; refuses a d_c
    mismatch, and a config-hash mismatch unless ``--force`` is given."""
    ds = _load_data(args.data)
    book = load_book(args.book, _book_format(args.book))
    head = load_head(args.head, _head_format(args.head))
    if head.W1.shape[0] != book.d_c:
        raise CompatibilityError(
            f"head expects d_c={head.W1.shape[0]} but book has d_c={book.d_c}")
    bh = book.meta.get("config_hash")
    hh = head.meta.get("config_hash")
    if not args.force and bh and hh and bh != hh:
        raise CompatibilityError(
            f"book config hash {bh} != head config hash {hh}; "
            f"pass --force to evaluate anyway")
    return ds, book, head


def _head_config(args) -> HeadTrainConfig:
    """The head config from the flags given; the rest keep their defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(HeadTrainConfig)}
    return HeadTrainConfig(**{k: v for k, v in given.items() if v is not None})


def run_pipeline(ds: PartFeatureDataset, cfg: PipelineConfig, outdir: Path) -> dict:
    """Fit centers, mine the concept book, train the head, evaluate metrics,
    and write all artifacts to ``outdir``. Returns the manifest dict.

    The part features are fixed inputs and mining is a pure function of
    them, so the book is mined once and the head trained once for all
    epochs at ``beta * lr``. The stability folds are checked before any
    costly stage runs or ``outdir`` is created.
    """
    cfg_dict = cfg.to_dict()
    h = config_hash(cfg_dict)
    params = _mining_params(cfg.eps, cfg.min_pts)

    stage = "preflight"
    try:
        if ds.n_classes < 2:
            raise ValidationError(
                f"consistency needs at least 2 classes, got {ds.n_classes}")
        split_kfold(ds, cfg.stability_k, cfg.seed)
        outdir.mkdir(parents=True, exist_ok=True)

        stage = "fit-centers"
        centers = fit_prototype_centers(ds, cfg.mcm)

        stage = "mine"
        book = mine_concepts(ds, params)
        z, g = compute_cav_batch(ds, book)

        stage = "train"
        objectives = []

        def on_epoch(epoch, objective, step, pre_prox, w1):
            objectives.append(objective)

        head = train_head(z, g, ds.labels,
                          replace(cfg.head, lr=cfg.head.beta * cfg.head.lr),
                          on_epoch)

        stage = "metrics"
        report = metric_report(ds, z, g, book, head, cfg.stability_k, params,
                               cfg.seed, list(cfg.faithfulness_ns), cfg_dict)

        stage = "write-artifacts"
        meta = {"config_hash": h, "eps": cfg.eps, "min_pts": cfg.min_pts}
        save_centers(centers, outdir / "centers.pcmc", "pcmc")
        for fmt in ("json", "pcmb"):
            save_book(book, outdir / f"book.{fmt}", fmt, meta=meta)
        for fmt in ("json", "pcmh"):
            save_head(head, outdir / f"head.{fmt}", fmt, lam=cfg.head.lam,
                      gamma=cfg.head.gamma, meta={"config_hash": h})
        save_report(report, outdir / "metrics.json")
        save_report_csv(report, outdir / "metrics.csv")
        with open(outdir / "training_log.csv", "w") as fh:
            fh.write("epoch,objective\n")
            for i, obj in enumerate(objectives):
                fh.write(f"{i},{obj!r}\n")

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
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
        return manifest
    except ConceptMineError as e:
        raise type(e)(f"stage {stage}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    spec = SyntheticSpec(
        n_classes=args.classes, n_parts=args.parts, feat_dim=args.dim,
        samples_per_class=args.per_class, concepts_per_cell=args.concepts,
        noise_sigma=args.noise, min_separation=args.min_sep, seed=args.seed,
    )
    ds, gt = generate_synthetic(spec)
    out = Path(args.output)
    save_dataset(ds, out, _dataset_format(out))
    gt_path = Path(args.ground_truth) if args.ground_truth else \
        out.with_suffix(out.suffix + ".gt.json")
    with open(gt_path, "w") as fh:
        json.dump({
            "planted_means": gt.planted_means.tolist(),
            "assignment": gt.assignment.tolist(),
            "spec": asdict(spec),
        }, fh, sort_keys=True)
    print(f"wrote {out} ({ds.n_samples} samples, K={ds.n_parts}, "
          f"L={ds.n_classes}, d_f={ds.feat_dim}) and {gt_path}")
    return 0


def _load_pipeline_config(args) -> PipelineConfig:
    raw = read_json_object(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
        if "seed" in _config_section(raw, "mcm"):
            raw["mcm"] = {**raw["mcm"], "seed": args.seed}
    if args.k is not None:
        raw["stability_k"] = args.k
    for name, keys in (("mining", ("eps", "min_pts")),
                       ("head", ("lam", "gamma", "beta", "lr", "epochs"))):
        section = dict(_config_section(raw, name))
        for key in keys:
            if getattr(args, key) is not None:
                section[key] = getattr(args, key)
        raw[name] = section
    return pipeline_config_from_dict(raw)


def cmd_pipeline(args) -> int:
    cfg = _load_pipeline_config(args)
    try:
        ds = _load_data(args.data)
    except (ConceptMineError, OSError) as e:
        raise ValidationError(f"stage load-data: {e}") from e
    manifest = run_pipeline(ds, cfg, Path(args.output))
    acc = manifest["accuracies"]["full"]
    print(f"pipeline done: d_c={manifest['d_c']}, "
          f"train_acc={acc:.2f}%, config_hash={manifest['config_hash']}")
    return 0


def cmd_mine(args) -> int:
    ds = _load_data(args.data)
    book = mine_concepts(ds, _mining_params(args.eps, args.min_pts))
    out = Path(args.output)
    meta = {"config_hash": config_hash({"eps": args.eps, "min_pts": args.min_pts}),
            "eps": args.eps, "min_pts": args.min_pts}
    save_book(book, out, _book_format(out), meta=meta)
    print(f"mined {book.d_c} concepts from {ds.n_samples} samples")
    return 0


def cmd_merge(args) -> int:
    book = load_book(args.book, _book_format(args.book))
    cfg = MergeConfig(threshold_pct=args.threshold, level=args.level)
    merged = merge_centroids(book, cfg)
    out = Path(args.output)
    save_book(merged, out, _book_format(out), meta=book.meta)
    print(f"d_c before={book.d_c} after={merged.d_c} "
          f"(threshold={args.threshold}%, level={args.level})")

    if args.data:
        ds = _load_data(args.data)
        head_cfg = _head_config(args)
        rows = []
        for tag, pct, b in (("input", 0.0, book),
                            ("merged", args.threshold, merged)):
            z, g = compute_cav_batch(ds, b)
            head = train_head(z, g, ds.labels, head_cfg)
            acc = accuracy(z, g, ds.labels, head)
            f3 = faithfulness(z, g, ds.labels, head, b, [3])[3]
            rows.append((tag, pct, args.level, b.d_c, acc, f3))
        csv_path = args.csv or (str(out) + ".table.csv")
        with open(csv_path, "w") as fh:
            fh.write("book,threshold_pct,level,d_c,accuracy,F3\n")
            for tag, pct, level, d_c, acc, f3 in rows:
                fh.write(f"{tag},{pct},{level},{d_c},{acc!r},{f3!r}\n")
        for tag, pct, level, d_c, acc, f3 in rows:
            print(f"  {tag}: d_c={d_c} accuracy={acc:.2f}% F(3)={f3:.2f}")
    return 0


def cmd_train(args) -> int:
    ds = _load_data(args.data)
    book = load_book(args.book, _book_format(args.book))
    z, g = compute_cav_batch(ds, book)
    cfg = _head_config(args)
    head = train_head(z, g, ds.labels, cfg)
    out = Path(args.output)
    meta = {"config_hash": book.meta.get("config_hash",
                                         config_hash(asdict(cfg)))}
    save_head(head, out, _head_format(out), lam=cfg.lam, gamma=cfg.gamma,
              meta=meta)
    acc = accuracy(z, g, ds.labels, head)
    print(f"trained head: train_acc={acc:.2f}%, "
          f"W1 zeros={float(np.mean(head.W1 == 0)):.2%}")
    return 0


def cmd_eval(args) -> int:
    ds, book, head = _load_scored_run(args)

    eps = args.eps if args.eps is not None else book.meta.get("eps")
    min_pts = args.min_pts if args.min_pts is not None else book.meta.get("min_pts")
    params = _mining_params(eps, min_pts)

    z, g = compute_cav_batch(ds, book)
    report = metric_report(
        ds, z, g, book, head, args.k, params, args.seed or 0, args.ns,
        {"book": book.meta, "k": args.k, "ns": args.ns,
         "eps": eps, "min_pts": min_pts})
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
                          OcclusionConfig(fractions=args.fractions))
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
        book = load_book(args.book, _book_format(args.book))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptmine",
        description="Concept mining, sparse concept-vector classification, "
                    "and explainability metrics over part-feature datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted synthetic dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--concepts", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--min-sep", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-truth", help="ground-truth JSON path")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pipeline", help="run the full staged pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON pipeline config")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="stability fold count")
    p.add_argument("--eps", type=float)
    p.add_argument("--min-pts", dest="min_pts", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("mine", help="mine a concept book from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--min-pts", dest="min_pts", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("merge", help="merge similar centroids in a book")
    p.add_argument("--book", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="percent of max pairwise centroid distance")
    p.add_argument("--level", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--data", help="dataset for the accuracy/F(3) table")
    p.add_argument("--csv", help="path of the Table-style CSV report")
    p.add_argument("--lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("train", help="train the sparse head on a book's CAVs")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compute the metric report")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ns", type=_list_of(int, minimum=0),
                   default=[1, 2, 3, 4, 5],
                   help="comma-separated faithfulness n list")
    p.add_argument("--eps", type=float)
    p.add_argument("--min-pts", dest="min_pts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true",
                   help="skip the config-hash compatibility check")
    p.add_argument("--csv", help="also write the one-row CSV report")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("occlude", help="occlusion robustness curve")
    p.add_argument("--data", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--fractions", type=_list_of(float), default="0.1,0.2,0.3")
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
