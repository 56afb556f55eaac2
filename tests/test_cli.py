import argparse
import csv
import json
import os
import platform
import struct
import subprocess
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import conceptmine
from conceptmine.cav import compute_cav_batch
from conceptmine.cli import (PipelineConfig, _given, build_parser, main,
                             pipeline_config_from_dict, run_pipeline)
from conceptmine.errors import FormatError, ValidationError
from conceptmine.dataset import (SyntheticSpec, generate_synthetic,
                                 load_dataset, save_dataset)
from conceptmine.head import (HeadTrainConfig, SparseHead, load_head, save_head,
                             train_head)
from conceptmine.mining import (MergeConfig, MiningConfig, load_book,
                                mine_concepts, save_book)
from conceptmine.occlusion import OcclusionConfig
from conceptmine.partproto import McmConfig, fit_prototype_centers, save_centers
from conceptmine.xaimetrics import config_hash

from oracles import pack_container


def run(*argv):
    return main([str(a) for a in argv])


def centers_bytes(centers, path):
    """The bytes of ``centers`` written as the pipeline writes them."""
    save_centers(centers, path)
    return path.read_bytes()


def crlf_lines(path):
    """True when every line of the file at ``path`` ends in CRLF."""
    lines = path.read_bytes().splitlines(keepends=True)
    return bool(lines) and all(line.endswith(b"\r\n") for line in lines)


@pytest.fixture
def ds_path(tmp_path):
    path = tmp_path / "ds.pfd"
    rc = run("gen", "--classes", 3, "--parts", 2, "--dim", 16,
             "--per-class", 20, "--concepts", 2, "--noise", "0.02",
             "--seed", 7, "-o", path)
    assert rc == 0
    return path


@pytest.fixture
def artifacts(tmp_path, ds_path):
    out = tmp_path / "run"
    rc = run("pipeline", "--data", ds_path, "--seed", 7, "--epochs", 30,
             "--k", 4, "--eps", "0.3", "--min-pts", 3, "-o", out)
    assert rc == 0
    return out


def openblas_dynamic_arch() -> bool:
    """True when numpy's OpenBLAS picks its kernel at run time, so that
    ``OPENBLAS_CORETYPE`` can select another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


# The BLAS may sum a product in any order, so a head trained under another
# kernel or thread count drifts in the last bits. Measured on the CLI-default
# data: at most 4e-14 relative on a head weight and 1.5e-14 absolute on a
# percentage. These bounds are far below any value a run reports.
BLAS_RTOL, BLAS_ATOL = 1e-9, 1e-12


def text_and_numbers(path):
    """The text fields and the numbers of a run file, each in file order."""
    if path.suffix == ".pcmh":
        head = load_head(path, "pcmh")
        return (sorted(head.meta.items()),
                np.concatenate([head.W1.ravel(), head.W2.ravel(), head.b]))
    text, numbers = [], []

    def walk(v):
        if isinstance(v, dict):
            for k in v:
                text.append(k)
                walk(v[k])
        elif isinstance(v, list):
            for x in v:
                walk(x)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            numbers.append(float(v))
        else:
            text.append(v)

    if path.suffix == ".json":
        walk(json.loads(path.read_text()))
    else:
        with open(path, newline="") as fh:
            for field in (f for row in csv.reader(fh) for f in row):
                try:
                    numbers.append(float(field))
                except ValueError:
                    text.append(field)
    return text, np.array(numbers)


class TestGen:
    def test_counting(self, tmp_path):
        path = tmp_path / "g.pfd"
        assert run("gen", "--classes", 3, "--parts", 2, "--dim", 8,
                   "--per-class", 20, "--seed", 7, "-o", path) == 0
        ds = load_dataset(path)
        assert ds.n_samples == 60
        assert (tmp_path / "g.pfd.gt.json").exists()

    def test_missing_output_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--classes", 2)
        assert exc.value.code == 2

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.pfd", tmp_path / "b.pfd"
        for p in (a, b):
            run("gen", "--classes", 2, "--parts", 1, "--dim", 8,
                "--per-class", 5, "--seed", 3, "-o", p)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.pfd.gt.json").read_bytes() == \
            (tmp_path / "b.pfd.gt.json").read_bytes()

    def test_default_sizes_come_from_spec(self, tmp_path):
        assert run("gen", "-o", tmp_path / "g.pfd") == 0
        save_dataset(generate_synthetic(SyntheticSpec())[0],
                     tmp_path / "want.pfd")
        assert (tmp_path / "g.pfd").read_bytes() == \
            (tmp_path / "want.pfd").read_bytes()
        gt = json.load(open(tmp_path / "g.pfd.gt.json"))
        assert gt["spec"] == asdict(SyntheticSpec())

    def test_csv_output(self, tmp_path):
        path = tmp_path / "g.csv"
        run("gen", "--classes", 2, "--parts", 1, "--dim", 4,
            "--per-class", 4, "--seed", 1, "-o", path)
        ds = load_dataset(path, "csv")
        assert ds.n_samples == 8


class TestPipeline:
    def test_artifacts_and_manifest(self, artifacts):
        names = {p.name for p in artifacts.iterdir()}
        assert {"centers.pcmc", "book.json", "book.pcmb", "head.json",
                "head.pcmh", "metrics.json", "metrics.csv", "manifest.json",
                "training_log.csv"} <= names
        metrics = json.load(open(artifacts / "metrics.json"))
        assert set(metrics["accuracies"]) == {"full", "prototypical_only",
                                              "nonprototypical_only"}
        for name in ("training_log.csv", "metrics.csv"):
            assert crlf_lines(artifacts / name), name

    def test_artifacts_equal_one_mine_and_one_training_run(self, tmp_path,
                                                            ds_path, artifacts):
        ds = load_dataset(ds_path)
        cfg = HeadTrainConfig(epochs=30)
        book = mine_concepts(ds, MiningConfig(eps=0.3, min_pts=3))
        z, g = compute_cav_batch(ds, book)
        head = train_head(z, g, ds.labels,
                          replace(cfg, lr=cfg.beta * cfg.lr))
        h = json.load(open(artifacts / "manifest.json"))["config_hash"]
        book.meta = {"config_hash": h, "eps": 0.3, "min_pts": 3}
        head.meta = {"config_hash": h, "lambda": cfg.lam, "gamma": cfg.gamma}
        save_book(book, tmp_path / "book.pcmb", "pcmb")
        save_head(head, tmp_path / "head.pcmh", "pcmh")
        for name in ("book.pcmb", "head.pcmh"):
            assert (artifacts / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["book.json", "book.pcmb", "head.json",
                                      "head.pcmh"])
    def test_loaded_artifact_saves_to_its_own_bytes(self, tmp_path, artifacts,
                                                    name):
        """A book or head is its file: loaded and saved again with no other
        argument, it writes the bytes it was read from, meta included."""
        kind, fmt = name.split(".")
        load, save = {"book": (load_book, save_book),
                      "head": (load_head, save_head)}[kind]
        save(load(artifacts / name, fmt), tmp_path / name, fmt)
        assert (tmp_path / name).read_bytes() == (artifacts / name).read_bytes()

    def test_fold_check_runs_before_any_stage(self, tmp_path, ds_path,
                                              capsys):
        out = tmp_path / "nofolds"
        rc = run("pipeline", "--data", ds_path, "--k", 50, "-o", out)
        assert rc == 1
        assert "stage preflight" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path, ds_path, artifacts):
        out2 = tmp_path / "run_again"
        run("pipeline", "--data", ds_path, "--seed", 7, "--epochs", 30,
            "--k", 4, "--eps", "0.3", "--min-pts", 3, "-o", out2)
        for p in sorted(artifacts.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                        or not openblas_dynamic_arch(),
                        reason="needs an x86-64 OpenBLAS that picks its "
                               "kernel at run time")
    def test_blas_settings_move_only_head_dependent_files(self, tmp_path):
        """Books and centers are the same bytes under every OpenBLAS kernel
        and thread count; the head and what it scores agree within
        BLAS_RTOL and BLAS_ATOL."""
        data = tmp_path / "d.pfd"
        assert run("gen", "-o", data) == 0
        env = dict(os.environ,
                   PYTHONPATH=str(Path(conceptmine.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        runs = []
        for core in (None, "Sandybridge"):
            for threads in ("1", "2"):
                out = tmp_path / f"run-{core}-{threads}"
                child = dict(env, OPENBLAS_NUM_THREADS=threads,
                             **({"OPENBLAS_CORETYPE": core} if core else {}))
                subprocess.run([sys.executable, "-m", "conceptmine.cli",
                                "pipeline", "--data", str(data), "-o", str(out)],
                               env=child, check=True, capture_output=True)
                runs.append(out)
        first, *others = runs
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 9
        for out in others:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                a, b = first / name, out / name
                if name in ("book.json", "book.pcmb", "centers.pcmc"):
                    assert a.read_bytes() == b.read_bytes(), (out.name, name)
                    continue
                (text_a, num_a), (text_b, num_b) = (text_and_numbers(a),
                                                    text_and_numbers(b))
                assert text_a == text_b, (out.name, name)
                np.testing.assert_allclose(num_b, num_a, rtol=BLAS_RTOL,
                                           atol=BLAS_ATOL,
                                           err_msg=f"{out.name}/{name}")

    def test_config_file_with_flag_override(self, tmp_path, ds_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 1,
            "head": {"epochs": 12, "lam": 0.001},
            "mining": {"eps": 0.3, "min_pts": 3},
            "stability_k": 4,
        }))
        out = tmp_path / "cfgrun"
        assert run("pipeline", "--data", ds_path, "--config", cfg_path,
                   "--seed", 9, "-o", out) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["config"]["seed"] == 9  # flag wins
        assert manifest["config"]["head"]["epochs"] == 12

    def test_mcm_seed_is_an_unknown_key(self):
        """The top-level seed is the one seed of a run: ``mcm.seed`` is a
        removed knob, refused whatever its value."""
        for mcm_seed, seed in ((5, 3), (1, 0), (0, 0)):
            with pytest.raises(ValidationError,
                               match="^unknown config key mcm.seed$"):
                pipeline_config_from_dict({"seed": seed, "mcm": {"seed": mcm_seed}})

    def test_collapsed_margin_warns_once(self, caplog):
        """The collapsed-margin warning comes from building the McmConfig
        once, not again from building the pipeline config around it."""
        mcm = {"m1": 2.0, "m2": 1.0}
        with caplog.at_level("WARNING", logger="conceptmine.partproto"):
            pipeline_config_from_dict({"seed": 7, "mcm": mcm})
        assert [r.getMessage() for r in caplog.records] == [
            "m2=1 <= m1=2: collapsed-margin regime"]

    def test_library_seed_seeds_center_fitting(self, tmp_path, ds_path):
        lib, cli = tmp_path / "lib", tmp_path / "cli"
        run_pipeline(load_dataset(ds_path),
                     PipelineConfig(seed=7, stability_k=2), lib)
        assert run("pipeline", "--data", ds_path, "--seed", 7, "--k", 2,
                   "-o", cli) == 0
        centers = (cli / "centers.pcmc").read_bytes()
        assert (lib / "centers.pcmc").read_bytes() == centers
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            json.load(open(lib / "manifest.json"))["config"]))
        assert run("pipeline", "--data", ds_path, "--config", cfg_path,
                   "-o", tmp_path / "again") == 0
        assert (tmp_path / "again" / "centers.pcmc").read_bytes() == centers

    def test_default_config_hash_pinned(self):
        cfg = pipeline_config_from_dict({})
        assert cfg.to_dict() == PipelineConfig().to_dict()
        assert "seed" not in cfg.to_dict()["mcm"]
        assert config_hash(cfg.to_dict()) == "f8d8e84468fe"

    def test_config_dict_round_trips(self):
        cfg = pipeline_config_from_dict({"seed": 4, "stability_k": 3,
                                         "faithfulness_ns": [0, 2]})
        assert cfg.to_dict()["seed"] == 4
        assert "seed" not in cfg.to_dict()["mcm"]
        again = pipeline_config_from_dict(cfg.to_dict())
        assert isinstance(again, PipelineConfig)
        assert again.to_dict() == cfg.to_dict()

    def test_seed_flag_reseeds_the_fit_of_a_saved_config(self, tmp_path,
                                                         ds_path):
        cfg = pipeline_config_from_dict({"seed": 1, "stability_k": 4,
                                         "head": {"epochs": 5}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "reseeded"
        assert run("pipeline", "--data", ds_path, "--config", cfg_path,
                   "--seed", 9, "-o", out) == 0
        config = json.load(open(out / "manifest.json"))["config"]
        assert config["seed"] == 9 and "seed" not in config["mcm"]
        ds = load_dataset(ds_path)
        centers = (out / "centers.pcmc").read_bytes()
        assert centers == centers_bytes(fit_prototype_centers(ds, cfg.mcm, seed=9),
                                        tmp_path / "nine.pcmc")
        assert centers != centers_bytes(fit_prototype_centers(ds, cfg.mcm, seed=1),
                                        tmp_path / "one.pcmc")

    @pytest.mark.parametrize("inline", [False, True], ids=["forked", "inline"])
    def test_seed_flag_seeds_the_center_fit(self, tmp_path, ds_path,
                                            monkeypatch, inline):
        """``pipeline --seed 3`` writes the centers that the library fit
        gives with seed 3, forked or in process, and seed 0 gives others."""
        if inline:
            monkeypatch.delattr(os, "fork")
        ds = load_dataset(ds_path)
        for seed in (3, 0):
            out = tmp_path / f"seed{seed}"
            assert run("pipeline", "--data", ds_path, "--seed", seed, "--k", 2,
                       "--epochs", 3, "-o", out) == 0
            assert (out / "centers.pcmc").read_bytes() == centers_bytes(
                fit_prototype_centers(ds, McmConfig(), seed=seed),
                tmp_path / f"lib{seed}.pcmc")
        assert (tmp_path / "seed3" / "centers.pcmc").read_bytes() != \
            (tmp_path / "seed0" / "centers.pcmc").read_bytes()

    def test_missing_data_runtime_error(self, tmp_path, capsys):
        rc = run("pipeline", "--data", tmp_path / "nope.pfd", "-o",
                 tmp_path / "x")
        assert rc == 1

    @pytest.mark.parametrize("content, error", [
        (None, ValidationError), (b"not a dataset", FormatError),
    ], ids=["missing", "malformed"])
    def test_load_data_error_names_its_stage(self, tmp_path, capsys, content,
                                             error):
        """A file that cannot be opened is a ValidationError; a file that
        does not parse keeps its own FormatError."""
        data, out = tmp_path / "d.pfd", tmp_path / "x"
        if content is not None:
            data.write_bytes(content)
        args = build_parser().parse_args(
            ["pipeline", "--data", str(data), "-o", str(out)])
        with pytest.raises(error, match="^stage load-data: ") as info:
            args.func(args)
        assert type(info.value) is error
        assert run("pipeline", "--data", data, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage load-data: ")
        assert "Traceback" not in err and not out.exists()

    def test_output_under_a_file_names_preflight(self, tmp_path, capsys, ds_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("pipeline", "--data", ds_path, "-o", blocker / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage preflight: ")
        assert "Not a directory" in err and "Traceback" not in err

    def test_failed_write_names_its_stage(self, tmp_path, capsys, ds_path,
                                          monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("conceptmine.cli.save_report", full_disk)
        assert run("pipeline", "--data", ds_path, "--k", 2, "-o",
                   tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage write-artifacts: [Errno 28] No space")
        assert "Traceback" not in err


class TestMineAndTrain:
    def test_mine_then_train(self, tmp_path, ds_path):
        book = tmp_path / "book.json"
        head = tmp_path / "head.json"
        assert run("mine", "--data", ds_path, "--eps", "0.3", "--min-pts", 3,
                   "-o", book) == 0
        assert run("train", "--data", ds_path, "--book", book,
                   "--lam", "0.001", "--epochs", 60, "-o", head) == 0
        payload = json.load(open(head))
        assert payload["lambda"] == 0.001
        # lineage: head inherits the book's config hash
        assert payload["config_hash"] == json.load(open(book))["config_hash"]

    def test_mine_binary_book(self, tmp_path, ds_path):
        book = tmp_path / "book.pcmb"
        assert run("mine", "--data", ds_path, "--eps", "0.3", "-o", book) == 0
        assert book.stat().st_size > 16


class TestMerge:
    def test_zero_threshold_prints_unchanged(self, tmp_path, artifacts, capsys):
        out = tmp_path / "merged.json"
        assert run("merge", "--book", artifacts / "book.json",
                   "--threshold", 0, "--level", 1, "-o", out) == 0
        msg = capsys.readouterr().out
        before = json.load(open(artifacts / "book.json"))
        after = json.load(open(out))
        assert len(before["entries"]) == len(after["entries"])
        assert f"before={len(before['entries'])} after={len(after['entries'])}" in msg

    def test_table_csv(self, tmp_path, ds_path, artifacts):
        out = tmp_path / "merged.json"
        table = tmp_path / "table.csv"
        assert run("merge", "--book", artifacts / "book.json",
                   "--threshold", 10, "--level", 2, "--data", ds_path,
                   "--epochs", 40, "--lam", "0.001", "--csv", table,
                   "-o", out) == 0
        rows = list(csv.reader(open(table)))
        assert rows[0] == ["book", "threshold_pct", "level", "d_c",
                           "accuracy", "F3"]
        assert len(rows) == 3
        assert int(rows[2][3]) <= int(rows[1][3])  # merged d_c <= input d_c
        assert crlf_lines(table)

    def test_default_level_is_config_default(self, tmp_path, ds_path,
                                             artifacts):
        written = []
        for level in ([], ["--level", 1]):
            out = tmp_path / f"merged{len(level)}.json"
            assert run("merge", "--book", artifacts / "book.json",
                       "--threshold", 30, *level, "--data", ds_path,
                       "--epochs", 10, "-o", out) == 0
            written.append([out.read_bytes(),
                            open(f"{out}.table.csv").read()])
        assert written[0] == written[1]


class TestEval:
    def test_report_schema(self, tmp_path, ds_path, artifacts):
        import jsonschema
        report = tmp_path / "report.json"
        assert run("eval", "--data", ds_path, "--book", artifacts / "book.json",
                   "--head", artifacts / "head.json", "--k", 4,
                   "-o", report) == 0
        schema = {
            "type": "object",
            "required": ["config", "config_hash", "seed", "faithfulness",
                         "stability", "consistency_intra", "consistency_inter",
                         "sparseness", "accuracies"],
            "properties": {
                "faithfulness": {"type": "object"},
                "stability": {"type": "number"},
                "consistency_intra": {"type": "number"},
                "consistency_inter": {"type": "number"},
                "sparseness": {"type": "number"},
                "accuracies": {
                    "type": "object",
                    "required": ["full", "prototypical_only",
                                 "nonprototypical_only"],
                },
            },
        }
        jsonschema.validate(json.load(open(report)), schema)

    @pytest.mark.parametrize("mining", [["--eps", "0.3", "--min-pts", 3], []],
                             ids=["fixed-eps", "adaptive-eps"])
    def test_reproduces_pipeline_metrics(self, tmp_path, ds_path, mining):
        out = tmp_path / "run"
        assert run("pipeline", "--data", ds_path, "--seed", 7, "--epochs", 30,
                   "--k", 4, *mining, "-o", out) == 0
        report, row = tmp_path / "r.json", tmp_path / "r.csv"
        assert run("eval", "--data", ds_path, "--book", out / "book.json",
                   "--head", out / "head.json", "--k", 4, "--seed", 7,
                   "--csv", row, "-o", report) == 0
        want = json.load(open(out / "metrics.json"))
        got = json.load(open(report))
        assert got["config"]["eps"] == want["config"]["mining"]["eps"]
        for payload in (want, got):  # the configs differ in shape only
            del payload["config"], payload["config_hash"]
        assert got == want
        want_rows = list(csv.reader(open(out / "metrics.csv")))
        got_rows = list(csv.reader(open(row)))
        assert got_rows[0] == want_rows[0]
        assert got_rows[1][1:] == want_rows[1][1:]

    def test_hash_mismatch_refused_without_force(self, tmp_path, ds_path,
                                                 artifacts, capsys):
        # Re-mine with different params: different config hash, same d_c not
        # guaranteed, so craft a mismatched-hash copy of the same book.
        book2 = tmp_path / "book2.json"
        payload = json.load(open(artifacts / "book.json"))
        payload["config_hash"] = "deadbeef0000"
        book2.write_text(json.dumps(payload))
        report = tmp_path / "r.json"
        rc = run("eval", "--data", ds_path, "--book", book2,
                 "--head", artifacts / "head.json", "--k", 4, "-o", report)
        assert rc == 1
        assert "hash" in capsys.readouterr().err
        rc = run("eval", "--data", ds_path, "--book", book2,
                 "--head", artifacts / "head.json", "--k", 4, "--force",
                 "-o", report)
        assert rc == 0

    @pytest.mark.parametrize("mining", [["--eps", "0.3", "--min-pts", 3], []],
                             ids=["fixed-eps", "adaptive-eps"])
    def test_binary_twins_score_alike(self, tmp_path, ds_path, mining):
        out = tmp_path / "run"
        assert run("pipeline", "--data", ds_path, "--seed", 7, "--epochs", 30,
                   "--k", 4, *mining, "-o", out) == 0
        written = {}
        for book, head in (("book.json", "head.json"), ("book.pcmb", "head.pcmh")):
            pair = ["--data", ds_path, "--book", out / book, "--head", out / head]
            assert run("eval", *pair, "--k", 4, "--seed", 7,
                       "-o", tmp_path / "r") == 0
            assert run("occlude", *pair, "-o", tmp_path / "c") == 0
            written[book] = [(tmp_path / n).read_bytes() for n in ("r", "c")]
        assert written["book.pcmb"] == written["book.json"]

    def test_binary_hash_mismatch_refused_without_force(self, tmp_path, ds_path,
                                                        artifacts, capsys):
        book = load_book(artifacts / "book.pcmb", "pcmb")
        book2 = tmp_path / "book2.pcmb"
        book.meta["config_hash"] = "deadbeef0000"
        save_book(book, book2, "pcmb")
        argv = ["eval", "--data", ds_path, "--book", book2,
                "--head", artifacts / "head.pcmh", "--k", 4,
                "-o", tmp_path / "r.json"]
        assert run(*argv) == 1
        assert "hash" in capsys.readouterr().err
        assert run(*argv, "--force") == 0

    def test_dc_mismatch_always_refused(self, tmp_path, ds_path, artifacts,
                                        capsys):
        book2 = tmp_path / "small.json"
        payload = json.load(open(artifacts / "book.json"))
        payload["entries"] = payload["entries"][:-1]
        book2.write_text(json.dumps(payload))
        rc = run("eval", "--data", ds_path, "--book", book2,
                 "--head", artifacts / "head.json", "--k", 4, "--force",
                 "-o", tmp_path / "r.json")
        assert rc == 1
        assert "d_c" in capsys.readouterr().err


class TestOcclude:
    def test_four_row_csv_with_baseline(self, tmp_path, ds_path, artifacts):
        curve = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        assert run("occlude", "--data", ds_path,
                   "--book", artifacts / "book.json",
                   "--head", artifacts / "head.json",
                   "--fractions", "0.1,0.2,0.3", "--svg", svg,
                   "-o", curve) == 0
        rows = list(csv.reader(open(curve)))
        assert len(rows) == 5  # header + baseline + 3 fractions
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.1, 0.2, 0.3]
        assert svg.exists()

    def test_default_fractions_are_config_default(self, tmp_path, ds_path,
                                                  artifacts):
        pair = ["--data", ds_path, "--book", artifacts / "book.json",
                "--head", artifacts / "head.json"]
        assert run("occlude", *pair, "-o", tmp_path / "a.csv") == 0
        assert run("occlude", *pair, "--fractions", "0.1,0.2,0.3",
                   "-o", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["eval", "--k", "2"], ["occlude"]])
def test_overflowing_head_exits_1_with_one_error_line(tmp_path, ds_path, artifacts,
                                                      capsys, command):
    head = load_head(artifacts / "head.json")
    big = tmp_path / "big.json"
    save_head(SparseHead(np.full_like(head.W1, 1e308),
                         np.full_like(head.W2, 1e308), head.b), big)
    capsys.readouterr()
    assert run(*command, "--data", ds_path, "--book", artifacts / "book.json",
               "--head", big, "-o", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: head logits of sample 0 are not finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestExport:
    def test_cav_csv(self, tmp_path, ds_path, artifacts):
        out = tmp_path / "cavs.csv"
        assert run("export", "--data", ds_path,
                   "--book", artifacts / "book.json", "-o", out) == 0
        rows = list(csv.reader(open(out)))
        book = json.load(open(artifacts / "book.json"))
        ds = load_dataset(ds_path)
        assert len(rows[0]) == len(book["entries"]) + ds.feat_dim + 1
        assert len(rows) == ds.n_samples + 1

    def test_dataset_conversion_round_trip(self, tmp_path, ds_path):
        as_csv = tmp_path / "ds.csv"
        back = tmp_path / "back.pfd"
        assert run("export", "--data", ds_path, "-o", as_csv) == 0
        assert run("export", "--data", as_csv, "-o", back) == 0
        a = load_dataset(ds_path)
        b = load_dataset(back)
        np.testing.assert_array_equal(a.part_features, b.part_features)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.filterwarnings("error")
    def test_feature_past_float32_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("part0_0,g_0,label\n0.5,0.5,0\n1e39,0.5,1\n")
        assert run("export", "--data", path, "-o", tmp_path / "p.pfd") == 1
        err = capsys.readouterr().err
        assert "p.csv: row 1: part_features must be" in err
        assert "got 1e+39 at row 1, outside the float32 range" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "p.pfd").exists()


# Each subcommand's setting flags, with the field each one sets, and the
# config classes the subcommand builds from them.
SETTING_FLAGS = {
    "gen": ({"--classes": "n_classes", "--parts": "n_parts",
             "--dim": "feat_dim", "--per-class": "samples_per_class",
             "--concepts": "concepts_per_cell", "--noise": "noise_sigma",
             "--min-sep": "min_separation", "--seed": "seed"},
            (SyntheticSpec,)),
    "pipeline": ({"--seed": "seed", "--k": "stability_k", "--eps": "eps",
                  "--min-pts": "min_pts", "--lam": "lam", "--gamma": "gamma",
                  "--beta": "beta", "--lr": "lr", "--epochs": "epochs"},
                 (PipelineConfig, MiningConfig, HeadTrainConfig)),
    "mine": ({"--eps": "eps", "--min-pts": "min_pts"}, (MiningConfig,)),
    "merge": ({"--threshold": "threshold_pct", "--level": "level",
               "--lam": "lam", "--gamma": "gamma", "--epochs": "epochs"},
              (MergeConfig, HeadTrainConfig)),
    "train": ({"--lam": "lam", "--gamma": "gamma", "--lr": "lr",
               "--epochs": "epochs"}, (HeadTrainConfig,)),
    "eval": ({"--k": "stability_k", "--ns": "faithfulness_ns", "--eps": "eps",
              "--min-pts": "min_pts", "--seed": "seed"},
             (PipelineConfig, MiningConfig)),
    "occlude": ({"--fractions": "fractions"}, (OcclusionConfig,)),
    "export": ({}, ()),
}
# The arguments that set no config field.
OTHER_FLAGS = {"-h", "--help", "--data", "--book", "--head", "-o", "--output",
               "--config", "--csv", "--svg", "--force", "--ground-truth"}
# One non-default command-line value per field, and the value it must set.
FLAG_VALUES = {
    "n_classes": ("6", 6), "n_parts": ("3", 3), "feat_dim": ("9", 9),
    "samples_per_class": ("41", 41), "concepts_per_cell": ("3", 3),
    "noise_sigma": ("0.05", 0.05), "min_separation": ("1.5", 1.5),
    "seed": ("7", 7), "stability_k": ("4", 4),
    "faithfulness_ns": ("0,2,9", (0, 2, 9)), "eps": ("0.25", 0.25),
    "min_pts": ("5", 5), "lam": ("0.01", 0.01), "gamma": ("0.25", 0.25),
    "beta": ("3.5", 3.5), "lr": ("0.5", 0.5), "epochs": ("12", 12),
    "threshold_pct": ("30", 30.0), "level": ("2", 2),
    "fractions": ("0.25,0.5", (0.25, 0.5)),
}


def subparsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestSettingFlags:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_are_pinned_and_name_fields(self):
        seen = {}
        for name, sub in subparsers().items():
            flags, classes = SETTING_FLAGS[name]
            seen[name] = {opt: a.dest for a in sub._actions
                          for opt in a.option_strings if opt not in OTHER_FLAGS}
            for dest in flags.values():
                owners = [c for c in classes
                          if dest in {f.name for f in fields(c)}]
                assert len(owners) == 1, (name, dest)
        assert seen == {name: flags for name, (flags, _) in SETTING_FLAGS.items()}
        assert sum(map(len, seen.values())) == 34

    @pytest.mark.parametrize("name", sorted(SETTING_FLAGS))
    def test_each_flag_sets_its_field(self, name):
        flags, classes = SETTING_FLAGS[name]
        sub = subparsers()[name]
        argv = []
        for a in sub._actions:
            if a.required and a.dest not in FLAG_VALUES:
                argv += [a.option_strings[0], "x"]
        for flag, dest in flags.items():
            argv += [flag, FLAG_VALUES[dest][0]]
        args = build_parser().parse_args([name, *argv])
        for cls in classes:
            cfg = cls(**_given(args, cls))
            for f in fields(cls):
                if f.name not in flags.values():
                    continue
                expected = FLAG_VALUES[f.name][1]
                assert expected != f.default or f.default is MISSING
                got = getattr(cfg, f.name)
                assert (got, type(got)) == (expected, type(expected)), f.name


# Command lines for the exit-code table; {ds} is a valid dataset, {tmp}
# the test's directory, where the case's files are written first, and {art}
# a directory holding an adaptively mined book and a head trained on it.
# The expected exit code may come as (code, text the error must name).
DATA_BOOK = ["--data", "{ds}", "--book", "{tmp}/b.json"]
BOOK_HEAD = [*DATA_BOOK, "--head", "{tmp}/h.json"]
MINED_BOOK_HEAD = ["--data", "{ds}", "--book", "{art}/b.json",
                   "--head", "{art}/h.json"]
PIPELINE_CFG = ["pipeline", "--data", "{ds}", "--config", "{tmp}/cfg.json",
                "-o", "{tmp}/run"]
TRUNCATED_BOOK = '{"d_f": 16, "entries": [{"class": 0, "part": 0, "centr'
# A one-sample PFD whose header claims L = 2**30 + 3 classes, as flipping
# bit 6 of byte 19 of a three-class file does.
HUGE_L_PFD = (struct.pack("<4s5I", b"PCMF", 1, 1, 1, 2**30 + 3, 1)
              + struct.pack("<2fI", 0.5, 0.5, 0))
# Four samples of one class (K = 1, d_f = 2): enough for two folds.
ONE_CLASS_PFD = (struct.pack("<4s5I", b"PCMF", 1, 4, 1, 1, 2)
                 + np.arange(16, dtype="<f4").tobytes() + bytes(16))
# Four samples of two classes with no parts (K = 0, d_f = 2) or with parts
# of no dimensions (K = 1, d_f = 0).
TWO_LABELS = np.array([0, 0, 1, 1], dtype="<u4").tobytes()
NO_PARTS_PFD = (struct.pack("<4s5I", b"PCMF", 1, 4, 0, 2, 2)
                + np.arange(8, dtype="<f4").tobytes() + TWO_LABELS)
NO_DIMS_PFD = struct.pack("<4s5I", b"PCMF", 1, 4, 1, 2, 0) + TWO_LABELS
# A two-concept book for the fixture dataset (d_f = 16, L = 3) and a head
# that fits it, to carry a given book meta or entries in either format.
ENTRIES = [{"class": c, "part": 0, "local_id": 0, "member_count": 1}
           for c in (0, 1)]
CENTROIDS = np.eye(2, 16)


def head_json(n_classes=3, d_f=16):
    return json.dumps({"W1": [[0.0] * n_classes] * 2,
                       "W2": [[0.0] * n_classes] * d_f, "b": [0.0] * n_classes})


HEAD_JSON = head_json()


def first_entry_with(**fields):
    """ENTRIES with ``fields`` set on the first entry."""
    return [{**ENTRIES[0], **fields}, *ENTRIES[1:]]


def book_json(entries=ENTRIES, **meta):
    return json.dumps({**meta, "d_f": 16, "entries": [
        {**e, "centroid": c.tolist()} for e, c in zip(entries, CENTROIDS)]})


def book_pcmb(entries=ENTRIES, **meta):
    return pack_container(b"PCMB", {**meta, "d_f": 16, "entries": entries},
                          CENTROIDS)


EVAL_BOOK = ["eval", "--data", "{ds}", "--head", "{tmp}/h.json", "--k", 2,
             "-o", "{tmp}/r.json", "--book"]
# JSON nested deeper than the parser's recursion limit.
DEEP_JSON = "[" * 200_000
# JSON integers too large for 64 bits, and the error each one raises.
BIG, PART_2_63 = 10**400, first_entry_with(part=2**63)
INT64 = "not valid JSON (an integer outside the signed 64-bit range)"


@pytest.mark.parametrize("argv, files, code", [
    # flags removed together with the options they set
    pytest.param(["mine", "--data", "{ds}", "--seed", 1, "-o", "{tmp}/b.json"],
                 {}, 2, id="mine-seed"),
    pytest.param(["train", *DATA_BOOK, "--seed", 1, "-o", "{tmp}/h.json"],
                 {}, 2, id="train-seed"),
    pytest.param(["train", *DATA_BOOK, "--beta", 99, "-o", "{tmp}/h.json"],
                 {}, 2, id="train-beta"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "--seed", 1, "-o", "{tmp}/m.json"], {}, 2, id="merge-seed"),
    pytest.param(["occlude", *BOOK_HEAD, "--seed", 1, "-o", "{tmp}/c.csv"],
                 {}, 2, id="occlude-seed"),
    pytest.param(["export", "--data", "{ds}", "--seed", 1, "-o", "{tmp}/d.csv"],
                 {}, 2, id="export-seed"),
    pytest.param(["pipeline", "--data", "{ds}", "--remine-interval", 5,
                  "-o", "{tmp}/run"], {}, 2, id="pipeline-remine-interval"),
    # merge's table flags set only the table that --data asks for; the
    # output is {tmp}/run, which no refused command may leave behind
    *[pytest.param(["merge", "--book", "{art}/b.json", "--threshold", 20, *flags,
                    "-o", "{tmp}/run"], {}, (2, f"{flags[0]} needs --data"),
                   id=f"merge{flags[0][1:]}-without-data")
      for flags in (["--csv", "{tmp}/t.csv"], ["--lam", 5], ["--gamma", 0.1],
                    ["--epochs", 3])],
    pytest.param(["merge", "--book", "{art}/b.json", "--threshold", 20, "--csv",
                  "{tmp}/t.csv", "--lam", 5, "--epochs", 3, "-o", "{tmp}/run"],
                 {}, (2, "needs --data"), id="merge-table-flags-without-data"),
    # malformed list flags
    pytest.param(["eval", *BOOK_HEAD, "--ns", "1,x", "-o", "{tmp}/r.json"],
                 {}, 2, id="eval-bad-ns"),
    pytest.param(["occlude", *BOOK_HEAD, "--fractions", "0.1,x",
                  "-o", "{tmp}/c.csv"], {}, 2, id="occlude-bad-fractions"),
    pytest.param(["eval", *BOOK_HEAD, "--ns=-1", "-o", "{tmp}/r.json"],
                 {}, 2, id="eval-negative-ns"),
    # config keys that no config field reads
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"head": {"lamda": 0.1}}'},
                 1, id="config-head-typo"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"bogus": 1, "remine_interval": 7}'},
                 1, id="config-removed-top-key"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"alpha": 1.5}}'},
                 1, id="config-removed-mcm-alpha"),
    # config values checked before any stage runs
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"faithfulness_ns": ["a"]}'},
                 1, id="config-faithfulness-ns-not-int"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"faithfulness_ns": [1, -2]}'},
                 1, id="config-faithfulness-ns-negative"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"seed": 3, "mcm": {"seed": 5}}'},
                 (1, "unknown config key mcm.seed"), id="config-mcm-seed-unknown"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"seed": 0}}'},
                 (1, "unknown config key mcm.seed"), id="config-mcm-seed-0-unknown"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"batch_size": 0}}'},
                 1, id="config-mcm-batch-size-zero"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"batch_size": -5}}'},
                 1, id="config-mcm-batch-size-negative"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"epochs": -3}}'},
                 1, id="config-mcm-epochs-negative"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"batch_size": 2.5}}'},
                 1, id="config-mcm-batch-size-not-int"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"head": {"epochs": 2.5}}'},
                 1, id="config-head-epochs-not-int"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"m1": NaN}}'},
                 1, id="config-mcm-m1-nan"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"seed": -1}'},
                 1, id="config-seed-negative"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"head": {"lr": Infinity}}'},
                 1, id="config-head-lr-infinite"),
    # a real-valued setting must be a number, not a bool or a string
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"head": {"lam": true}}'},
                 (1, "lam"), id="config-head-lam-bool"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mcm": {"lr": true}}'},
                 (1, "lr"), id="config-mcm-lr-bool"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"head": {"gamma": "0.5"}}'},
                 (1, "gamma"), id="config-head-gamma-string"),
    # seeds and fold counts must be integers >= 0 (>= 2 for folds)
    pytest.param(["gen", "--classes", 2, "--seed", -1, "-o", "{tmp}/g.pfd"],
                 {}, 1, id="gen-seed-negative"),
    pytest.param(["eval", *MINED_BOOK_HEAD, "--k", 2, "--seed", -1,
                  "-o", "{tmp}/r.json"], {}, 1, id="eval-seed-negative"),
    # eval's settings are checked by PipelineConfig before any file is read
    pytest.param(["eval", *BOOK_HEAD, "--k", 1, "-o", "{tmp}/r.json"], {},
                 (1, "stability_k must be an integer >= 2"),
                 id="eval-k-checked-before-load"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"seed": 2.5}'},
                 1, id="config-seed-fractional"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"stability_k": 2.5}'},
                 1, id="config-stability-k-fractional"),
    # min_pts is a fixed-eps setting; adaptive mining sets its own
    pytest.param(["mine", "--data", "{ds}", "--min-pts", 50,
                  "-o", "{tmp}/b.json"], {}, 1, id="mine-min-pts-without-eps"),
    pytest.param(["pipeline", "--data", "{ds}", "--min-pts", 5,
                  "-o", "{tmp}/run"], {}, 1, id="pipeline-min-pts-without-eps"),
    pytest.param(["eval", *MINED_BOOK_HEAD, "--min-pts", 5,
                  "-o", "{tmp}/r.json"], {}, 1, id="eval-min-pts-without-eps"),
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"mining": {"min_pts": 5}}'},
                 1, id="config-min-pts-without-eps"),
    pytest.param(PIPELINE_CFG,
                 {"cfg.json": '{"mining": {"eps": 0.3, "min_pts": 0}}'},
                 1, id="config-min-pts-zero"),
    # non-finite eps, noise and separation
    pytest.param(["pipeline", "--data", "{ds}", "--eps", "nan",
                  "-o", "{tmp}/run"], {}, 1, id="pipeline-eps-nan"),
    pytest.param(["mine", "--data", "{ds}", "--eps", "inf",
                  "-o", "{tmp}/b.json"], {}, 1, id="mine-eps-infinite"),
    pytest.param(["gen", "--noise", "nan", "-o", "{tmp}/g.pfd"],
                 {}, 1, id="gen-noise-nan"),
    pytest.param(["gen", "--min-sep", "inf", "-o", "{tmp}/g.pfd"],
                 {}, 1, id="gen-min-sep-infinite"),
    # a corrupt PFD header claiming 2**30 + 3 classes
    pytest.param(["pipeline", "--data", "{tmp}/huge.pfd", "-o", "{tmp}/run"],
                 {"huge.pfd": HUGE_L_PFD}, 1, id="pfd-header-huge-class-count"),
    # consistency needs two classes; refused before any stage runs
    pytest.param(["pipeline", "--data", "{tmp}/one.pfd", "--k", 2,
                  "-o", "{tmp}/run"], {"one.pfd": ONE_CLASS_PFD},
                 1, id="pipeline-one-class"),
    # a dataset needs parts of at least one dimension, a book an entry
    pytest.param(["mine", "--data", "{tmp}/k0.pfd", "-o", "{tmp}/b.json"],
                 {"k0.pfd": NO_PARTS_PFD}, (1, "n_parts"), id="mine-no-parts"),
    pytest.param(["pipeline", "--data", "{tmp}/k0.pfd", "--k", 2,
                  "-o", "{tmp}/run"], {"k0.pfd": NO_PARTS_PFD},
                 (1, "n_parts"), id="pipeline-no-parts"),
    pytest.param(["mine", "--data", "{tmp}/d0.pfd", "-o", "{tmp}/b.json"],
                 {"d0.pfd": NO_DIMS_PFD}, (1, "feat_dim"), id="mine-no-dims"),
    pytest.param(["pipeline", "--data", "{tmp}/d0.pfd", "--k", 2,
                  "-o", "{tmp}/run"], {"d0.pfd": NO_DIMS_PFD},
                 (1, "feat_dim"), id="pipeline-no-dims"),
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": '{"d_f": 16, "entries": []}'},
                 (1, "entry"), id="train-book-no-entries"),
    # a CSV label must be an integer in 0..L-1; the error names its row
    pytest.param(["mine", "--data", "{tmp}/x.csv", "-o", "{tmp}/b.json"],
                 {"x.csv": "part0_0,g_0,label\n0.5,0.5,-1\n"},
                 (1, "row 0"), id="csv-label-negative"),
    pytest.param(["mine", "--data", "{tmp}/x.csv", "-o", "{tmp}/b.json"],
                 {"x.csv": "part0_0,g_0,label\n0.5,0.5,99999999999\n"},
                 (1, "row 0"), id="csv-label-too-large"),
    # a CSV header must be exactly the one export writes, in UTF-8
    pytest.param(["export", "--data", "{tmp}/x.csv", "-o", "{tmp}/x.pfd"],
                 {"x.csv": "part1_0,part0_0,g_0,label\n1,2,3,0\n"},
                 (1, "x.csv: header"), id="csv-swapped-part-columns"),
    pytest.param(["export", "--data", "{tmp}/x.csv", "-o", "{tmp}/x.pfd"],
                 {"x.csv": "part0_0,part0_1,g_1,g_0,label\n1,2,3,4,0\n"},
                 (1, "x.csv: header"), id="csv-swapped-g-columns"),
    pytest.param(["export", "--data", "{tmp}/x.csv", "-o", "{tmp}/x.pfd"],
                 {"x.csv": "id,part0_0,g_0,label\n0,1,2,0\n"},
                 (1, "x.csv: header"), id="csv-leading-id-column"),
    pytest.param(["mine", "--data", "{tmp}/x.csv", "-o", "{tmp}/b.json"],
                 {"x.csv": "part0_0_1,g_0,label\n1,2,0\n"},
                 (1, "x.csv: header"), id="csv-three-index-part-name"),
    pytest.param(["mine", "--data", "{tmp}/x.csv", "-o", "{tmp}/b.json"],
                 {"x.csv": b"part0_0,g_0,label\n\xff\xfe,1.0,0\n"},
                 (1, "x.csv: not a valid UTF-8 CSV"), id="csv-not-utf8"),
    pytest.param(["mine", "--data", "{tmp}/x.csv", "-o", "{tmp}/b.json"],
                 {"x.csv": 'part0_0,g_0,label\n"' + "9" * 200_000 + "\n"},
                 (1, "x.csv: not a valid UTF-8 CSV"), id="csv-field-too-large"),
    # a book's eps must be a number, in the JSON and the binary book alike
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(eps="abc"), "h.json": HEAD_JSON},
                 1, id="book-json-eps-string"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(eps=[1]), "h.json": HEAD_JSON},
                 1, id="book-json-eps-list"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(eps=True), "h.json": HEAD_JSON},
                 1, id="book-json-eps-bool"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.pcmb"],
                 {"b.pcmb": book_pcmb(eps="abc"), "h.json": HEAD_JSON},
                 1, id="book-pcmb-eps-string"),
    # a version-1 binary book carries no meta
    pytest.param([*EVAL_BOOK, "{tmp}/b.pcmb"],
                 {"b.pcmb": struct.pack("<4s3I", b"PCMB", 1, 16, 2) + b"".join(
                     struct.pack("<4I", c, 0, 0, 1) + CENTROIDS[c].tobytes()
                     for c in (0, 1)), "h.json": HEAD_JSON},
                 1, id="book-pcmb-version-1"),
    # book entry fields are integers in range, never coerced
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": book_json(first_entry_with(**{"class": 0.9}))},
                 (1, "class"), id="book-json-class-fractional"),
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": book_json(first_entry_with(member_count=True))},
                 (1, "member_count"), id="book-json-member-count-bool"),
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": book_json(first_entry_with(part=-1))},
                 (1, "part"), id="book-json-part-negative"),
    pytest.param(["train", "--data", "{ds}", "--book", "{tmp}/b.pcmb",
                  "-o", "{tmp}/h.json"], {"b.pcmb": book_pcmb(first_entry_with(part=-1))},
                 (1, "part"), id="book-pcmb-part-negative"),
    # a book entry must name a class of the dataset
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": book_json(first_entry_with(**{"class": 7}))},
                 (1, "class 7"), id="train-book-class-out-of-range"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(first_entry_with(**{"class": 7})),
                  "h.json": HEAD_JSON},
                 (1, "class 7"), id="eval-book-class-out-of-range"),
    pytest.param(["occlude", *BOOK_HEAD, "-o", "{tmp}/c.csv"],
                 {"b.json": book_json(first_entry_with(**{"class": 3})),
                  "h.json": HEAD_JSON},
                 (1, "class 3"), id="occlude-book-class-out-of-range"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "--data", "{ds}", "-o", "{tmp}/m.json"],
                 {"b.json": book_json(first_entry_with(**{"class": 7}))},
                 (1, "class 7"), id="merge-data-book-class-out-of-range"),
    # a head must score the dataset's classes
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(), "h.json": head_json(2)},
                 (1, "classes"), id="eval-head-class-count"),
    pytest.param(["occlude", *BOOK_HEAD, "--force", "-o", "{tmp}/c.csv"],
                 {"b.json": book_json(), "h.json": head_json(4)},
                 (1, "classes"), id="occlude-head-class-count"),
    # a head must read the dataset's d_f non-prototypical features
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(), "h.json": head_json(d_f=8)},
                 (1, "d_f"), id="eval-head-feat-dim"),
    pytest.param(["occlude", *BOOK_HEAD, "-o", "{tmp}/c.csv"],
                 {"b.json": book_json(), "h.json": head_json(d_f=8)},
                 (1, "d_f"), id="occlude-head-feat-dim"),
    # malformed book JSON
    pytest.param(["eval", *BOOK_HEAD, "-o", "{tmp}/r.json"],
                 {"b.json": '{"d_f": 16}'}, 1, id="book-without-entries"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "-o", "{tmp}/m.json"], {"b.json": TRUNCATED_BOOK},
                 1, id="truncated-book"),
    # JSON nested too deeply to parse, in any file that holds JSON
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": DEEP_JSON, "h.json": HEAD_JSON},
                 (1, "b.json: not valid JSON"), id="book-json-deep"),
    pytest.param(["occlude", *BOOK_HEAD, "-o", "{tmp}/c.csv"],
                 {"b.json": book_json(), "h.json": DEEP_JSON},
                 (1, "h.json: not valid JSON"), id="head-json-deep"),
    pytest.param(PIPELINE_CFG, {"cfg.json": DEEP_JSON},
                 (1, "cfg.json: not valid JSON"), id="config-deep"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.pcmb"],
                 {"b.pcmb": struct.pack("<4s2I", b"PCMB", 2, len(DEEP_JSON))
                  + DEEP_JSON.encode(), "h.json": HEAD_JSON},
                 (1, "b.pcmb: not valid JSON"), id="book-pcmb-header-deep"),
    # JSON integers outside 64 bits, in heads, books and configs
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(), "h.json": json.dumps(
                     {**json.loads(HEAD_JSON), "W1": [[BIG, 0, 0], [0, 0, 0]]})},
                 (1, f"h.json: {INT64}"), id="head-json-w1-beyond-64-bits"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],  # the first centroid's 1.0
                 {"b.json": book_json().replace("1.0", str(BIG), 1),
                  "h.json": HEAD_JSON},
                 (1, f"b.json: {INT64}"), id="book-json-centroid-beyond-64-bits"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(eps=BIG), "h.json": HEAD_JSON},
                 (1, f"b.json: {INT64}"), id="book-json-eps-beyond-64-bits"),
    pytest.param(PIPELINE_CFG, {"cfg.json": f'{{"mining": {{"eps": {BIG}}}}}'},
                 (1, f"cfg.json: {INT64}"), id="config-eps-beyond-64-bits"),
    pytest.param(PIPELINE_CFG, {"cfg.json": f'{{"head": {{"lam": {BIG}}}}}'},
                 (1, f"cfg.json: {INT64}"), id="config-lam-beyond-64-bits"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "-o", "{tmp}/m.json"],
                 {"b.json": book_json(first_entry_with(member_count=BIG))},
                 (1, f"b.json: {INT64}"), id="merge-member-count-beyond-64-bits"),
    pytest.param([*EVAL_BOOK, "{tmp}/b.json"],
                 {"b.json": book_json(PART_2_63), "h.json": HEAD_JSON},
                 (1, f"b.json: {INT64}"), id="eval-part-2-63"),
    pytest.param(["export", *DATA_BOOK, "-o", "{tmp}/c.csv"],
                 {"b.json": book_json(PART_2_63)},
                 (1, f"b.json: {INT64}"), id="export-part-2-63"),
    pytest.param(["train", *DATA_BOOK, "-o", "{tmp}/h.json"],
                 {"b.json": book_json(PART_2_63)},
                 (1, f"b.json: {INT64}"), id="train-part-2-63"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "--data", "{ds}", "-o", "{tmp}/m.json"],
                 {"b.json": book_json(PART_2_63)},
                 (1, f"b.json: {INT64}"), id="merge-data-part-2-63"),
    # a NaN top-level seed is refused by the center-fitting config
    pytest.param(PIPELINE_CFG, {"cfg.json": '{"seed": NaN}'},
                 (1, "seed"), id="config-seed-nan"),
    # a seed of 2^63 could not be written back into a JSON config
    pytest.param(["pipeline", "--data", "{ds}", "--seed", 2**63, "-o", "{tmp}/run"],
                 {}, (1, "seed"), id="pipeline-seed-2-63"),
    pytest.param(["gen", "--seed", 2**63, "-o", "{tmp}/g.pfd"],
                 {}, (1, "seed"), id="gen-seed-2-63"),
    pytest.param(["eval", *MINED_BOOK_HEAD, "--seed", 2**63, "-o", "{tmp}/r.json"],
                 {}, (1, "seed"), id="eval-seed-2-63"),
])
def test_exit_codes(tmp_path, ds_path, capsys, argv, files, code):
    code, named = code if isinstance(code, tuple) else (code, "")
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    art = tmp_path / "art"
    if any("{art}" in str(a) for a in argv):
        art.mkdir()
        assert run("mine", "--data", ds_path, "-o", art / "b.json") == 0
        assert run("train", "--data", ds_path, "--book", art / "b.json",
                   "--epochs", 5, "-o", art / "h.json") == 0
    argv = [str(a).format(ds=ds_path, tmp=tmp_path, art=art) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    err = capsys.readouterr().err
    assert rc == code
    assert "error:" in err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
    if code == 2:
        assert "usage:" in err
