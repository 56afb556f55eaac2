import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from conceptmine.cav import compute_cav_batch
from conceptmine.cli import PipelineConfig, main, pipeline_config_from_dict
from conceptmine.errors import ValidationError
from conceptmine.dataset import load_dataset
from conceptmine.head import HeadTrainConfig, save_head, train_head
from conceptmine.mining import DbscanParams, mine_concepts, save_book


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_artifacts_equal_one_mine_and_one_training_run(self, tmp_path,
                                                            ds_path, artifacts):
        ds = load_dataset(ds_path)
        cfg = HeadTrainConfig(epochs=30)
        book = mine_concepts(ds, DbscanParams(eps=0.3, min_pts=3))
        z, g = compute_cav_batch(ds, book)
        head = train_head(z, g, ds.labels,
                          replace(cfg, lr=cfg.beta * cfg.lr))
        save_book(book, tmp_path / "book.pcmb", "pcmb")
        save_head(head, tmp_path / "head.pcmh", "pcmh", lam=cfg.lam,
                  gamma=cfg.gamma)
        for name in ("book.pcmb", "head.pcmh"):
            assert (artifacts / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name

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

    def test_mcm_seed_must_equal_seed(self):
        with pytest.raises(ValidationError, match="mcm.seed"):
            pipeline_config_from_dict({"seed": 3, "mcm": {"seed": 5}})
        with pytest.raises(ValidationError, match="mcm.seed"):
            pipeline_config_from_dict({"mcm": {"seed": 1}})

    def test_config_dict_round_trips(self):
        cfg = pipeline_config_from_dict({"seed": 4, "stability_k": 3,
                                         "faithfulness_ns": [0, 2]})
        assert cfg.to_dict()["mcm"]["seed"] == 4
        again = pipeline_config_from_dict(cfg.to_dict())
        assert isinstance(again, PipelineConfig)
        assert again.to_dict() == cfg.to_dict()

    def test_seed_flag_overrides_mcm_seed_of_saved_config(self, tmp_path,
                                                          ds_path):
        cfg = pipeline_config_from_dict({"seed": 1, "stability_k": 4,
                                         "head": {"epochs": 5}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "reseeded"
        assert run("pipeline", "--data", ds_path, "--config", cfg_path,
                   "--seed", 9, "-o", out) == 0
        config = json.load(open(out / "manifest.json"))["config"]
        assert config["seed"] == config["mcm"]["seed"] == 9

    def test_missing_data_runtime_error(self, tmp_path, capsys):
        rc = run("pipeline", "--data", tmp_path / "nope.pfd", "-o",
                 tmp_path / "x")
        assert rc == 1


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


# Command lines for the exit-code table; {ds} is a valid dataset and {tmp}
# the test's directory, where the case's files are written first.
DATA_BOOK = ["--data", "{ds}", "--book", "{tmp}/b.json"]
BOOK_HEAD = [*DATA_BOOK, "--head", "{tmp}/h.json"]
PIPELINE_CFG = ["pipeline", "--data", "{ds}", "--config", "{tmp}/cfg.json",
                "-o", "{tmp}/run"]
TRUNCATED_BOOK = '{"d_f": 16, "entries": [{"class": 0, "part": 0, "centr'


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
                 1, id="config-mcm-seed-differs"),
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
    # malformed book JSON
    pytest.param(["eval", *BOOK_HEAD, "-o", "{tmp}/r.json"],
                 {"b.json": '{"d_f": 16}'}, 1, id="book-without-entries"),
    pytest.param(["merge", "--book", "{tmp}/b.json", "--threshold", 5,
                  "-o", "{tmp}/m.json"], {"b.json": TRUNCATED_BOOK},
                 1, id="truncated-book"),
])
def test_exit_codes(tmp_path, ds_path, capsys, argv, files, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(a).format(ds=ds_path, tmp=tmp_path) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    err = capsys.readouterr().err
    assert rc == code
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
    if code == 2:
        assert "usage:" in err
