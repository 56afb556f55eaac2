"""``run_pipeline`` fits the prototype centers in a forked child while it
mines, trains and scores: the run directory, the errors and their exit codes
must be what an inline fit gives, and no child may outlive the call."""

import logging
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc

import numpy as np
import pytest

from conceptmine import cli
from conceptmine.cli import (PipelineConfig, main, pipeline_config_from_dict,
                             run_pipeline)
from conceptmine.dataset import SyntheticSpec, generate_synthetic, save_dataset
from conceptmine.errors import ConceptMineError, DivergenceError, ValidationError
from conceptmine.head import HeadTrainConfig
from conceptmine.mining import mine_concepts
from conceptmine.partproto import McmConfig, best_epoch, descend

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the fit is forked only where os.fork exists")

DIVERGED = "stage fit-centers: non-finite MCC loss at epoch 0 (lr=1e+300)"


@pytest.fixture(scope="module")
def ds():
    return generate_synthetic(SyntheticSpec(
        n_classes=3, n_parts=2, feat_dim=8, samples_per_class=20, seed=7))[0]


def small_config() -> PipelineConfig:
    return PipelineConfig(stability_k=2, head=HeadTrainConfig(epochs=3),
                          mcm=McmConfig(epochs=3))


def run_files(ds, outdir) -> dict:
    run_pipeline(ds, small_config(), outdir)
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "inline"])
def fit_mode(request, monkeypatch):
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
    return request.param


def test_inline_fit_writes_the_same_bytes(ds, tmp_path, monkeypatch):
    forked = run_files(ds, tmp_path / "forked")
    assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert run_files(ds, tmp_path / "inline") == forked
    assert "centers.pcmc" in forked


def test_divergence_keeps_type_message_and_attributes(ds, tmp_path, fit_mode):
    cfg = pipeline_config_from_dict({"stability_k": 2, "mcm": {"lr": 1e300}})
    with pytest.raises(DivergenceError) as info:
        run_pipeline(ds, cfg, tmp_path / "run")
    assert str(info.value) == DIVERGED
    assert (info.value.epoch, info.value.lr) == (0, 1e300)
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_divergence_exits_1_without_traceback(ds, tmp_path, capsys, fit_mode):
    save_dataset(ds, tmp_path / "d.pfd")
    (tmp_path / "cfg.json").write_text('{"mcm": {"lr": 1e300}}')
    assert main(["pipeline", "--data", str(tmp_path / "d.pfd"), "--k", "2",
                 "--config", str(tmp_path / "cfg.json"),
                 "-o", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"error: {DIVERGED}" in err
    assert "Traceback" not in err


def test_divergence_error_pickles_with_its_attributes():
    e = pickle.loads(pickle.dumps(DivergenceError("diverged", epoch=4, lr=0.5)))
    assert (type(e), str(e), e.epoch, e.lr) == (DivergenceError, "diverged", 4, 0.5)


@pytest.mark.parametrize("die, why", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
], ids=["exit-3", "sigkill"])
def test_child_dying_without_a_result_is_a_typed_error(
        ds, tmp_path, capsys, monkeypatch, die, why):
    parent = os.getpid()

    def die_in_child(*args, **kwargs):
        assert os.getpid() != parent, "the fit ran in the calling process"
        die()

    monkeypatch.setattr(cli, "descend", die_in_child)
    with pytest.raises(ConceptMineError, match=f"^stage fit-centers: center "
                       rf"fitting ended without a result \({why}\)$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert_no_child()
    save_dataset(ds, tmp_path / "d.pfd")
    assert main(["pipeline", "--data", str(tmp_path / "d.pfd"), "--k", "2",
                 "-o", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert why in err and "Traceback" not in err


def test_stream_cut_after_snapshots_is_a_typed_error(ds, tmp_path, monkeypatch):
    def exit_after_snapshots(ds, cfg, seed):
        yield snapshot_of(ds, 0.0)
        yield snapshot_of(ds, 0.0)
        os._exit(3)

    monkeypatch.setattr(cli, "descend", exit_after_snapshots)
    with pytest.raises(ConceptMineError, match="^stage fit-centers: center "
                       r"fitting ended without a result \(exit status 3\)$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert_no_child()


def failing_mine(*args):
    raise ValidationError("bad book")


def test_later_stage_error_reaps_the_child(ds, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "mine_concepts", failing_mine)
    with pytest.raises(ValidationError, match="^stage mine: bad book$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert_no_child()


def test_later_stage_error_wins_over_a_diverging_fit(ds, tmp_path, monkeypatch,
                                                     fit_mode):
    """The fit is the stage after ``metrics``: a stage that fails first ends
    the run at once, without waiting for a fit that would diverge later."""
    def diverge(*args):
        time.sleep(60)
        raise DivergenceError("diverged", epoch=2, lr=0.1)

    monkeypatch.setattr(cli, "descend", diverge)
    monkeypatch.setattr(cli, "mine_concepts", failing_mine)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="^stage mine: bad book$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert time.perf_counter() - start < 30
    assert_no_child()


def test_later_stage_error_never_scores_the_fit(ds, tmp_path, monkeypatch,
                                                fit_mode):
    """A stage that fails ends the run unscored: the stage's own error is
    raised, ``best_epoch`` never runs and an inline fit never descends."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "best_epoch", counted(best_epoch))
    monkeypatch.setattr(cli, "descend", counted(descend))
    monkeypatch.setattr(cli, "mine_concepts", failing_mine)
    with pytest.raises(ValidationError, match="^stage mine: bad book$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert calls == []
    assert_no_child()


def test_fit_error_after_every_stage_succeeds(ds, tmp_path, monkeypatch,
                                              fit_mode):
    """The fit's error, raised after two snapshots, fails a run whose other
    stages all succeeded: no file is written and no child is left."""
    def diverge_after_snapshots(ds, cfg, seed):
        yield snapshot_of(ds, 0.0)
        yield snapshot_of(ds, 0.0)
        raise DivergenceError("diverged", epoch=2, lr=0.1)

    monkeypatch.setattr(cli, "descend", diverge_after_snapshots)
    with pytest.raises(DivergenceError, match="^stage fit-centers: diverged$") as info:
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert (info.value.epoch, info.value.lr) == (2, 0.1)
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert not list((tmp_path / "run").iterdir())  # no artifact either
    assert_no_child()


@pytest.mark.parametrize("name, stage", [
    ("train_head", "train"), ("metric_report", "metrics"),
    ("save_report", "write-artifacts"),
])
def test_later_stage_error_names_its_stage_once(ds, tmp_path, monkeypatch,
                                                fit_mode, name, stage):
    def fail(*args, **kwargs):
        raise ValidationError("x")

    monkeypatch.setattr(cli, name, fail)
    with pytest.raises(ValidationError, match=f"^stage {stage}: x$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert_no_child()
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_other_exceptions_reap_the_child(ds, tmp_path, monkeypatch, fit_mode,
                                         error):
    """A bug in a later stage, like an interrupt, kills the fit unfinished."""
    def slow_descend(*args, **kwargs):
        time.sleep(60)
        yield from descend(*args, **kwargs)

    monkeypatch.setattr(cli, "descend", slow_descend)

    def fail(*args):
        raise error("stop")

    monkeypatch.setattr(cli, "mine_concepts", fail)
    start = time.perf_counter()
    with pytest.raises(error):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert time.perf_counter() - start < 30
    assert_no_child()


def test_debug_line_reports_the_fit_and_the_wait(ds, tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="conceptmine.cli"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    (line,) = [r.getMessage() for r in caplog.records if r.name == "conceptmine.cli"]
    assert line.startswith("fit-centers: ") and line.endswith(" s waited for it")


# K=2, d_f=8: each pickled snapshot is 278 bytes on the pipe, so this many
# epochs send 2.39 MiB, more than the 1 MiB the pipe is asked to hold.
LONG_EPOCHS = 9000


@pytest.fixture(scope="module")
def tiny():
    return generate_synthetic(SyntheticSpec(
        n_classes=3, n_parts=2, feat_dim=8, samples_per_class=4, seed=7))[0]


def long_fit_files(ds, outdir):
    cfg = PipelineConfig(stability_k=2, head=HeadTrainConfig(epochs=3),
                         mcm=McmConfig(epochs=LONG_EPOCHS))
    run_pipeline(ds, cfg, outdir)
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def on_alarm(*args):
    raise TimeoutError("the pipeline deadlocked")


def test_trajectory_larger_than_the_pipe(tiny, tmp_path, monkeypatch):
    """The child blocks on a full pipe while the parent mines; the parent
    then drains it, and the bytes are the inline fit's."""
    def slow_mine(*args):
        time.sleep(0.5)  # long enough for the child to fill the pipe
        return mine_concepts(*args)

    monkeypatch.setattr(cli, "mine_concepts", slow_mine)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    try:
        forked = long_fit_files(tiny, tmp_path / "forked")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert long_fit_files(tiny, tmp_path / "inline") == forked


def test_parent_memory_does_not_grow_with_epochs(tiny, tmp_path):
    """The parent scores one group of snapshots at a time: a 3,000-epoch
    trajectory (834 KB on the pipe) costs it no more memory than a 10-epoch
    one."""
    peaks = []
    for epochs in (10, 10, 3000):  # the first run warms up; its peak is unused
        cfg = PipelineConfig(stability_k=2, head=HeadTrainConfig(epochs=3),
                             mcm=McmConfig(epochs=epochs))
        tracemalloc.start()
        try:
            run_pipeline(tiny, cfg, tmp_path / f"{len(peaks)}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < peaks[1] + (1 << 16)


def snapshot_of(ds, value):
    return np.full((ds.n_parts, ds.feat_dim), value)


def test_parent_found_divergence_kills_the_child(ds, tmp_path, monkeypatch):
    def diverge_then_hang(ds, cfg, seed):
        yield snapshot_of(ds, 0.0)
        yield snapshot_of(ds, 1e300)  # finite centers, overflowing loss
        time.sleep(60)
        yield snapshot_of(ds, 0.0)

    monkeypatch.setattr(cli, "descend", diverge_then_hang)
    start = time.perf_counter()
    with pytest.raises(DivergenceError, match="^stage fit-centers: non-finite "
                       r"MCC loss at epoch 0 \(lr=0.05\)$"):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert time.perf_counter() - start < 30
    assert_no_child()


@pytest.mark.parametrize("value, error, message", [
    (0.0, ValidationError, "^stage fit-centers: the child's own error$"),
    (1e300, DivergenceError, "^stage fit-centers: non-finite MCC loss at epoch 0"),
], ids=["finite-prefix", "diverged-prefix"])
def test_child_error_after_snapshots(ds, tmp_path, monkeypatch, value, error,
                                     message):
    """A child's error counts only if every snapshot before it scored finite."""
    def fail_after_snapshots(ds, cfg, seed):
        yield snapshot_of(ds, 0.0)
        yield snapshot_of(ds, value)
        raise ValidationError("the child's own error")

    monkeypatch.setattr(cli, "descend", fail_after_snapshots)
    with pytest.raises(error, match=message):
        run_pipeline(ds, small_config(), tmp_path / "run")
    assert_no_child()


def worker_run(ds, outdir):
    assert multiprocessing.current_process().daemon
    return run_files(ds, outdir)


def test_runs_inside_a_daemonic_pool_worker(ds, tmp_path):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        files = pool.apply_async(worker_run, (ds, tmp_path / "worker")).get(60)
    assert files == run_files(ds, tmp_path / "here")
