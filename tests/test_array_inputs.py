"""Every public entry point that takes an array converts it through
``errors.check_array``: a string, a ragged list or an array of the wrong
rank is refused with ValidationError, as is a NaN wherever finiteness is
checked, never a bare ValueError, TypeError, OverflowError or IndexError."""

import os

import numpy as np
import pytest

from conceptmine.cav import compute_cav, export_cav_csv
from conceptmine.dataset import PartFeatureDataset, subset
from conceptmine.errors import ValidationError, check_array
from conceptmine.head import (HeadTrainConfig, SparseHead, accuracy,
                              concept_contributions, elastic_net_penalty,
                              head_forward, predict, train_head)
from conceptmine.mining import (ConceptBook, ConceptEntry, MiningConfig,
                                dbscan, mine_concepts)
from conceptmine.occlusion import occlude_sample
from conceptmine.partproto import (McmConfig, PrototypeCenters, best_epoch,
                                   mcc_gradients, mcc_loss)
from conceptmine.xaimetrics import (consistency, faithfulness, hungarian,
                                    sparseness)

# Two classes, d_c = 2 concepts (one per part), K = 2 parts, d_f = 3.
HEAD = SparseHead(np.eye(2), np.zeros((3, 2)), np.zeros(2))
BOOK = ConceptBook(3, [ConceptEntry(0, 0, 0, np.array([1.0, 0.0, 0.0]), 1),
                       ConceptEntry(1, 1, 0, np.array([0.0, 1.0, 0.0]), 1)])
CENTERS = PrototypeCenters(np.zeros((2, 3)))
Z, G, Y = np.full((4, 2), 0.5), np.zeros((4, 3)), np.array([0, 1, 0, 1])
PARTS, NONPROTO = np.ones((4, 2, 3)), np.zeros((4, 3))
DATA = PartFeatureDataset(PARTS, NONPROTO, Y, 2)

# id: (a valid value, the call with that value replaced, finiteness checked)
ENTRY_POINTS = {
    "PrototypeCenters": (np.zeros((2, 3)), PrototypeCenters, True),
    "mcc_loss": (PARTS, lambda v: mcc_loss(v, CENTERS, 0.3, 1.5), False),
    "mcc_gradients": (PARTS, lambda v: mcc_gradients(v, CENTERS, 0.3, 1.5), False),
    "best_epoch": (CENTERS.centers, lambda v: best_epoch(DATA, McmConfig(), [v]),
                   False),
    "SparseHead.W1": (np.eye(2), lambda v: SparseHead(v, HEAD.W2, HEAD.b), True),
    "SparseHead.W2": (HEAD.W2, lambda v: SparseHead(HEAD.W1, v, HEAD.b), True),
    "SparseHead.b": (HEAD.b, lambda v: SparseHead(HEAD.W1, HEAD.W2, v), True),
    "predict.z": (Z, lambda v: predict(v, G, HEAD), False),
    "predict.g": (G, lambda v: predict(Z, v, HEAD), False),
    "accuracy.labels": (Y, lambda v: accuracy(Z, G, v, HEAD), False),
    "head_forward.z": (Z[0], lambda v: head_forward(v, G[0], HEAD), False),
    "head_forward.g": (G[0], lambda v: head_forward(Z[0], v, HEAD), False),
    "concept_contributions": (Z[0], lambda v: concept_contributions(v, HEAD, 0),
                              False),
    "elastic_net_penalty": (np.eye(2), lambda v: elastic_net_penalty(v, 0.1, 0.5),
                            False),
    "train_head.cavs": (Z, lambda v: train_head(v, G, Y, HeadTrainConfig(epochs=1)),
                        False),
    "train_head.gs": (G, lambda v: train_head(Z, v, Y, HeadTrainConfig(epochs=1)),
                      False),
    "train_head.labels": (Y, lambda v: train_head(Z, G, v, HeadTrainConfig(epochs=1)),
                          False),
    "dbscan": (PARTS[:, 0], lambda v: dbscan(v, MiningConfig(eps=0.5)), True),
    "mine_concepts.folds": (np.arange(4), lambda v: mine_concepts(
        DATA, MiningConfig(), folds=[np.arange(4), v]), False),
    "hungarian": (np.eye(2), hungarian, True),
    "compute_cav.sample_parts": (PARTS[0], lambda v: compute_cav(v, G[0], BOOK),
                                 False),
    "compute_cav.g": (G[0], lambda v: compute_cav(PARTS[0], v, BOOK), False),
    "export_cav_csv.z": (Z, lambda v: export_cav_csv(v, G, Y, os.devnull), False),
    "export_cav_csv.g": (G, lambda v: export_cav_csv(Z, v, Y, os.devnull), False),
    "export_cav_csv.labels": (Y, lambda v: export_cav_csv(Z, G, v, os.devnull),
                              False),
    "occlude_sample.sample_parts": (PARTS[0], lambda v: occlude_sample(
        v, G[0], HEAD, BOOK, 0.5), False),
    "occlude_sample.g": (G[0], lambda v: occlude_sample(
        PARTS[0], v, HEAD, BOOK, 0.5), False),
    "consistency.cavs": (Z, lambda v: consistency(v, Y), False),
    "consistency.labels": (Y, lambda v: consistency(Z, v), False),
    "sparseness": (Z, sparseness, False),
    "faithfulness.cavs": (Z, lambda v: faithfulness(v, G, Y, HEAD, BOOK, [1]), False),
    "faithfulness.gs": (G, lambda v: faithfulness(Z, v, Y, HEAD, BOOK, [1]), False),
    "faithfulness.labels": (Y, lambda v: faithfulness(Z, G, v, HEAD, BOOK, [1]),
                            False),
    "PartFeatureDataset.part_features": (PARTS, lambda v: PartFeatureDataset(
        v, NONPROTO, Y, 2), True),
    "PartFeatureDataset.nonproto_features": (NONPROTO, lambda v: PartFeatureDataset(
        PARTS, v, Y, 2), True),
    "PartFeatureDataset.labels": (Y, lambda v: PartFeatureDataset(
        PARTS, NONPROTO, v, 2), False),
    "subset": (np.arange(4), lambda v: subset(DATA, v), False),
}


def _with_nan(value):
    value = np.array(value, dtype=np.float64)
    value.flat[0] = np.nan
    return value


BAD = {"string": lambda valid: "abc",
       "ragged": lambda valid: [[1.0, 2.0], [3.0]],
       "wrong-rank": lambda valid: np.asarray(valid)[None],
       "nan": _with_nan}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_accepts_its_valid_value(entry):
    valid, call, _ = ENTRY_POINTS[entry]
    call(valid)


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, finite) in ENTRY_POINTS.items()
    for bad in BAD if finite or bad != "nan"])
def test_each_entry_point_refuses_a_malformed_array(entry, bad):
    valid, call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError):
        call(BAD[bad](valid))


def test_dataset_refuses_a_negative_label_in_a_list():
    # np.asarray([-1, ...], dtype=np.uint32) raises OverflowError.
    with pytest.raises(ValidationError, match="^labels must be a 1-D array"):
        PartFeatureDataset(PARTS, NONPROTO, [0, 1, -1, 0], 2)


class TestCheckArray:
    @pytest.mark.parametrize("value", [["1", "2"], np.array(["1.5"]),
                                       np.array([1.0], dtype=object),
                                       np.array([1j])],
                             ids=["str-list", "str-array", "object", "complex"])
    def test_refuses_a_non_real_dtype(self, value):
        with pytest.raises(ValidationError, match=r"x must be a 1-D array of "
                                                  r"real numbers, got dtype"):
            check_array("x", value, 1)

    def test_names_the_rank_and_finiteness(self):
        with pytest.raises(ValidationError, match=r"^x must be a finite 2-D "
                                                  r"array of real numbers, got "
                                                  r"shape \(3,\)$"):
            check_array("x", np.zeros(3), 2, finite=True)
        with pytest.raises(ValidationError, match="got a non-finite entry$"):
            check_array("x", [[0.0, np.inf]], 2, finite=True)

    def test_converts_like_asarray(self):
        a = np.zeros((2, 3))
        assert check_array("x", a, 2) is a
        b = np.arange(3, dtype=np.float32)
        assert check_array("x", b, 1, dtype=None) is b
        got = check_array("x", [1, 2, 3], 1, np.uint32)
        assert got.dtype == np.uint32 and got.tolist() == [1, 2, 3]
        assert check_array("x", [[np.nan]], 2).shape == (1, 1)  # not finite=True
