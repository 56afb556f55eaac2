"""The binary container shared by books (PCMB), heads (PCMH) and centers
(PCMC): its layout, byte-exact load/save round trips, and the FormatError
that every malformed or version-1 file raises."""

import inspect
import json
import struct

import numpy as np
import pytest

from conceptmine.errors import FormatError
from conceptmine.head import SparseHead, load_head, save_head
from conceptmine.mining import ConceptBook, ConceptEntry, load_book, save_book
from conceptmine.partproto import PrototypeCenters, load_centers, save_centers

from oracles import pack_container

_rng = np.random.default_rng(5)
CENTROIDS = _rng.normal(size=(3, 4))
W1, W2, B = _rng.normal(size=(3, 2)), _rng.normal(size=(4, 2)), _rng.normal(size=2)
CENTERS = _rng.normal(size=(2, 4))
ENTRIES = [{"class": 0, "part": 0, "local_id": 0, "member_count": 5},
           {"class": 0, "part": 0, "local_id": 1, "member_count": 3},
           {"class": 1, "part": 1, "local_id": 0, "member_count": 7}]
BOOK_META = {"config_hash": "0123456789ab", "eps": 0.3, "min_pts": 3}
HEAD_META = {"config_hash": "0123456789ab", "gamma": 0.5, "lambda": 0.007}

KINDS = ("book", "head", "centers")
MAGIC = {"book": b"PCMB", "head": b"PCMH", "centers": b"PCMC"}
# The documented layout of each kind, built without the package's writer.
EXPECTED = {
    "book": pack_container(b"PCMB", {**BOOK_META, "d_f": 4, "entries": ENTRIES},
                           CENTROIDS),
    "head": pack_container(b"PCMH", HEAD_META, W1, W2, B),
    "centers": pack_container(b"PCMC", {}, CENTERS),
}
# The version-1 layouts, which carried no meta.
VERSION_1 = {
    "book": struct.pack("<4s3I", b"PCMB", 1, 4, 3) + b"".join(
        struct.pack("<4I", e["class"], e["part"], e["local_id"],
                    e["member_count"]) + c.tobytes()
        for e, c in zip(ENTRIES, CENTROIDS)),
    "head": struct.pack("<4s4I2d", b"PCMH", 1, 3, 4, 2, 0.007, 0.5)
    + W1.tobytes() + W2.tobytes() + B.tobytes(),
    "centers": struct.pack("<4s3I", b"PCMC", 1, 2, 4) + CENTERS.tobytes(),
}


def save(kind, path):
    """Write the test object of ``kind`` through the package."""
    if kind == "book":
        book = ConceptBook(4, [ConceptEntry(e["class"], e["part"], e["local_id"],
                                            c, e["member_count"])
                               for e, c in zip(ENTRIES, CENTROIDS)], BOOK_META)
        save_book(book, path, "pcmb")
    elif kind == "head":
        save_head(SparseHead(W1, W2, B, HEAD_META), path, "pcmh")
    else:
        save_centers(PrototypeCenters(CENTERS), path, "pcmc")


def load(kind, path):
    return {"book": lambda: load_book(path, "pcmb"),
            "head": lambda: load_head(path, "pcmh"),
            "centers": lambda: load_centers(path, "pcmc")}[kind]()


def save_loaded(kind, src, dst):
    """Load ``src`` and save it to ``dst``: the object carries its meta."""
    obj = load(kind, src)
    if kind == "book":
        save_book(obj, dst, "pcmb")
    elif kind == "head":
        save_head(obj, dst, "pcmh")
    else:
        save_centers(obj, dst, "pcmc")


@pytest.mark.parametrize("save", [save_book, save_head])
def test_saves_take_no_meta_of_their_own(save):
    """A book or head is its file: a save writes the object's ``meta``."""
    assert list(inspect.signature(save).parameters)[1:] == ["path", "format"]


@pytest.mark.parametrize("kind", KINDS)
def test_layout_and_byte_exact_round_trip(tmp_path, kind):
    path, again = tmp_path / "a.bin", tmp_path / "b.bin"
    save(kind, path)
    assert path.read_bytes() == EXPECTED[kind]
    save_loaded(kind, path, again)
    assert again.read_bytes() == EXPECTED[kind]


def test_loaded_meta_and_arrays(tmp_path):
    for kind in KINDS:
        (tmp_path / kind).write_bytes(EXPECTED[kind])
    book = load("book", tmp_path / "book")
    assert book.meta == BOOK_META
    np.testing.assert_array_equal(book.centroid_matrix(), CENTROIDS)
    assert [(e.class_id, e.part, e.local_id, e.member_count)
            for e in book.entries] == [tuple(e.values()) for e in ENTRIES]
    head = load("head", tmp_path / "head")
    assert head.meta == HEAD_META
    for got, want in ((head.W1, W1), (head.W2, W2), (head.b, B)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(load("centers", tmp_path / "centers").centers,
                                  CENTERS)


@pytest.mark.parametrize("kind", KINDS)
def test_version_1_refused(tmp_path, kind):
    path = tmp_path / "v1.bin"
    path.write_bytes(VERSION_1[kind])
    with pytest.raises(FormatError, match="version 1 is not supported"):
        load(kind, path)


def _prefixed(magic, text: bytes, payload: bytes = b"") -> bytes:
    return struct.pack("<4sII", magic, 2, len(text)) + text + payload


CORRUPTIONS = {
    "empty": lambda kind, raw: b"",
    "short-prefix": lambda kind, raw: raw[:11],
    "truncated": lambda kind, raw: raw[:-8],
    "truncated-header": lambda kind, raw: raw[:20],
    "trailing-bytes": lambda kind, raw: raw + bytes(8),
    "other-magic": lambda kind, raw: (b"PCMC" if kind == "book" else b"PCMB")
    + raw[4:],
    "header-not-json": lambda kind, raw: _prefixed(MAGIC[kind], b"{x}"),
    "header-not-utf8": lambda kind, raw: _prefixed(MAGIC[kind], b'{"\xff": 1}'),
    "header-not-object": lambda kind, raw: _prefixed(MAGIC[kind], b"[]"),
    "no-shapes": lambda kind, raw: _prefixed(
        MAGIC[kind], json.dumps({"d_f": 4, "entries": []}).encode()),
    "too-many-shapes": lambda kind, raw: pack_container(
        MAGIC[kind], {"d_f": 4, "entries": ENTRIES}, *[CENTROIDS] * 4),
    "negative-dim": lambda kind, raw: _prefixed(
        MAGIC[kind], json.dumps({"shapes": [[-1]] * (3 if kind == "head" else 1)
                                 }).encode()),
    "bool-dim": lambda kind, raw: _prefixed(
        MAGIC[kind], json.dumps({"shapes": [[True]] * (3 if kind == "head" else 1)
                                 }).encode(), bytes(8 * (3 if kind == "head" else 1))),
    "huge-empty-dim": lambda kind, raw: _prefixed(
        MAGIC[kind], json.dumps({"shapes": [[0, 2**62, 2**62]] * (
            3 if kind == "head" else 1)}).encode()),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind", KINDS)
def test_malformed_file_is_a_format_error(tmp_path, kind, corruption):
    path = tmp_path / "bad.bin"
    path.write_bytes(CORRUPTIONS[corruption](kind, EXPECTED[kind]))
    with pytest.raises(FormatError, match="bad.bin"):
        load(kind, path)


@pytest.mark.parametrize("entries", [ENTRIES[:2], ENTRIES + ENTRIES[:1], "x",
                                     [{"class": 0}] * 3])
def test_book_entries_must_match_centroid_rows(tmp_path, entries):
    path = tmp_path / "bad.pcmb"
    path.write_bytes(pack_container(b"PCMB", {"d_f": 4, "entries": entries},
                                    CENTROIDS))
    with pytest.raises(FormatError, match="bad.pcmb"):
        load_book(path, "pcmb")
