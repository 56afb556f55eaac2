"""The one writer of each format: ``errors.write_csv`` (UTF-8, csv's
default CRLF dialect, each float written as the repr of its float64 value)
and ``errors.write_json`` (the bytes of the streaming ``json.dump`` form)."""

import csv
import io
import json

import numpy as np
import pytest

from conceptmine.errors import write_csv, write_json


def test_write_csv_float32_rows_read_back_as_float64(tmp_path):
    values = np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32)
    path = tmp_path / "v.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], values.tolist())
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 5 and raw.count(b"\n") == 5
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["a", "b", "c", "d", "e"]
    assert [[float(v) for v in row] for row in rows] == \
        values.astype(np.float64).tolist()


@pytest.mark.parametrize("indent", [None, 2])
def test_write_json_bytes_equal_the_streamed_form(tmp_path, indent):
    payload = {"z": [0.1, -0.0, 1e-300, 2.5e16, 3, -7, True, False, None],
               "name": "Kö-ñ ✓ 概念", "nested": {"b": [[], {}], "a": {"x": 1.0}},
               "big": 2**63 - 1}
    stream = io.StringIO()
    json.dump(payload, stream, sort_keys=True, indent=indent)
    path = tmp_path / "p.json"
    write_json(path, payload, indent=indent)
    assert path.read_bytes() == stream.getvalue().encode("utf-8")
