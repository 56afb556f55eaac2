"""``errors.write_csv``, the one CSV writer: UTF-8, csv's default CRLF
dialect, and each float written as the repr of its float64 value."""

import csv

import numpy as np

from conceptmine.errors import write_csv


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

