"""Corrupt artifact files fed through the CLI: every run ends in a handled
error (exit 1, or 2 for usage) or, when the damage leaves a valid file,
exits 0. No other exception may escape ``main``."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conceptmine.cli import main

# The artifact kinds, and the subcommands that read each of them.
READERS = {
    "data.pfd": ("eval", "occlude", "merge"),
    "data.csv": ("mine", "export"),
    "book.json": ("eval", "occlude", "merge"),
    "book.pcmb": ("eval", "occlude", "merge"),
    "head.json": ("eval", "occlude"),
    "head.pcmh": ("eval", "occlude"),
}
HEADS = {"book.json": "head.json", "book.pcmb": "head.pcmh"}


def run(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse usage errors
        return e.code


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of a small valid dataset (PFD and CSV), JSON and binary
    books, and heads."""
    d = tmp_path_factory.mktemp("fuzz-originals")
    assert run("gen", "--classes", 3, "--parts", 2, "--dim", 4,
               "--per-class", 6, "--seed", 1, "-o", d / "data.pfd") == 0
    assert run("export", "--data", d / "data.pfd", "-o", d / "data.csv") == 0
    for book, head in HEADS.items():
        assert run("mine", "--data", d / "data.pfd", "-o", d / book) == 0
        assert run("train", "--data", d / "data.pfd", "--book", d / book,
                   "--epochs", 3, "-o", d / head) == 0
    return {name: (d / name).read_bytes() for name in READERS}


def _argv(command: str, d: Path, book: str) -> list:
    head = HEADS[book]
    if command in ("mine", "export"):
        out = "out.json" if command == "mine" else "out.pfd"
        return [command, "--data", d / "data.csv", "-o", d / out]
    if command == "merge":
        return ["merge", "--book", d / book, "--threshold", 20, "--data",
                d / "data.pfd", "--epochs", 3, "-o", d / ("merged." + book)]
    argv = [command, "--data", d / "data.pfd", "--book", d / book,
            "--head", d / head, "-o", d / "out"]
    return argv + (["--k", 2] if command == "eval" else [])


@st.composite
def corruptions(draw, originals):
    """(file name, corrupted bytes, subcommand): a truncation or a bit flip."""
    name = draw(st.sampled_from(sorted(READERS)))
    raw = originals[name]
    if draw(st.booleans()):
        corrupt = raw[:draw(st.integers(0, len(raw) - 1))]
    else:
        pos = draw(st.integers(0, len(raw) - 1))
        corrupt = bytearray(raw)
        corrupt[pos] ^= 1 << draw(st.integers(0, 7))
        corrupt = bytes(corrupt)
    return name, corrupt, draw(st.sampled_from(READERS[name]))


@settings(max_examples=144, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_artifacts_fail_cleanly(originals, data):
    name, corrupt, command = data.draw(corruptions(originals))
    # The binary book and head go together, as do the JSON ones.
    book = next((b for b, h in HEADS.items() if name in (b, h)), "book.json")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other, raw in originals.items():
            (d / other).write_bytes(corrupt if other == name else raw)
        rc = run(*_argv(command, d, book))
    assert rc in (0, 1, 2)
