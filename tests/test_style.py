"""The layout of the code: every line of the package, its tests and its demos is at most
99 columns and ends without whitespace, so a shorter line count cannot come from packing
code more densely. The pinned outputs under tests/reference are data and keep their bytes."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def test_every_code_folder_is_checked():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_lines_fit_99_columns_without_trailing_whitespace(path):
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path.relative_to(ROOT)}:{number}"
        assert len(line) <= 99, f"{where} is {len(line)} columns"
        assert line == line.rstrip(), f"{where} ends in whitespace"
