"""The layout of the code: every line of the package, its tests and its demos is at most
99 columns and ends without whitespace, so a shorter line count cannot come from packing
code more densely. The pinned outputs under tests/reference are data and keep their bytes.
Every name a package or demo module imports is read in it (the package's `__init__`
re-exports are exempt), so no import outlives the code that used it. The Monte-Carlo modules
form every product with `linalg.matmul`, never with `@`."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))
IMPORTERS = [path for path in SOURCES
             if path.relative_to(ROOT).parts[0] != "tests" and path.name != "__init__.py"]


def test_every_code_folder_is_checked():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_lines_fit_99_columns_without_trailing_whitespace(path):
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path.relative_to(ROOT)}:{number}"
        assert len(line) <= 99, f"{where} is {len(line)} columns"
        assert line == line.rstrip(), f"{where} ends in whitespace"


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, f"{path.relative_to(ROOT)} never reads {sorted(imported - read)}"


@pytest.mark.parametrize("module", ["montecarlo", "harvesting", "transfer"])
def test_monte_carlo_products_go_through_the_one_kernel(module):
    # every small product on the Monte-Carlo path is `linalg.matmul`, none numpy's `@`
    tree = ast.parse((ROOT / "src" / "swiptmimo" / f"{module}.py").read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not lines, f"{module}.py multiplies with @ on lines {lines}"
