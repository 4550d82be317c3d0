"""The suite table: each ``[suite]`` check kind is one row of
``config.suite_kinds()``, and nothing else knows the kinds.

* each row parses from its required fields alone, rejects an unknown field
  at its line, names a missing required field and an operator of the wrong
  class;
* README's suite table states each row's fields, defaults and classes;
* no comparison in the package names a suite kind.
"""

import ast
import re
from pathlib import Path

import pytest

from recurlab.cli import main
from recurlab.config import parse_config, suite_kinds
from recurlab.operators import Diagonal, Matrix

ROOT = Path(__file__).resolve().parents[1]
KINDS = suite_kinds()

# a literal for each required field, by key and the class its value must have
REQUIRED = {
    ("operator", object): "blockcycle",
    ("operator", Matrix): "matrix([[0,-1],[1,0]])",
    ("operator", Diagonal): "diag(rot(1/4))",
    ("vector", object): "vec(sparse: 1:1)",
    ("reference", object): "vec(sparse: 2:1)",
    ("turns", object): "1/4",
}


def required_only(kind) -> list[str]:
    return [f"[suite {kind.name}]", f"check = {kind.name}",
            *(f"{f.key} = {REQUIRED[f.key, f.cls]}" for f in kind.fields if f.default is None)]


@pytest.mark.parametrize("name", list(KINDS))
def test_each_row_reads_its_fields(name, tmp_path, capsys):
    kind = KINDS[name]
    lines = required_only(kind)
    [suite] = parse_config("\n".join(lines)).suites
    assert suite.run.func is kind.check

    def run(config_lines):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("\n".join(config_lines) + "\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    code, err = run([*lines[:2], "bogus = 1", *lines[2:]])
    assert code == 2 and f"line 3: suite '{name}' has no field 'bogus'" in err
    for i, line in enumerate(lines[2:], start=2):
        key = line.split(" = ")[0]
        code, err = run(lines[:i] + lines[i + 1:])
        assert code == 2 and f"line 1: suite '{name}' needs {key}=" in err
    for f in kind.fields:
        if f.cls is not object:
            code, err = run([line.replace(REQUIRED[f.key, f.cls], "blockcycle")
                             for line in lines])
            assert code == 2 and f"needs a {f.cls.__name__} {f.key}" in err
    assert not (tmp_path / "out").exists()


# `key` (required), `key` (required, a `Class`) or `key` (`default`)
FIELD = re.compile(r"`(\w+)` \((?:required(?:, a `(\w+)`)?|`([^`]*)`)\)")


def readme_suite_rows() -> dict[str, str]:
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| `check` |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kind, fields = (cell.strip() for cell in line.strip("|").split("|"))
        rows[kind.strip("`")] = fields
    return rows


def test_readme_suite_table_matches_the_rows():
    rows = readme_suite_rows()
    assert list(rows) == list(KINDS)
    for name, cell in rows.items():
        assert FIELD.sub("", cell).replace(",", "").strip() == "", cell
        stated = [(key, default or None, cls or "object")
                  for key, cls, default in FIELD.findall(cell)]
        assert stated == [(f.key, f.default, f.cls.__name__) for f in KINDS[name].fields]


def test_no_comparison_names_a_suite_kind():
    for path in sorted((ROOT / "src" / "recurlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Compare, ast.MatchValue)):
                named = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
                assert not named & set(KINDS), f"{path.name}:{node.lineno}"
