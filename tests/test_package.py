"""The package surface: every export serves the package or the README,
and the README's quick start runs as written."""

import ast
import re
import warnings

from helpers import REPO

SRC = REPO / "src" / "wmethod"
README = REPO / "README.md"


def exports() -> set[str]:
    """The public names that wmethod/__init__.py binds."""
    names = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_by_the_package() -> set[str]:
    """Every name that a module of the package other than __init__.py reads,
    bare or as an attribute."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def named_in_readme() -> set[str]:
    """Every identifier inside a code span or code block of README.md."""
    spans = re.findall(r"`+([^`]+)`+", README.read_text())
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_export_is_used_by_the_package_or_named_in_the_readme():
    # the installed package holds no code that only the tests use
    assert sorted(exports() - read_by_the_package() - named_in_readme()) == []


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_closes_its_files(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a file left open warns when it is dropped
        exec(compile(quick_start(), str(README), "exec"), {})
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().out == "['1 1 c e']\nFalse 1 1 c e\n"
