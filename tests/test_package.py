"""Package surface: every exported name resolves, no module imports a
name it never uses, no private definition or module-level name is left
without a reader, no module imports another's private name, nothing is
configured through the environment, no check is an `assert`, every
norm and Gram top goes through `operators`, every set of distance
levels through `spaces`, and every JSON text through `serialize`."""

import ast
import re
from pathlib import Path

import roelab


def test_all_exports_resolve():
    missing = [name for name in roelab.__all__ if not hasattr(roelab, name)]
    assert missing == []
    assert len(set(roelab.__all__)) == len(roelab.__all__)


def test_no_unused_imports():
    # the lint step: an imported name must be used in its module or re-exported
    package = Path(roelab.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = {elt.value for elt in node.value.elts}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used and name not in exported
        ]
    assert unused == []


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_private_definitions_are_referenced():
    # the lint step for dead code: a module-level _function or _Class must be
    # named somewhere in the package besides its own definition, and a
    # module-level assigned name (a constant, say) must be read somewhere in
    # the package or be listed in its module's __all__
    package = Path(roelab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = []
    for name, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and node.name not in referenced:
                    unreferenced.append(f"{name}:{node.lineno} {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                unreferenced += [
                    f"{name}:{node.lineno} {target.id}"
                    for target in _assigned_names(node)
                    if not (target.id.startswith("__") and target.id.endswith("__"))
                    and target.id not in referenced
                    and target.id not in exported
                ]
    assert unreferenced == []


def test_no_module_reads_the_environment():
    # configuration stays in command-line arguments, where a report's scenario can record it
    package = Path(roelab.__file__).parent
    readers = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == []


_NORM_TAKER = re.compile(r"linalg\.(norm|eigvalsh)\b|svd\([^()]*compute_uv\s*=\s*False")


def _norm_takers(name, text):
    # matched over the whole text, so a call wrapped over lines is found;
    # each match is reported at the line where it starts
    return [f"{name}:{text.count(chr(10), 0, m.start()) + 1}" for m in _NORM_TAKER.finditer(text)]


def test_norms_are_taken_only_in_operators():
    # the one norm path: no module but operators.py computes a norm or a
    # Hermitian top eigenvalue by itself (`spectral_norm`, `gram_top`)
    package = Path(roelab.__file__).parent
    takers = [
        taker
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for taker in _norm_takers(path.name, path.read_text())
    ]
    assert takers == []


def test_norm_lint_finds_calls_wrapped_over_lines():
    text = "x = 1\ntop = np.linalg.svd(\n    mat, compute_uv=False\n)[0]\ne = np.linalg.eigvalsh(g)\n"
    assert _norm_takers("m.py", text) == ["m.py:2", "m.py:5"]


def _json_writers(name, text):
    # read from the syntax tree, so a call wrapped over lines is found
    # like any other; `from json import dumps` counts as a call
    tree = ast.parse(text)
    calls = [
        f"{name}:{node.lineno} json.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]
    imports = [
        f"{name}:{node.lineno} json.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("dump", "dumps")
    ]
    return calls + imports


def _dataclass_serializers(name, text):
    # a report is its dataclass's fields: none writes its own JSON
    def is_dataclass(decorator):
        decorator = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"

    return [
        f"{name}:{item.lineno} {node.name}.to_json"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "to_json"
    ]


def test_reports_are_encoded_only_in_serialize():
    # one encoder: `serialize.report_bytes` turns report dataclasses into
    # JSON; the file forms of spaces and maps (`to_json` on plain classes)
    # are dicts that it writes
    package = Path(roelab.__file__).parent
    writers, serializers = [], []
    for path in sorted(package.rglob("*.py")):
        name, text = str(path.relative_to(package)), path.read_text()
        if name != "serialize.py":
            writers += _json_writers(name, text)
        serializers += _dataclass_serializers(name, text)
    assert writers == []
    assert serializers == []


def test_encoder_lint_finds_calls_wrapped_over_lines():
    text = (
        "import json\n"
        "from json import dumps as d\n"
        "from dataclasses import dataclass\n"
        "text = json.dumps(\n    data, indent=2\n)\n"
        "json.dump(data, fh)\n"
        "json.loads(text)\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    x: int\n"
        "    def to_json(self):\n"
        "        return {'x': self.x}\n"
        "class Space:\n"
        "    def to_json(self):\n"
        "        return {}\n"
    )
    assert _json_writers("m.py", text) == ["m.py:4 json.dumps", "m.py:7 json.dump", "m.py:2 json.dumps"]
    assert _dataclass_serializers("m.py", text) == ["m.py:12 Report.to_json"]


def _private_imports(name, text):
    # read from the syntax tree, so an import wrapped over lines is found
    # like any other; reported at the line where the import starts
    return [
        f"{name}:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_module_imports_a_private_name():
    # one home per kernel: a name another module needs is public there
    package = Path(roelab.__file__).parent
    importers = [
        importer
        for path in sorted(package.rglob("*.py"))
        for importer in _private_imports(str(path.relative_to(package)), path.read_text())
    ]
    assert importers == []


def test_private_import_lint_finds_imports_wrapped_over_lines():
    text = (
        "from __future__ import annotations\n"
        "from .operators import (\n    BlockOperator,\n    _gram_top_2x2,\n)\n"
        "from .extraction import corner_norm_table, _TIE_TOL\n"
        "from numpy import _globals\n"
        "from . import __version__\n"
    )
    assert _private_imports("m.py", text) == ["m.py:2 _gram_top_2x2", "m.py:6 _TIE_TOL"]


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check the package relies
    # on raises an exception instead
    package = Path(roelab.__file__).parent
    asserts = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_distance_levels_are_taken_only_in_spaces():
    # one home of distance levels: a space computes and stores its own, so
    # no module but spaces.py runs np.unique over a distance matrix
    package = Path(roelab.__file__).parent
    pattern = re.compile(r"np\.unique\([^()]*\.dist\b")
    takers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "spaces.py" and pattern.search(path.read_text())
    ]
    assert takers == []
