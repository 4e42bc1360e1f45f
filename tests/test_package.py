"""Package surface: every exported name resolves, no module imports a
name it never uses, no private definition or module-level name is left
without a reader, nothing is configured through the environment, and
every norm goes through `operators.spectral_norm` and every set of
distance levels through `spaces`."""

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


def test_norms_are_taken_only_in_operators():
    # the one norm path: no module but operators.py computes a norm by itself
    package = Path(roelab.__file__).parent
    pattern = re.compile(r"linalg\.norm\b|svd\([^()]*compute_uv\s*=\s*False")
    takers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py" and pattern.search(path.read_text())
    ]
    assert takers == []


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
