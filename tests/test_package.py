"""Package surface: every exported name resolves, no module imports a
name it never uses, no private definition or module-level name is left
without a reader and no public one without a caller or a stated reason,
no module imports another's private name, nothing is configured through
the environment, no check is an `assert`, every norm and Gram top goes
through `operators` and every split of a matrix into components through
`spectral_norm`, every set of distance levels, every integer check and
every real-number check through `spaces`, every JSON text through
`serialize` and every report value through its one hook, and the
README's quick start runs as printed."""

import ast
import contextlib
import io
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


# public names that nothing in the package or the benchmark names, each with
# the reason it stays
_UNREACHED_BUT_KEPT = {
    "BlockOperator.propagation": "acceptance criteria 4-5; ROADMAP item 11 gives it callers",
    "supported_distance_upper": "acceptance criterion 5",
    "upgrade_trick": "acceptance criterion 6, the paper's upgrade step",
    "BlockOperator.supported_mask": "acceptance criteria 7-8; the tests' reference for `_tail_norm`",
    "save_map": "writes the map file that `cover --map` reads",
    "minimal_radius": "roebench traces it by name, and README documents it",
}


def _public_definitions(module, tree):
    """(label, name, node, reference kinds) for every public module-level
    function or class and every public non-dunder method of a public
    class.  A method is reached as an attribute; a function or class as
    a name or as an attribute of its module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name, node, (ast.Name, ast.Attribute)))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((f"{node.name}.{item.name}", item.name, item, (ast.Attribute,)))
    return found


def _references(tree, kinds):
    for node in ast.walk(tree):
        if isinstance(node, kinds) and not isinstance(node.ctx, ast.Store):
            yield node.id if isinstance(node, ast.Name) else node.attr


def _unreached_public_names(package_texts, caller_texts):
    """Public definitions of the package's modules that no module of either
    set names outside the definition itself, by module:line and name."""
    trees = {name: ast.parse(text) for name, text in {**caller_texts, **package_texts}.items()}
    unreached = []
    for module in package_texts:
        for label, name, node, kinds in _public_definitions(module, trees[module]):
            named = sum(ref == name for tree in trees.values() for ref in _references(tree, kinds))
            if named == sum(ref == name for ref in _references(node, kinds)):
                unreached.append(f"{module}:{node.lineno} {label}")
    return unreached


def _package_and_benchmark_texts():
    package = Path(roelab.__file__).parent
    benchmark = package.parents[1] / "roebench"
    return (
        {path.name: path.read_text() for path in sorted(package.glob("*.py"))},
        {f"roebench/{path.name}": path.read_text() for path in sorted(benchmark.glob("*.py"))},
    )


def test_public_names_are_reached():
    # the public API is what the program calls: a public function, class
    # or method that no module of the package or the benchmark names is
    # dead code or a test helper, unless the allowlist says why it stays
    unreached = _unreached_public_names(*_package_and_benchmark_texts())
    assert sorted(label.split()[1] for label in unreached) == sorted(_UNREACHED_BUT_KEPT)


def test_public_name_lint_finds_a_planted_method():
    package_texts, benchmark_texts = _package_and_benchmark_texts()
    text = package_texts["spaces.py"]
    anchor = "    def realized_distances(self)"
    planted = text.replace(anchor, "    def planted_size(self):\n        return self.n\n\n" + anchor)
    before = _unreached_public_names({"spaces.py": text}, {**package_texts, **benchmark_texts})
    after = _unreached_public_names({"spaces.py": planted}, {**package_texts, **benchmark_texts})
    assert before == []
    assert [label.split()[1] for label in after] == ["FiniteMetricSpace.planted_size"]


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


# the functions of operators.py that may call each decomposition
_DECOMPOSITION_HOMES = {"eigvalsh": {"gram_top", "_residual"}, "svd": {"spectral_norm"}}


def _holder(text):
    """The innermost function holding a line of text, or None."""
    functions = [
        (node.lineno, node.end_lineno, node.name)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    def holder(line):
        holders = [(start, fn) for start, end, fn in functions if start <= line <= end]
        return max(holders)[1] if holders else None

    return holder


def _stray_decompositions(name, text):
    # an eigvalsh or singular-value call outside its home, reported at the
    # line where it starts with the innermost function holding it
    holder = _holder(text)
    strays = []
    for match in _NORM_TAKER.finditer(text):
        kind = match.group(1) or "svd"
        if kind not in _DECOMPOSITION_HOMES:
            continue
        line = text.count("\n", 0, match.start()) + 1
        home = holder(line)
        if home not in _DECOMPOSITION_HOMES[kind]:
            strays.append(f"{name}:{line} {kind} in {home}")
    return strays


_LABELLING = re.compile(r"\bconnected_components\s*\(")


def _component_labellers(module, text):
    # module.function for every call that labels graph components
    holder = _holder(text)
    return [f"{module}.{holder(text.count(chr(10), 0, m.start()) + 1)}" for m in _LABELLING.finditer(text)]


def test_each_decomposition_is_called_only_in_its_home():
    # one Gram route: every Hermitian top goes through `gram_top` (the
    # unitarity residual reads a whole spectrum), every SVD norm through
    # `spectral_norm`; and one norm function: only `spectral_norm` splits a
    # matrix into components, which elsewhere are labelled only to refuse
    # a disconnected edge list
    package = Path(roelab.__file__).parent
    text = (package / "operators.py").read_text()
    assert _stray_decompositions("operators.py", text) == []
    labellers = [
        labeller
        for path in sorted(package.glob("*.py"))
        for labeller in _component_labellers(path.stem, path.read_text())
    ]
    assert labellers == ["operators.spectral_norm", "spaces.from_edge_list"]


def test_decomposition_lint_finds_calls_outside_their_homes():
    text = (
        "def gram_top(s):\n    return np.linalg.eigvalsh(s)\n"
        "def spectral_norm(m):\n    return np.linalg.svd(\n        m, compute_uv=False)[0]\n"
        "def corner(m):\n    def inner(g):\n        return np.linalg.eigvalsh(g)\n"
        "    return np.linalg.svd(m, compute_uv=False)\n"
        "top = np.linalg.eigvalsh(x)\nn = np.linalg.norm(x)\n"
    )
    assert _stray_decompositions("m.py", text) == [
        "m.py:8 eigvalsh in inner", "m.py:9 svd in corner", "m.py:10 eigvalsh in None"
    ]


def test_labelling_lint_finds_a_call_planted_in_locality():
    text = (Path(roelab.__file__).parent / "locality.py").read_text()
    planted = text + "\n\ndef _planted(graph):\n    return connected_components(\n        graph)[1]\n"
    assert _component_labellers("locality", text) == []
    assert _component_labellers("locality", planted) == ["locality._planted"]


_STACK_BUDGET = re.compile(r"\bSTACK_BYTES\b")


def _budget_namers(name, text):
    return [f"{name}:{text.count(chr(10), 0, m.start()) + 1}" for m in _STACK_BUDGET.finditer(text)]


def test_stack_budget_is_named_only_in_operators():
    # every batched stack is built in operators.py, which owns its byte budget
    package = Path(roelab.__file__).parent
    namers = [
        namer
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for namer in _budget_namers(path.name, path.read_text())
    ]
    assert namers == []


def test_budget_lint_finds_each_mention():
    text = "from .operators import (\n    STACK_BYTES,\n)\nstep = MY_STACK_BYTES\nk = ops.STACK_BYTES // 8\n"
    assert _budget_namers("m.py", text) == ["m.py:2", "m.py:5"]


_GRAM_TOP = re.compile(r"\bgram_top\b")


def _gram_top_namers(name, text):
    return [f"{name}:{text.count(chr(10), 0, m.start()) + 1}" for m in _GRAM_TOP.finditer(text)]


def test_gram_top_is_named_only_in_operators():
    # every Gram top comes from the corner kernel or `spectral_norm`: no
    # other module builds Gram matrices of corners and reads their tops
    package = Path(roelab.__file__).parent
    namers = [
        namer
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for namer in _gram_top_namers(path.name, path.read_text())
    ]
    assert namers == []


def test_gram_top_lint_finds_each_mention():
    text = (
        "from .operators import (\n    gram_top,\n)\n"
        "t = _gram_top_2x2(a, c, b)\nu = my_gram_top(g)\nv = operators.gram_top(g)\n"
    )
    assert _gram_top_namers("m.py", text) == ["m.py:2", "m.py:6"]


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


def _report_conversions(text):
    """(encoders, strays) of serialize.py: the json encoder calls given
    `default=_report_value`, by name, and every `.tolist` outside
    `_report_value` or encoder call given another hook, by line."""
    tree = ast.parse(text)
    hook = {
        node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_report_value"
        for node in ast.walk(fn)
    }
    strays = [
        f"{node.lineno} tolist" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "tolist" and node not in hook
    ]
    encoders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("dumps", "JSONEncoder"):
            hooked = any(k.arg == "default" and getattr(k.value, "id", None) == "_report_value" for k in node.keywords)
            if hooked:
                encoders.append(node.func.attr)
            else:
                strays.append(f"{node.lineno} {node.func.attr}")
    return sorted(encoders), strays


def test_report_values_are_converted_by_one_hook():
    # json walks the report and calls `_report_value` for what it does not
    # know, in the C encoder and in the encoder that names a refused number;
    # no second walk converts values before or beside it
    text = (Path(roelab.__file__).parent / "serialize.py").read_text()
    assert _report_conversions(text) == (["JSONEncoder", "dumps"], [])


def test_report_hook_lint_finds_a_second_conversion():
    text = (
        "def _plain(value):\n"
        "    return value.tolist()\n"
        "def _report_value(value):\n"
        "    return value.tolist()\n"
        "def report_bytes(data):\n"
        "    json.JSONEncoder(default=_report_value).iterencode(_plain(data))\n"
        "    return json.dumps(\n        _plain(data), default=lambda v: v.tolist()\n    )\n"
    )
    assert _report_conversions(text) == (["JSONEncoder"], ["2 tolist", "8 tolist", "7 dumps"])


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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_attribute_homes(trees):
    """Each private name with the modules that define it: a def or class
    of that name anywhere, an assignment through self or cls, or an
    assignment at module or class level."""
    homes = {}
    for name, tree in trees.items():
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        defined = [
            node.id
            for scope in scopes
            for node in scope.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for node in _assigned_names(node)
        ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            ):
                defined.append(node.attr)
        for attr in filter(_is_private, defined):
            homes.setdefault(attr, set()).add(name)
    return homes


def _foreign_private_attributes(texts):
    # `name._attr` with name other than self or cls, where _attr is defined
    # in some module of the package but not in this one
    trees = {name: ast.parse(text) for name, text in texts.items()}
    homes = _private_attribute_homes(trees)
    return sorted(
        (name, node.lineno, f"{node.value.id}.{node.attr}")
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id not in ("self", "cls") and _is_private(node.attr)
        and name not in homes.get(node.attr, {name})
    )


def test_no_module_touches_another_modules_private_attributes():
    # what a module keeps on its objects (cached norms, residuals, tables)
    # stays behind that module's own functions and methods
    package = Path(roelab.__file__).parent
    texts = {str(path.relative_to(package)): path.read_text() for path in sorted(package.rglob("*.py"))}
    assert _foreign_private_attributes(texts) == []


def test_private_attribute_lint_finds_a_foreign_access():
    texts = {
        "a.py": (
            "class A:\n"
            "    def __init__(self):\n"
            "        self._cache = {}\n"
            "    def _build(self):\n"
            "        return self._cache\n"
            "def use(a):\n"
            "    return a._cache, a._build()\n"
        ),
        "b.py": (
            "def peek(a):\n"
            "    a._cache.clear()\n"
            "    return (\n        a._build(), a._local, a.__class__, a._nowhere\n    )\n"
            "class B:\n"
            "    _local = 1\n"
        ),
    }
    assert _foreign_private_attributes(texts) == [("b.py", 2, "a._cache"), ("b.py", 4, "a._build")]


def _derived_store_uses(texts):
    """Modules other than operators.py that name `_derived`, then every
    store to the attribute outside `BlockOperator.__init__`, by line."""
    uses = [name for name, text in texts.items() if name != "operators.py" and re.search(r"\b_derived\b", text)]
    for name, text in texts.items():
        tree = ast.parse(text)
        init = {
            node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "BlockOperator"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        uses += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_derived"
            and isinstance(node.ctx, ast.Store) and node not in init
        ]
    return uses


def test_derived_store_is_set_only_by_the_constructor():
    # what is derived from an operator stays on that operator: nothing is
    # copied into another one, an adjoint included
    package = Path(roelab.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _derived_store_uses(texts) == []


def test_derived_store_lint_finds_a_second_writer():
    texts = {
        "operators.py": (
            "class BlockOperator:\n"
            "    def __init__(self):\n"
            "        self._derived = {}\n"
            "    def adjoint(self):\n"
            "        adj = BlockOperator()\n"
            "        adj._derived = dict(self._derived)\n"
            "        return adj\n"
        ),
        "locality.py": "def peek(T):\n    return getattr(T, '_derived')\n",
    }
    assert _derived_store_uses(texts) == ["locality.py", "operators.py:6"]


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


# the integer predicate's parts and the range message: one home, in spaces.py
_INTEGER_RULE = re.compile(r"Integral|np\.bool_|isinstance\([^)]*\bbool\b|out of range \[0,")


def _integer_rules(name, text):
    # matched over the whole text, like the norm lint
    return [f"{name}:{text.count(chr(10), 0, m.start()) + 1}" for m in _INTEGER_RULE.finditer(text)]


def test_integers_are_checked_only_in_spaces():
    # one integer rule: no module but spaces.py tests for bools or
    # integers by itself or writes its own range message
    package = Path(roelab.__file__).parent
    rules = [
        rule
        for path in sorted(package.glob("*.py"))
        if path.name != "spaces.py"
        for rule in _integer_rules(path.name, path.read_text())
    ]
    assert rules == []


def test_integer_lint_finds_each_form():
    text = (
        "from numbers import Integral\n"
        "ok = isinstance(E, (bool,\n    np.bool_))\n"
        "ok = isinstance(n, int) and not isinstance(n, bool)\n"
        "raise ValueError(f'value out of range [0, {n})')\n"
        "ok = isinstance(x, int)  # a plain int test is not the rule\n"
    )
    assert _integer_rules("m.py", text) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:5"]


# the real-number rule's comparisons and message: one home, in spaces.py
_REAL_RULE = re.compile(r"not [A-Za-z_.]+ >=? 0|must be a real number")


def _real_rules(name, text):
    return [f"{name}:{text.count(chr(10), 0, m.start()) + 1}" for m in _REAL_RULE.finditer(text)]


def test_reals_are_checked_only_in_spaces():
    # one real-number rule: no module but spaces.py compares a scale with 0
    # by hand or writes the rule's message; the others call `check_radius`
    # or test `is_real` with their own interval
    package = Path(roelab.__file__).parent
    rules = [
        rule
        for path in sorted(package.glob("*.py"))
        if path.name != "spaces.py"
        for rule in _real_rules(path.name, path.read_text())
    ]
    assert rules == []


def test_real_lint_finds_each_form():
    text = (
        "if not R >= 0:\n"
        "if not self.eps > 0:\n"
        "raise ValueError(f'scale must be a real number >= 0, got {r!r}')\n"
        "if not (is_real(delta) and 0 < delta < 1):  # the predicate and an interval\n"
        "if not values.max() > 0:  # a computed value, not an argument\n"
    )
    assert _real_rules("m.py", text) == ["m.py:1", "m.py:2", "m.py:3"]


def test_readme_quick_start_runs_as_printed():
    readme = (Path(roelab.__file__).parents[2] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split("\n") == ["0.0", "0.0", "1.0", ""]
