"""Package surface: every exported name resolves, no module imports a
name it never uses, no private definition or module-level name is left
without a reader and no public one without a caller or a stated reason,
no module imports another's private name, no check is an `assert`, every
rule of the design contract (`_RULES`: no environment read, one norm
path, one Gram route, one labeller behind one split gate, one witness
search, one sparse form, one home of distance levels, one integer rule, one real-number
rule, one home of the tolerances, one store of derived values and one
file layout) matches only in its homes and every home holds it, a
private name of operators.py (its Gram top, its stack budget) stays
there, every JSON text goes through `serialize` and every report value
through its one hook, and the README's quick start runs as printed."""

import ast
import contextlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest

import roelab

_PACKAGE = Path(roelab.__file__).parent


def _package_texts():
    """{module: source text} for every module of the package, by dotted
    name relative to the package (`operators`, `sub.module`)."""
    return {
        ".".join(path.relative_to(_PACKAGE).with_suffix("").parts): path.read_text()
        for path in sorted(_PACKAGE.rglob("*.py"))
    }


def test_all_exports_resolve():
    missing = [name for name in roelab.__all__ if not hasattr(roelab, name)]
    assert missing == []
    assert len(set(roelab.__all__)) == len(roelab.__all__)


def test_no_unused_imports():
    # the lint step: an imported name must be used in its module or re-exported
    unused = []
    for module, text in _package_texts().items():
        tree = ast.parse(text)
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
            f"{module}:{line} {name}"
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
    trees = {name: ast.parse(text) for name, text in _package_texts().items()}
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


# public names that nothing in the package or the benchmark's modules
# names, each with the reason it stays; a dunder is named only by its
# operator or call syntax, which the lint does not read, so each one kept
# is listed here
_UNREACHED_BUT_KEPT = {
    "upgrade_trick": "acceptance criterion 6, the paper's upgrade step",
    "BlockOperator.supported_mask": "acceptance criteria 7-8; the tests' reference for `_tail_norm`",
    "save_map": "writes the map file that `cover --map` reads",
    "extract_map": "only roebench/test_roebench.py calls it, and only a benchmark change edits roebench",
    "identity_operator": "only roebench/test_roebench.py calls it, and only a benchmark change edits roebench",
    "BlockOperator.__matmul__": "`fixtures.noisy_covering_unitary`, `outer_roundtrip` and the README "
                                "quick start compose with `@`; its column gather forms `outer`'s U W*",
    "BlockOperator.__sub__": "the tests' reference for `_tail_norm`",
    "PointMap.__call__": "the tests' pointwise reference for `closeness` and the tie rule",
}

# the object protocol every class answers to: construction, `==` (in
# comparisons and containers) and `repr` (in messages and failed asserts)
_PROTOCOL_DUNDERS = {"__init__", "__eq__", "__repr__"}


def _public_definitions(module, tree):
    """(label, name, node, reference kinds) for every public module-level
    function or class, and every public method or dunder outside the
    object protocol of a public class, a class-body alias such as
    `__rmul__ = __mul__` included.  A class member is reached as an
    attribute; a function or class as a name or as an attribute of its
    module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name, node, (ast.Name, ast.Attribute)))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [target.id for target in item.targets if isinstance(target, ast.Name)]
                else:
                    names = []
                found += [
                    (f"{node.name}.{name}", name, item, (ast.Attribute,))
                    for name in names
                    if not name.startswith("_")
                    or name.startswith("__") and name.endswith("__") and name not in _PROTOCOL_DUNDERS
                ]
    return found


def _reference_counts(trees):
    """{kind: Counter of the names read}, a Name counted by its id and an
    Attribute by its attr, over every node of the given trees."""
    counts = {ast.Name: Counter(), ast.Attribute: Counter()}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
                counts[type(node)][node.id if isinstance(node, ast.Name) else node.attr] += 1
    return counts


def _unreached_public_names(package_texts, caller_texts):
    """Public definitions of the package's modules that no module of either
    set names outside the definition itself, by module:line and name.  The
    references of all trees are counted once; a definition is unreached
    when its own subtree holds all of them."""
    trees = {name: ast.parse(text) for name, text in {**caller_texts, **package_texts}.items()}
    everywhere = _reference_counts(trees.values())
    unreached = []
    for module in package_texts:
        for label, name, node, kinds in _public_definitions(module, trees[module]):
            inside = _reference_counts([node])
            if sum(everywhere[kind][name] for kind in kinds) == sum(inside[kind][name] for kind in kinds):
                unreached.append(f"{module}:{node.lineno} {label}")
    return unreached


def _benchmark_texts(benchmark=_PACKAGE.parents[1] / "roebench"):
    """{roebench/file: text} for the benchmark's modules that run the
    program (`checks`, `run`, `spans`, `workloads`); its tests and
    conftest test the benchmark, so what only they call is unreached."""
    return {
        f"roebench/{path.name}": path.read_text()
        for path in sorted(benchmark.glob("*.py"))
        if path.stem != "conftest" and not path.stem.startswith("test_")
    }


def test_public_names_are_reached():
    # the public API is what the program calls: a public function, class,
    # method or dunder that no module of the package and no non-test module
    # of the benchmark names is dead code or a test helper, unless the
    # allowlist says why it stays
    unreached = _unreached_public_names(_package_texts(), _benchmark_texts())
    assert sorted(label.split()[1] for label in unreached) == sorted(_UNREACHED_BUT_KEPT)


def test_public_name_lint_finds_a_planted_method():
    callers = {**_package_texts(), **_benchmark_texts()}
    text = callers["spaces"]
    anchor = "    def realized_distances(self)"
    planted = text.replace(anchor, "    def planted_size(self):\n        return self.n\n\n" + anchor)
    assert _unreached_public_names({"spaces": text}, callers) == []
    after = _unreached_public_names({"spaces": planted}, callers)
    assert [label.split()[1] for label in after] == ["FiniteMetricSpace.planted_size"]


@pytest.mark.parametrize("plant, found", [
    pytest.param("    def __add__(self, other):\n        return self\n\n",
                 ["BlockOperator.__add__"], id="method"),
    pytest.param("    def __mul__(self, c):\n        return self\n\n    __rmul__ = __mul__\n\n",
                 ["BlockOperator.__mul__", "BlockOperator.__rmul__"], id="alias"),
])
def test_public_name_lint_finds_a_planted_dunder(plant, found):
    callers = {**_package_texts(), **_benchmark_texts()}
    text = callers["operators"]
    anchor = "    def __sub__(self, other)"
    before, after = (
        [label.split()[1] for label in _unreached_public_names({"operators": t}, callers)]
        for t in (text, text.replace(anchor, plant + anchor))
    )
    assert [name for name in after if name not in before] == found


def test_public_name_lint_counts_no_benchmark_test(tmp_path):
    # a public name that only a benchmark test calls is unreached; the same
    # call from a benchmark module reaches it
    package = _package_texts()
    planted = {"spaces": package["spaces"] + "\n\ndef planted_helper():\n    return 0\n"}
    call = "from roelab.spaces import planted_helper\n\nplanted_helper()\n"
    (tmp_path / "test_x.py").write_text(call)
    (tmp_path / "conftest.py").write_text(call)
    after = _unreached_public_names(planted, {**package, **_benchmark_texts(tmp_path)})
    assert [label.split()[1] for label in after] == ["planted_helper"]
    (tmp_path / "x.py").write_text(call)
    assert _unreached_public_names(planted, {**package, **_benchmark_texts(tmp_path)}) == []


# The design contract, one rule a row: {rule: (pattern, homes)}.  A home
# is a module (`operators`) or the innermost function holding a match
# (`operators._gram_top`); the pattern may match nowhere else, and every
# home must hold a match, so a home that loses its call is reported too.
_RULES = {
    # configuration is a command-line argument, which a report's scenario records
    "environment": (r"os\.environ|getenv", ()),
    # one norm path: only operators.py takes a vector norm
    "norm": (r"linalg\.norm\b", ("operators",)),
    # one Gram route: every Hermitian top through `_gram_top` (the unitarity
    # residual reads a whole spectrum), every SVD norm through `spectral_norm`,
    # which takes every matrix whole
    "eigvalsh": (r"linalg\.eigvalsh\b", ("operators._gram_top", "operators._residual")),
    "svd": (r"svd\([^()]*compute_uv\s*=\s*False", ("operators.spectral_norm",)),
    # one labeller: `_split_norm` splits an operator or a tail into components;
    # `from_edge_list` refuses a disconnected edge list by reachability
    "labelling": (r"\bconnected_components\s*\(", ("operators._split_norm",)),
    # one split gate: only an operator's sparse form splits, so `_split_norm`
    # is called by `T.norm()` and the tails alone (the definition is not a call)
    "split": (r"(?<!def )\b_split_norm\(", ("operators._norm", "operators._tail_norm")),
    # one witness search: only `quasi_locality_violation` asks `_violation` to
    # locate, and only `_violation` calls `_exact_violation`, the one exact
    # enumeration, handing `locate` on, so the window's numbers never pay for
    # a witness
    "witness": (r"(?<!def )\b_exact_violation\(|\blocate=True\b",
                ("locality._violation", "locality.quasi_locality_violation")),
    # one sparse form: an operator's CSR matrix is built once, by `_sparse_form`;
    # `_split_norm` builds its component graph and `spaces` its edge graphs
    "csr": (r"\bcsr_matrix\s*\(", ("operators._sparse_form", "operators._split_norm", "spaces")),
    # a space computes and stores its own distance levels, and labels its own matrix
    "distance_levels": (r"np\.(unique|argsort|searchsorted)\([^()]*\.dist\b", ("spaces",)),
    # one integer rule: bool and integer tests and the range message
    "integer": (r"Integral|np\.bool_|isinstance\([^)]*\bbool\b|out of range \[0,", ("spaces",)),
    # one real-number rule: a scale compared with 0 by hand, or the rule's
    # message; other modules call `check_radius` or test `is_real` in their interval
    "real": (r"not [A-Za-z_.]+ >=? 0|must be a real number", ("spaces",)),
    # one rounding margin and one unitarity tolerance, read where they are
    # defined; spaces keeps the triangle tolerance of input metrics
    "tolerance": (r"\b1e-(?:12|9)\b", ("operators", "spaces")),
    # one store: what a space, a map or an operator derives is kept by
    # `derived`; only the shared cover family and the parser are cached
    "store": (r"cached_property|lru_cache|functools\.cache\b", ("fixtures._cover", "cli._build_parser")),
    # one file layout: only serialize packs or unpacks bytes
    "binary": (r"\bfrombuffer\b|\.tobytes\(|\bstruct\.", ("serialize",)),
}


def _holder(text):
    """The innermost function holding a line of text, or None; a
    function's decorators are held by it."""
    functions = [
        (min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno, node.name)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    def holder(line):
        holders = [(start, fn) for start, end, fn in functions if start <= line <= end]
        return max(holders)[1] if holders else None

    return holder


def _misplaced(rule, texts):
    """(strays, idle homes) of a rule over {module: text}.  A stray is a
    match outside the rule's homes, as `place:line` at the line where the
    match starts, the place being the module or its innermost function
    holding the match; matched over the whole text, so a call wrapped
    over lines is found like any other.  An idle home holds no match."""
    pattern, homes = _RULES[rule]
    strays, held = [], set()
    for module, text in texts.items():
        matches = list(re.finditer(pattern, text))
        holder = _holder(text) if matches else None
        for match in matches:
            line = text.count("\n", 0, match.start()) + 1
            function = holder(line)
            place = f"{module}.{function}" if function else module
            home = next((h for h in (place, module) if h in homes), None)
            if home is None:
                strays.append(f"{place}:{line}")
            else:
                held.add(home)
    return strays, [home for home in homes if home not in held]


@pytest.mark.parametrize("rule", list(_RULES))
def test_rule_matches_only_in_its_homes(rule):
    assert _misplaced(rule, _package_texts()) == ([], [])


def _line(text, needle):
    return text.count("\n", 0, text.index(needle)) + 1


_DECOMPOSITIONS = (
    "def _gram_top(s):\n    return np.linalg.eigvalsh(s)\n"
    "def spectral_norm(m):\n    return np.linalg.svd(\n        m, compute_uv=False)[0]\n"
    "def corner(m):\n    def inner(g):\n        return np.linalg.eigvalsh(g)\n"
    "    return np.linalg.svd(m, compute_uv=False)\n"
    "top = np.linalg.eigvalsh(x)\nn = np.linalg.norm(x)\n"
)

# (rule, texts, strays, idle homes): each rule's planted forms, a lone text
# standing for a module `m`
_PLANTED = [
    ("environment", "import os\nseed = os.environ['SEED']\nhome = os.getenv(\n    'HOME')\nw = environ\n",
     ["m:2", "m:3"], []),
    ("norm", (
        "x = 1\nn = np.linalg.norm(\n    x, axis=0)\n"
        "e = np.linalg.eigvalsh(g)  # the eigvalsh row's\n"
        "v = np.linalg.normal(x)\nm = scipy.linalg.norm(x)\n"
    ), ["m:2", "m:6"], ["operators"]),
    ("eigvalsh", {"operators": _DECOMPOSITIONS}, ["operators.inner:8", "operators:10"], ["operators._residual"]),
    ("svd", {"operators": _DECOMPOSITIONS}, ["operators.corner:9"], []),
    ("distance_levels", (
        "radii, counts = np.unique(space.dist, return_counts=True)\n"
        "order = np.argsort(\n    self.dist, axis=None, kind='stable')\n"
        "names = np.unique(self.distances)\nkeys = np.unique(labels)\n"
        "labels = np.searchsorted(\n    radii, X.dist)\nat = np.searchsorted(radii, r)\n"
    ), ["m:1", "m:2", "m:6"], ["spaces"]),
    ("integer", (
        "from numbers import Integral\n"
        "ok = isinstance(E, (bool,\n    np.bool_))\n"
        "ok = isinstance(n, int) and not isinstance(n, bool)\n"
        "raise ValueError(f'value out of range [0, {n})')\n"
        "ok = isinstance(x, int)  # a plain int test is not the rule\n"
    ), ["m:1", "m:2", "m:3", "m:4", "m:5"], ["spaces"]),
    ("real", (
        "ok = not R >= 0\n"
        "ok = not self.eps > 0\n"
        "raise ValueError(f'scale must be a real number >= 0, got {r!r}')\n"
        "ok = not (is_real(delta) and 0 < delta < 1)  # the predicate and an interval\n"
        "ok = not values.max() > 0  # a computed value, not an argument\n"
    ), ["m:1", "m:2", "m:3"], ["spaces"]),
    ("tolerance", (
        "_TIE_TOL = 1e-12\n"
        "ok = gap >= -1e-9\n"
        "\"\"\"Corners within\n1e-12 of the maximum.\"\"\"\n"
        "tiny = 1e-120 + 2e-12 + 1e-90 + 21e-12\n"
        "margin = ROUNDING_MARGIN\n"
    ), ["m:1", "m:2", "m:4"], ["operators", "spaces"]),
    ("store", (
        "import functools\n"
        "class Space:\n"
        "    @functools.cached_property\n"
        "    def levels(self):\n"
        "        return 1\n"
        "from functools import lru_cache\n"
        "nets = functools.cache(greedy_net)\n"
        "table = functools.cached(f)  # not one of the three\n"
    ), ["m.levels:3", "m:6", "m:7"], ["fixtures._cover", "cli._build_parser"]),
    ("store", {
        "fixtures": "@functools.lru_cache(\n    maxsize=32)\ndef _cover(kind):\n    return kind\n",
        "cli": "@functools.cache\ndef _parser():\n    return 1\n",
    }, ["cli._parser:1"], ["cli._build_parser"]),
    ("binary", (
        "import struct\n"
        "head = struct.pack('<I', n)\n"
        "def load(raw):\n    return np.frombuffer(\n        raw, '<c16')\n"
        "data = m.tobytes()\n"
        "size = m.nbytes  # neither a copy nor a layout\n"
    ), ["m:2", "m.load:4", "m:6"], ["serialize"]),
]


def _planted_cases():
    """`_PLANTED`, a labelling call and a CSR matrix planted in locality.py,
    a split call planted in `operators.spectral_norm`, a located exact
    violation asked for and called outside `quasi_locality_violation`'s
    chain, and a copy of operators.py whose `_gram_top` is renamed, so
    that its home is idle."""
    package = _package_texts()
    planted = package["locality"] + "\n\ndef _planted(graph):\n    return connected_components(\n        graph)[1]\n"
    stray_csr = package["locality"] + "\n\ndef _planted(T):\n    return csr_matrix (T.matrix)\n"
    renamed = package["operators"].replace("def _gram_top(", "def top_of_gram(")
    asked = "return _violation(T, R, 'exact', locate=True)"
    witness = package["locality"] + (
        f"\n\ndef _window(T, R):\n    {asked}\n\n\ndef _value(T, R):\n    return _exact_violation(\n        T, R)[0]\n"
    )
    split = package["operators"].replace(
        "    rows, cols = mat.shape[-2:]\n",
        "    rows, cols = mat.shape[-2:]\n    _split_norm(mat.shape, *np.nonzero(mat), None)\n", 1)
    cases = [(rule, texts if isinstance(texts, dict) else {"m": texts}, *rest) for rule, texts, *rest in _PLANTED]
    return [pytest.param(*case, id=case[0]) for case in cases] + [
        pytest.param("labelling", {**package, "locality": planted},
                     [f"locality._planted:{_line(planted, 'return connected_components(')}"], [], id="labelling"),
        pytest.param("csr", {**package, "locality": stray_csr},
                     [f"locality._planted:{_line(stray_csr, 'return csr_matrix (')}"], [], id="csr"),
        pytest.param("split", {"operators": split},
                     [f"operators.spectral_norm:{_line(split, '_split_norm(mat.shape')}"], [], id="split"),
        pytest.param("witness", {"locality": witness},
                     [f"locality._window:{_line(witness, asked)}",
                      f"locality._value:{_line(witness, 'return _exact_violation(')}"], [], id="witness"),
        pytest.param("eigvalsh", {"operators": renamed},
                     [f"operators.top_of_gram:{_line(renamed, 'np.linalg.eigvalsh(')}"], ["operators._gram_top"],
                     id="idle_home"),
    ]


@pytest.mark.parametrize(("rule", "texts", "strays", "idle"), _planted_cases())
def test_rule_finder_reports_planted_strays_and_idle_homes(rule, texts, strays, idle):
    assert _misplaced(rule, texts) == (strays, idle)


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
    writers, serializers = [], []
    for name, text in _package_texts().items():
        if name != "serialize":
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
    assert _report_conversions(_package_texts()["serialize"]) == (["JSONEncoder", "dumps"], [])


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
    importers = [
        importer
        for name, text in _package_texts().items()
        for importer in _private_imports(name, text)
    ]
    assert importers == []


def test_private_import_lint_finds_imports_wrapped_over_lines():
    text = (
        "from __future__ import annotations\n"
        "from .operators import (\n    BlockOperator,\n    _gram_top_2x2,\n)\n"
        "from .extraction import corner_norm_table, _threshold\n"
        "from numpy import _globals\n"
        "from . import __version__\n"
    )
    assert _private_imports("m.py", text) == ["m.py:2 _gram_top_2x2", "m.py:6 _threshold"]


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
    assert _foreign_private_attributes(_package_texts()) == []


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


def test_private_names_keep_the_gram_top_and_the_stack_budget_home():
    # operators.py's Gram top and stack budget are private, so a stray
    # import or read of either is refused by the private-name lints and a
    # second Hermitian top by the `eigvalsh` row; only a module defining
    # its own budget or top under a new name escapes, as it always did
    package = _package_texts()
    anchor = "from .spaces import check_radius\n"
    stray = "from .operators import (\n    _gram_top,\n)\n"
    locality = package["locality"].replace(anchor, anchor + stray) + (
        "\n\ndef _planted_top(gram):\n    return np.linalg.eigvalsh(\n        gram)[..., -1]\n"
    )
    extraction = package["extraction"] + "\n\ndef _planted_step(U):\n    return operators._STACK_BYTES // U.n\n"
    planted = {**package, "locality": locality, "extraction": extraction}
    assert _private_imports("locality", locality) == [f"locality:{_line(locality, stray)} _gram_top"]
    assert _foreign_private_attributes(planted) == [
        ("extraction", _line(extraction, "operators._STACK_BYTES"), "operators._STACK_BYTES"),
    ]
    assert _misplaced("eigvalsh", planted) == ([f"locality._planted_top:{_line(locality, 'np.linalg.eigvalsh(')}"], [])


# the store's owners, as (module, class, method): the one method of each
# that sets `_derived`, the constructor or, for a space, the step both of
# its constructors take
_STORE_WRITERS = {
    ("spaces", "FiniteMetricSpace", "_freeze"),
    ("maps", "PointMap", "__init__"),
    ("operators", "BlockOperator", "__init__"),
}


def _derived_store_uses(texts):
    """Modules other than the owners' that name `_derived`, then every
    store to the attribute outside the writers of `_STORE_WRITERS`, by
    line, then each writer of a given module that stores none, as
    module.Class.method."""
    owners = {module for module, _, _ in _STORE_WRITERS}
    uses = [name for name, text in texts.items() if name not in owners and re.search(r"\b_derived\b", text)]
    idle = []
    for name, text in texts.items():
        tree = ast.parse(text)
        writers = {
            (cls.name, fn.name): set(ast.walk(fn))
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and (name, cls.name, fn.name) in _STORE_WRITERS
        }
        stores = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_derived" and isinstance(node.ctx, ast.Store)
        ]
        held = set().union(*writers.values())
        uses += [f"{name}:{node.lineno}" for node in stores if node not in held]
        idle += [
            f"{module}.{cls}.{fn}" for module, cls, fn in sorted(_STORE_WRITERS)
            if module == name and not any(node in writers.get((cls, fn), ()) for node in stores)
        ]
    return uses + idle


def test_derived_store_is_set_only_by_the_constructor():
    # what is derived from a space, a map or an operator stays on it:
    # nothing is copied into another one, an adjoint included
    assert _derived_store_uses(_package_texts()) == []


def test_derived_store_lint_finds_a_second_writer():
    texts = {
        "spaces": (
            "class FiniteMetricSpace(Derived):\n"
            "    def _freeze(self, dist):\n"
            "        self._derived = {}\n"
            "    def __init__(self, dist):\n"
            "        self._freeze(dist)\n"
            "        self._derived = {}\n"
        ),
        "maps": (
            "class PointMap(Derived):\n"
            "    def __init__(self):\n"
            "        self._derived = {}\n"
            "def compose(g, f):\n"
            "    h = PointMap()\n"
            "    h._derived = f._derived\n"
            "    return h\n"
        ),
        "operators": (
            "class BlockOperator:\n"
            "    def __init__(self):\n"
            "        self._derived = {}\n"
            "    def adjoint(self):\n"
            "        adj = BlockOperator()\n"
            "        adj._derived = dict(self._derived)\n"
            "        return adj\n"
        ),
        "locality": "def peek(T):\n    return getattr(T, '_derived')\n",
    }
    assert _derived_store_uses(texts) == ["locality", "spaces:6", "maps:6", "operators:6"]
    # a space whose store is set outside `_freeze` has no writer there
    texts["spaces"] = texts["spaces"].replace("    def _freeze(self, dist):\n        self._derived = {}\n", "")
    assert _derived_store_uses(texts) == [
        "locality", "spaces:4", "maps:6", "operators:6", "spaces.FiniteMetricSpace._freeze",
    ]


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check the package relies
    # on raises an exception instead
    asserts = [
        f"{name}:{node.lineno}"
        for name, text in _package_texts().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_readme_quick_start_runs_as_printed():
    readme = (_PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split("\n") == ["0.0", "0.0", "1.0", ""]
