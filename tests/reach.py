"""Which statements of the program its scenarios run.

    PYTHONPATH=src python tests/reach.py

The scenarios are the four roebench workloads at seeds 1-3 (set-up, the
check of every report and one round of ops) and every acceptance
criterion (the entries of `RUNNERS` in tests/test_acceptance.py).  A
statement is one in a function body of src/roelab, a docstring and a
nested `def` or `class` left out; it is reached when a line of its head
(a simple statement's every line, a compound one's up to its body) runs
under `sys.settrace`.  The script prints the totals, the lines of code of
src/roelab (the lines that hold a `tokenize` token, comments, blank
lines and docstring statements left out), the sha256 over the
`results` of the roebench ops (their canonical JSON, concatenated in run
order) and the sha256 of each acceptance criterion's `results` as
criterion 9 hashes them (`report_bytes`).  The digests depend on the
host's BLAS kernels, so they are printed, not checked.

The statements that no scenario reaches are listed in
tests/reach_unreached.txt, one a line: module, enclosing function, count
and statement text, tab-separated.  The text is the statement's
`ast.unparse`, a compound statement's head alone, so neither a moved
line nor a comment changes it (the list was written on Python 3.11,
whose `ast.unparse` another version may not match to the quote); the
count is how many statements of the function read the same.  The script prints the unreached statements that
the list lacks, as lines of the list, and the listed ones that now run.
The failed checks are the roebench ops' checks that fail, criterion 9's
reruns that differ and any unreached statement that the list lacks; the
exit status is 1 when there is one, else 0.  So a branch that only a
unit test runs fails here until the list names it.

Nothing under roebench/ is written: the workloads' inputs go to a
temporary directory.  With one BLAS thread it takes about 15 s on one
core of an Intel Xeon, too long for Tier-1, so pytest does not collect
it (the name has no `test_` prefix).
"""

import ast
import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTED = Path(__file__).resolve().parent / "reach_unreached.txt"


def _docstring(node):
    """The docstring statement of a module, class or function, or None."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        if ast.get_docstring(node, clean=False) is not None:
            return node.body[0]
    return None


def statements(tree):
    """(first line, last head line, enclosing function, node) for every
    statement in a function body, a docstring and a nested def or class
    left out; the enclosing function is its dotted name under the module
    (`Class.method`, `outer.inner`)."""
    found = []

    def visit(node, scope, in_function):
        doc = _docstring(node)
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if in_function and isinstance(child, ast.stmt) and child is not doc and not is_def:
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                found.append((child.lineno, last, ".".join(scope), child))
            visit(child, scope + [child.name] if is_def else scope,
                  in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, [], False)
    return found


def code_lines(text):
    """The lines of a source text that hold a token other than a comment
    or layout (line breaks, indents, the end marker), less the lines of
    its docstring statements; a token spanning lines counts on each."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        doc = _docstring(node)
        if doc is not None:
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def head(node):
    """A statement's text from `ast.unparse`, a compound statement's head
    alone: no comment, line break or layout of the source is in it."""
    if isinstance(getattr(node, "body", None), list):
        node = copy.copy(node)
        for field in ("body", "orelse", "handlers", "finalbody"):
            setattr(node, field, [])
    return ast.unparse(node).split("\n", 1)[0]


def read_listed():
    """Counter of (module, function, statement) over the committed list."""
    listed = Counter()
    for line in LISTED.read_text().splitlines():
        if line and not line.startswith("#"):
            module, function, count, text = line.split("\t")
            listed[module, function, text] += int(count)
    return listed


def _rows(keys):
    return [f"{module}\t{function}\t{count}\t{text}" for (module, function, text), count in keys.items()]


def trace(run, files):
    """Run `run()` under a line trace of the given files; return the set
    of (file, line) that ran."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def scenarios(digest, failed):
    """The roebench workloads at seeds 1-3, then every acceptance criterion."""
    import checks
    import test_acceptance
    import workloads

    for name, workload_class in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as work:
                workload = workload_class(seed, Path(work))
                ops = workload.set_up()
                workload.prepare_checks(ops)
                for op in ops:
                    status, text = workloads.run_op(op)
                    if status != 0:
                        failed.append(f"{name} seed {seed} {op.input_id}: exit {status}")
                        continue
                    results = json.loads(text)["results"]
                    digest.update(checks.canonical(results).encode())
                    try:
                        op.check(results)
                    except checks.CheckFailed as exc:
                        failed.append(f"{name} seed {seed} {op.input_id}: {exc.name}")
    with contextlib.redirect_stdout(io.StringIO()):  # criterion 9's CLI sweeps print
        for num in test_acceptance.RUNNERS:
            test_acceptance.run_cached(num)


def main():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as roebench/run.py, before numpy loads
    sys.path.append(str(ROOT / "roebench"))  # after tests/, whose conftest the criteria import
    import roelab

    package = Path(roelab.__file__).resolve().parent
    sources = {str(path): path.read_text() for path in sorted(package.glob("*.py"))}
    digest, failed = hashlib.sha256(), []
    ran = trace(lambda: scenarios(digest, failed), set(sources))
    import test_acceptance

    criteria = test_acceptance.run_cached(9)[0]["criteria"]
    failed += [f"criterion {num} differs on a rerun"
               for num, entry in criteria.items() if not entry["rerun_match"]]
    unreached, total, raises = Counter(), 0, 0
    for path, text in sources.items():
        found = statements(ast.parse(text))
        total += len(found)
        for first, last, function, node in found:
            if not any((path, line) in ran for line in range(first, last + 1)):
                unreached[Path(path).stem, function, head(node)] += 1
                raises += isinstance(node, ast.Raise)
    listed = read_listed()
    unlisted, now_reached = unreached - listed, listed - unreached
    if unlisted:
        failed.append(f"{unlisted.total()} unreached statements not in {LISTED.name}")
    print(f"src/roelab: {total - unreached.total()} of {total} statements reached; "
          f"{unreached.total()} unreached, {raises} of them `raise`; "
          f"{sum(map(code_lines, sources.values()))} lines of code")
    print(f"results sha256 of the roebench ops: {digest.hexdigest()}")
    for num, entry in criteria.items():
        print(f"results sha256 of criterion {num:>2}: {entry['sha256']}")
    print(f"failed checks: {'; '.join(failed) or 'none'}")
    if unlisted:
        print(f"\nunreached, not in {LISTED.name}:", *_rows(unlisted), sep="\n")
    if now_reached:
        print(f"\nin {LISTED.name}, now reached:", *_rows(now_reached), sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
