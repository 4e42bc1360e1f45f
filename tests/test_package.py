"""Package surface: every exported name resolves, and nothing is
configured through the environment."""

import re
from pathlib import Path

import roelab


def test_all_exports_resolve():
    missing = [name for name in roelab.__all__ if not hasattr(roelab, name)]
    assert missing == []
    assert len(set(roelab.__all__)) == len(roelab.__all__)


def test_no_module_reads_the_environment():
    # configuration stays in command-line arguments, where a report's scenario can record it
    package = Path(roelab.__file__).parent
    readers = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == []
