"""Every ``repro.…`` name the documents put in backticks exists.

A module, class or function that is deleted or renamed leaves its
mentions behind in the prose; this test fails on the first stale one.
A name resolves when its longest importable prefix imports and the
rest is reached by ``getattr``.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
DOCS += sorted((ROOT / "docs").glob("*.md"))
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def documented_names(path):
    text = FENCE.sub("", path.read_text())
    return sorted({
        name
        for span in CODE_SPAN.findall(text)
        for name in DOTTED.findall(span)
    })


def resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not (module + ".").startswith(exc.name + "."):
                raise  # the module exists but fails to import
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_documents_mention_repro_names():
    assert sum(len(documented_names(p)) for p in DOCS) > 50


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_backticked_repro_names_resolve(path):
    stale = [n for n in documented_names(path) if not resolves(n)]
    assert not stale, f"{path.name} names what does not exist: {stale}"
