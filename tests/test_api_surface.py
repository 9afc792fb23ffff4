"""Every name the package exports is used by something other than the tests.

A name is used when it is referenced in ``src/fermichain`` beyond its own
``def``/``class`` line (the package ``__init__`` does not count), in
``demos/`` or in ``perfbench/`` (whose tracer names the functions it wraps
as strings).  A public name that only tests reach is dead weight: delete it,
or move it into ``tests/`` if it serves there as an independent oracle.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermichain"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _user_texts() -> list:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        sources += sorted((ROOT / folder).rglob("*.py"))
    return [p.read_text(encoding="utf-8") for p in sources]


def _is_used(name: str, texts) -> bool:
    word = re.compile(r"\b%s\b" % re.escape(name))
    own_line = re.compile(r"^\s*(def|class)\s+%s\b" % re.escape(name))
    return any(word.search(line) and not own_line.match(line)
               for text in texts for line in text.splitlines())


def test_every_exported_name_has_a_user_outside_the_tests():
    texts = _user_texts()
    names = _exported_names()
    assert len(names) > 50  # the parse found the export list
    unused = sorted(name for name in names if not _is_used(name, texts))
    assert not unused, "exported, but only tests use: %s" % ", ".join(unused)
