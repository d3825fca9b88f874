"""Every name a module imports is read in it.

Neither pyflakes nor ruff is a dependency, so the check walks each module's
syntax tree with `ast`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__.py imports its exports, which it never reads
MODULES = sorted([*(p for p in (ROOT / "src" / "paucopt").glob("*.py") if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


def _dotted(node):
    """'a.b.c' for the expression a.b.c, None for any other expression."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else None


def unused_imports(source: str, path: str) -> list[str]:
    """`path:line: name` for each name an import in source binds and no
    expression reads. `import a.b` counts as read where a.b, or an attribute
    of it, is."""
    tree = ast.parse(source, path)
    imported = [(node.lineno, alias.asname or alias.name) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{path}:{line}: {name}" for line, name in imported
            if name not in read and not any(r and r.startswith(name + ".") for r in read)]


def test_finds_an_unread_name():
    source = ("from __future__ import annotations\nimport os, json\nimport os.path\n"
              "import a.b\nfrom x import y as z\nprint(json.dumps(a.b.c))\n")
    assert unused_imports(source, "m.py") == ["m.py:2: os", "m.py:3: os.path", "m.py:5: z"]


def test_every_imported_name_is_read():
    problems = [line for path in MODULES
                for line in unused_imports(path.read_text(encoding="utf-8"),
                                           str(path.relative_to(ROOT)))]
    assert not problems, "imported and never read:\n" + "\n".join(problems)
