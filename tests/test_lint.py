"""Lints over every module of ``src/judgeval``, each with a self-test of its checker."""

from __future__ import annotations

import ast
import re
from pathlib import Path


def _text_reads_without_bom_policy(tree: ast.AST) -> list[int]:
    """Lines of text-mode ``open(...)`` and of ``.read_text(...)`` calls that do
    not pass ``encoding="utf-8-sig"``; binary modes and writes are exempt."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r")
            )
            if not isinstance(mode, ast.Constant):
                lines.append(node.lineno)  # a mode only known at run time
                continue
            if "b" in mode.value or set(mode.value) & set("wax"):
                continue
        elif not (isinstance(func, ast.Attribute) and func.attr == "read_text"):
            continue
        encodings = [kw.value for kw in node.keywords if kw.arg == "encoding"]
        if not (encodings and isinstance(encodings[0], ast.Constant)
                and encodings[0].value == "utf-8-sig"):
            lines.append(node.lineno)
    return lines


def test_every_text_read_drops_a_byte_order_mark():
    src = Path(__file__).resolve().parents[1] / "src" / "judgeval"
    offenders = [
        f"{path}:{line}"
        for path in sorted(src.rglob("*.py"))
        for line in _text_reads_without_bom_policy(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == [], "text read without encoding='utf-8-sig'"


def test_no_source_line_is_longer_than_100_characters():
    # keeps line counts comparable: joining lines does not shorten the code
    src = Path(__file__).resolve().parents[1] / "src" / "judgeval"
    offenders = [
        f"{path}:{line_no} ({len(line)})"
        for path in sorted(src.rglob("*.py"))
        for line_no, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1)
        if len(line) > 100
    ]
    assert offenders == []


def _unread_imports(tree: ast.AST) -> list[str]:
    """Names a module imports (``__future__`` aside) that no ``ast.Name`` reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        f"{node.lineno}:{name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read
    ]


def test_no_source_module_imports_a_name_it_never_reads():
    # a deletion that leaves its import behind fails here
    src = Path(__file__).resolve().parents[1] / "src" / "judgeval"
    offenders = [
        f"{path}:{entry}"
        for path in sorted(src.rglob("*.py"))
        for entry in _unread_imports(ast.parse(path.read_text(encoding="utf-8-sig")))
    ]
    assert offenders == []


def _marker_substitutions(tree: ast.AST) -> list[int]:
    """Lines that call ``.replace`` or an ``re`` function with a literal first
    argument holding a ``<MARKER>``: a prompt filled outside ``templates``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(func := node.func, ast.Attribute)
        and (func.attr == "replace" or isinstance(func.value, ast.Name) and func.value.id == "re")
        and node.args and isinstance(first := node.args[0], ast.Constant)
        and isinstance(first.value, str) and re.search(r"<[A-Z]+>", first.value)
    ]


def test_only_the_templates_module_fills_prompt_markers():
    # one module owns the placeholder format, so every template fills alike
    src = Path(__file__).resolve().parents[1] / "src" / "judgeval"
    offenders = [
        f"{path}:{line}"
        for path in sorted(src.rglob("*.py"))
        if "templates" not in path.relative_to(src).parts
        for line in _marker_substitutions(ast.parse(path.read_text(encoding="utf-8-sig")))
    ]
    assert offenders == []


def test_the_marker_lint_flags_substitutions_outside_templates():
    tree = ast.parse(
        "t.replace('<N>', '80').replace('<DOC>', d)\nre.sub('<QUERY>|<PASSAGE>', f, t)\n"
        "re.compile(r'x<DOC>')\np.replace(q)\nt.replace('<n>', x)\nre.compile('[0-3]')\n"
        "t.replace('N', '<N>')\nother.sub('<N>', x)\nfill(t, {'<N>': '80'})\n"
    )
    assert sorted(_marker_substitutions(tree)) == [1, 1, 2, 3]


def test_the_import_lint_flags_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from a import b, c\nfrom . import d\nimport sys\n"
        "def f(x: c) -> None:\n    j.dumps(d.e)\n    sys = 1\n"
    )
    assert _unread_imports(tree) == ["2:os", "4:b", "6:sys"]


def test_the_bom_lint_flags_plain_text_reads():
    tree = ast.parse(
        "open(p)\nopen(p, 'r', encoding='utf-8')\np.read_text()\nopen(p, mode)\n"
        "open(p, 'rb')\nopen(p, 'w')\nopen(p, encoding='utf-8-sig')\n"
        "p.read_text(encoding='utf-8-sig')\n"
    )
    assert _text_reads_without_bom_policy(tree) == [1, 2, 3, 4]
