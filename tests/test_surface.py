"""Every public name of the package has a caller outside the tests.

A public top-level function or class of ``src/funneldsc``, or a public
method of such a class, must appear as a name or an attribute in the
package or in ``perfbench/*.py``, or as a word of ``README.md``.  A
formula that only the tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "funneldsc").glob("*.py"))


def public_definitions(paths) -> list:
    """``(module, name)`` for each public top-level function and class and
    each public method of those classes."""
    found = []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.stem, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def used_names(paths) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    callers = used_names(PACKAGE + sorted((ROOT / "perfbench").glob("*.py")))
    callers |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [f"{module}.{name}" for module, name in public_definitions(PACKAGE)
              if name.rpartition(".")[2] not in callers]
    assert unused == [], f"public names only the tests call: {unused}"
