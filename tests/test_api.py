"""The package exports only what the program itself uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treespect"


def names_in(path: Path) -> set[str]:
    """Every name a module reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_export_has_a_caller_outside_its_module():
    # an export that only tests call belongs in the tests
    init = PACKAGE / "__init__.py"
    exports = {
        alias.asname or alias.name: node.module
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert "simulate" in exports and "FrequencyGrid" in exports
    callers = [p for p in PACKAGE.glob("*.py") if p != init]
    callers += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    used = {p: names_in(p) for p in callers}
    unused = sorted(
        name for name, module in exports.items()
        if not any(name in names for p, names in used.items() if p != PACKAGE / f"{module}.py")
    )
    assert not unused, f"exported but used only in their own module: {unused}"
