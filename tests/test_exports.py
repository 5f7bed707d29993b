"""Names the package promises resolve: ``__all__``, the console script, demo imports.

The demos' imports are read with ``ast``, without running the scripts, so
demo 06, which ``test_demos.py`` leaves out for its run time, is checked too.
Each name a demo imports from beamtrack must also be used in it.  The
``beamtrack`` command's entry point is read from ``pyproject.toml`` as text,
since Python 3.10 has no ``tomllib``.
"""

import ast
import importlib
from pathlib import Path

import beamtrack

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_name_in_all_is_an_attribute():
    missing = [name for name in beamtrack.__all__ if not hasattr(beamtrack, name)]
    assert not missing, f"beamtrack.__all__ names missing attributes: {missing}"


def test_console_script_target_is_callable():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    key, _, target = lines[lines.index("[project.scripts]") + 1].partition("=")
    assert key.strip() == "beamtrack"
    module_name, _, attr = target.strip().strip('"').partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))


def beamtrack_imports(path: Path) -> list[tuple[str, str | None, str]]:
    """(module, name, bound name) of each beamtrack import; name None for ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "beamtrack":
                found += [(node.module, a.name, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (a.name, None, a.asname or a.name.split(".")[0])
                for a in node.names
                if a.name.split(".")[0] == "beamtrack"
            ]
    return found


def test_every_demo_import_resolves():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_", "06_"]
    unresolved = []
    for path in DEMOS:
        imports = beamtrack_imports(path)
        assert imports, f"{path.name} imports nothing from beamtrack"
        for module_name, name, _ in imports:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                unresolved.append(f"{path.name}: {module_name}")
                continue
            if name is not None and name != "*" and not hasattr(module, name):
                unresolved.append(f"{path.name}: {module_name}.{name}")
    assert not unresolved, f"demo imports that do not resolve: {unresolved}"


def test_every_demo_import_is_used():
    unused = []
    for path in DEMOS:
        names = {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {b}" for _, _, b in beamtrack_imports(path) if b not in names]
    assert not unused, f"demo imports that the demo never uses: {unused}"
