"""Names the package promises resolve: its ``__all__`` and the demos' imports.

The demos' imports are read with ``ast``, without running the scripts, so
demo 06, which ``test_demos.py`` leaves out for its run time, is checked too.
"""

import ast
import importlib
from pathlib import Path

import beamtrack

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_name_in_all_is_an_attribute():
    missing = [name for name in beamtrack.__all__ if not hasattr(beamtrack, name)]
    assert not missing, f"beamtrack.__all__ names missing attributes: {missing}"


def beamtrack_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of each beamtrack import in a script; name None for ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "beamtrack":
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "beamtrack"
            ]
    return found


def test_every_demo_import_resolves():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_", "06_"]
    unresolved = []
    for path in DEMOS:
        imports = beamtrack_imports(path)
        assert imports, f"{path.name} imports nothing from beamtrack"
        for module_name, name in imports:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                unresolved.append(f"{path.name}: {module_name}")
                continue
            if name is not None and name != "*" and not hasattr(module, name):
                unresolved.append(f"{path.name}: {module_name}.{name}")
    assert not unresolved, f"demo imports that do not resolve: {unresolved}"
