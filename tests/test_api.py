"""The documented public surface: every exported name exists, and the
README's library sketch runs as written."""

import importlib
import re
from pathlib import Path

import pytest

import memstep

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["memstep", *(f"memstep.{name}" for name in
                        ("grid", "kernels", "operators", "schemes", "experiments"))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert module.__all__ and missing == []


def test_package_exports_the_objects_of_its_modules():
    for name in memstep.__all__:
        obj = getattr(memstep, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj and name in home.__all__


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_sketch"})
    t, e = capsys.readouterr().out.splitlines()[0].split()
    assert float(t) == pytest.approx(4.0) and 0.0 < float(e) < 1.0
