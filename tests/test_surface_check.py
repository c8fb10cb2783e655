"""Tests for ``scripts/surface_check.py``, the CI gate that fails on a
definition under ``src/`` that nothing mentions and on an unused
module-level import."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "surface_check.py")


@pytest.fixture()
def surface_check():
    spec = importlib.util.spec_from_file_location("surface_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_surface_passes(surface_check):
    assert surface_check.check() == []


def test_reports_unmentioned_definitions_and_unused_imports(surface_check, tmp_path,
                                                            monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    # a package __init__ imports to re-export, so its imports are exempt
    (package / "__init__.py").write_text("import os\n")
    (package / "mod.py").write_text(
        "import os\n"
        "import sys\n"
        "\n"
        "\n"
        "def called():\n"
        "    return sys.argv\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self.value = called()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Holder, called\n")
    (tmp_path / "README.md").write_text("# pkg\n")
    monkeypatch.setattr(surface_check, "REPO_ROOT", str(tmp_path))

    assert surface_check.check() == [
        os.path.join("src", "pkg", "mod.py") + ":1: import of 'os' is never used",
        os.path.join("src", "pkg", "mod.py") + ":9: 'orphan' is mentioned nowhere "
        "but its definition",
    ]
