"""The package metadata names only things that exist."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent


def project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_declared_scripts_import():
    for name, target in project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_declared_readme_exists():
    readme = project()["readme"]
    path = readme if isinstance(readme, str) else readme["file"]
    assert (ROOT / path).is_file()


@pytest.mark.parametrize("module", ["specdrive.system", "specdrive.spectral"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
