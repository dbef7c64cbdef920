"""Tests that the public surface and its documentation name only what exists.

Each package's ``__all__`` must resolve, and every fully qualified Sphinx
cross-reference (``:mod:`repro.x```, ``:func:`repro.x.f```, ...) in the
package's modules must name a live module or attribute, so deleting a
module cannot leave a re-export or a docstring pointing at it.
"""

import importlib
import pathlib
import re

import pytest

import repro

SOURCE = pathlib.Path(repro.__file__).parent
REPO = SOURCE.parent.parent

PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(SOURCE).parts)
    for init in SOURCE.rglob("__init__.py")
)

_REFERENCE = re.compile(
    r":(?:mod|func|class|meth|attr|data|exc):`~?(repro(?:\.\w+)+)`"
)


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``; getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ModuleNotFoundError(dotted)


def _package_sources(package: str):
    """The package's own module files (subpackages are their own case)."""
    directory = SOURCE.joinpath(*package.split(".")[1:])
    return sorted(directory.glob("*.py"))


@pytest.mark.parametrize(
    "package", [name for name in PACKAGES if name != "repro.sim.kernels"]
)
def test_public_names_resolve(package):
    """``repro.sim.kernels`` is internal and declares no ``__all__``."""
    module = importlib.import_module(package)
    public = module.__all__
    assert len(public) == len(set(public)), "duplicate names in __all__"
    missing = [name for name in public if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(public) <= set(namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_cross_references_resolve(package):
    sources = _package_sources(package)
    assert sources
    broken = []
    for path in sources:
        for reference in _REFERENCE.findall(path.read_text(encoding="utf-8")):
            try:
                _resolve(reference)
            except (ImportError, AttributeError) as error:
                broken.append(f"{path.name}: {reference} ({error})")
    assert broken == []


def test_readme_examples_table_matches_examples_directory():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\| `examples/(\w+\.py)` \|", readme, flags=re.M))
    present = {path.name for path in (REPO / "examples").glob("*.py")}
    assert listed == present
