"""Every public top-level function or class in ``src/repro`` has a user.

A definition is *used* when its name appears outside the definition
itself:

* as a name or attribute in the code of any ``src/repro`` module — a use
  inside its own module counts, an import does not (a package
  ``__init__`` that re-exports a name binds it without using it);
* anywhere in ``benchmarks/``, ``examples/``, ``coldbench/`` or
  ``.github/``.

Tests do not count.  Code that only its own tests reach serves no figure,
example, benchmark or CI step, yet it still has to be read, kept green
and compiled on import.  :data:`ALLOWED` names the few kept on purpose,
with the reason each stays.
"""

import ast
import pathlib
import re

import pytest

import repro

SOURCE = pathlib.Path(repro.__file__).parent
REPO = SOURCE.parent.parent

#: Directories whose every mention of a name counts as a use.
CONSUMERS = ("benchmarks", "examples", "coldbench", ".github")

#: Public definitions no consumer reaches, kept on purpose.
ALLOWED = {
    # Reference implementations that tests check the live code against.
    "true_to_eccentric_anomaly": "inverse that round-trips the used anomaly conversions",
    "eccentric_to_mean_anomaly": "inverse that round-trips the Kepler solve",
    "mean_to_true_anomaly": "composed reference for the anomaly conversions",
    "ecef_to_eci": "inverse that round-trips eci_to_ecef",
    "ecef_to_geodetic": "inverse that round-trips geodetic_to_ecef",
    "look_angles": "full topocentric reference for the elevation fast path",
    "coverage_central_angle_rad": "scalar closed form of the kernels' cos-threshold screen",
    "orbital_period_s": "Keplerian reference for mean_motion_rad_s",
    # Generators whose element arrays CI's "Pool identity" step pins.
    "build_shell": "pinned by the Pool identity step (tests/constellation/test_shells.py)",
    "oneweb_like_constellation": "pinned by the Pool identity step",
    "walker_star": "pinned by the Pool identity step",
    # System behaviour asserted end to end.
    "reciprocity_scores": "tests/test_integration.py asserts sharing reciprocity with it",
    # Hooks for callers outside the figure paths.
    "clear_caches": "drops the process-default context's caches between tests",
    "BusRecorder": "the documented way to capture a bus transcript",
    "replay_trial": "named by every fuzz report's replay hint",
    "validate_validation_report": "schema check for 'validate --report' files",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _modules():
    return sorted(SOURCE.rglob("*.py"))


def _public_definitions():
    """(name, module path) of every public top-level def and class."""
    found = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                found.append((node.name, path.relative_to(REPO).as_posix()))
    return found


def _code_references():
    """Names and attributes referenced by code anywhere in ``src/repro``."""
    names = set()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _consumer_words():
    """Every identifier-like word in the consumer directories."""
    words = set()
    for directory in CONSUMERS:
        for path in sorted((REPO / directory).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            words.update(_IDENTIFIER.findall(text))
    return words


@pytest.fixture(scope="module")
def unreached():
    """Public definitions whose name nothing outside them uses."""
    used = _code_references() | _consumer_words()
    return {
        (name, path) for name, path in _public_definitions() if name not in used
    }


def test_every_public_definition_has_a_user(unreached):
    orphans = sorted(
        f"{path}: {name}" for name, path in unreached if name not in ALLOWED
    )
    assert orphans == [], (
        "public code that only tests reach; delete it with its tests, or add "
        "it to ALLOWED with the reason it stays:\n" + "\n".join(orphans)
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_entry_is_still_needed(unreached, name):
    """An entry whose definition is gone or has gained a user is stale."""
    assert name in {entry for entry, _ in unreached}

