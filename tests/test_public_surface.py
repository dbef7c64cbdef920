"""Every public definition in ``src/repro`` has a user.

The guard covers every public top-level function and class, and every
public method and property of every class (keyed ``"Class.member"``).  A
definition is *used* when its name appears outside the definition itself:

* as a name or attribute in the code of any ``src/repro`` module — a use
  inside its own module counts, an import does not (a package
  ``__init__`` that re-exports a name binds it without using it);
* anywhere in ``benchmarks/``, ``examples/``, ``coldbench/`` or
  ``.github/``.

A member counts as used when its bare name is: the scan does not know
which class an attribute belongs to.  That is its blind spot — a member
whose name matches any other attribute in use passes, as a dead method
named ``get`` or ``add`` would on any ``dict.get`` or ``set.add`` call.
A reviewer checks such names by hand.

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
    "shannon_capacity_bps": "the bound test_all_below_shannon checks the MODCOD ladder against",
    # Generators whose element arrays CI's "Pool identity" step pins.
    "build_shell": "pinned by the Pool identity step (tests/constellation/test_shells.py)",
    "oneweb_like_constellation": "pinned by the Pool identity step",
    "walker_star": "pinned by the Pool identity step",
    # System behaviour asserted end to end.
    "reciprocity_scores": "tests/test_integration.py asserts sharing reciprocity with it",
    # Hooks for callers outside the figure paths.
    "clear_caches": "drops the process-default context's caches between tests",
    "replay_trial": "named by every fuzz report's replay hint",
    "validate_validation_report": "schema check for 'validate --report' files",
    # Members that only tests reach, kept on purpose.
    "GovernanceBoard.vote": "the board's only way to count a second party's vote; "
    "keeping core.governance at all is an open ROADMAP question",
    "ExperimentContext.cached_visibility": "tests pin the grid cache's keying and release",
    "ExperimentContext.cached_intervals": "tests pin the interval cache's keying and release",
    "ExperimentContext.cached_pool_seeds": "tests pin the pool cache's keying and release",
}

#: Members the scan must see and find used, so it cannot pass vacuously:
#: two that ``src`` code calls, then a property and a method that only
#: consumer directories (``examples/``, ``benchmarks/``) reach.
LIVE_MEMBERS = (
    "PackedVisibility.site_union",
    "DownlinkScheduler.run",
    "SimulationResult.total_served_megabits",
    "DownlinkScheduleResult.fairness_index",
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _modules():
    return sorted(SOURCE.rglob("*.py"))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _public_definitions():
    """(key, module path) of every public top-level def and class, and of
    every public method and property of every class (``"Class.member"``)."""
    found = []
    for path in _modules():
        module = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
                found.append((node.name, module))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                    found.append((f"{cls.name}.{node.name}", module))
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
        (key, path)
        for key, path in _public_definitions()
        if key.rsplit(".", 1)[-1] not in used
    }


def test_every_public_definition_has_a_user(unreached):
    orphans = sorted(
        f"{path}: {key}" for key, path in unreached if key not in ALLOWED
    )
    assert orphans == [], (
        "public code that only tests reach; delete it with its tests, or add "
        "it to ALLOWED with the reason it stays:\n" + "\n".join(orphans)
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_entry_is_still_needed(unreached, name):
    """An entry whose definition is gone or has gained a user is stale."""
    assert name in {entry for entry, _ in unreached}



@pytest.mark.parametrize("key", LIVE_MEMBERS)
def test_scan_sees_live_members(unreached, key):
    """The member scan finds methods and counts their uses."""
    assert key in {entry for entry, _ in _public_definitions()}
    assert key not in {entry for entry, _ in unreached}
