"""Surface guard: every public function and class of an ``htvseg`` module
is read somewhere in the package or in the acceptance gate, and the top
level re-exports exactly the names its callers import from it. A name that
only its own tests, or only the re-export, reach is surface to delete, not
to keep. Also how the public classes compare and how size arguments are
checked."""

import ast
import copy
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import htvseg
from htvseg import cluster, degrade, phantom, restore
from test_readme import PYTHON_BLOCK, README

PACKAGE = Path(htvseg.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# The re-exports in __init__.py are not reads: a name only they reach is
# unread.
SOURCES = [*(path for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"), ACCEPTANCE]
SUBMODULES = {info.name for info in pkgutil.iter_modules(htvseg.__path__)}


def _referenced_names() -> set[str]:
    """Names read through AST names, attributes or imports in SOURCES."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_surface() -> list[str]:
    """'module.name' of each public function and class an htvseg module
    defines."""
    surface = []
    for short in SUBMODULES:
        module = importlib.import_module(f"htvseg.{short}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                surface.append(f"{short}.{name}")
    return sorted(surface)


def test_every_public_name_has_a_reader():
    read = _referenced_names()
    unread = [q for q in _public_surface() if q.split(".", 1)[1] not in read]
    assert unread == [], ("read by neither htvseg's modules nor the "
                          f"acceptance gate: {', '.join(unread)}")


def _top_level_imports() -> set[str]:
    """Every name other than a submodule that the README's library example,
    the benchmark's modules and the acceptance gate import with ``from
    htvseg import ...``."""
    perfbench = README.parent / "perfbench"
    texts = [*PYTHON_BLOCK.findall(README.read_text()),
             *(path.read_text() for path in perfbench.glob("*.py")),
             ACCEPTANCE.read_text()]
    names = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom) and node.module == "htvseg"
                    and node.level == 0):
                names.update(alias.name for alias in node.names)
    return names - SUBMODULES


def test_top_level_exports_exactly_what_callers_import():
    exported, imported = set(htvseg.__all__), _top_level_imports()
    assert exported == imported, (
        f"re-exported but imported by no caller: {sorted(exported - imported)}; "
        f"imported but not re-exported: {sorted(imported - exported)}")
    unlisted = [name for name, value in vars(htvseg).items()
                if not name.startswith("_") and name not in htvseg.__all__
                and not (inspect.ismodule(value) and name in SUBMODULES)]
    assert unlisted == [], f"bound in htvseg but not in __all__: {unlisted}"


def _array_dataclasses() -> dict:
    """One instance of each dataclass with array fields, made by its public
    constructor, by class name."""
    kernel = degrade.gaussian_kernel(3, 1.0)
    image = phantom.make_two_phase(8, 8)
    centers = cluster.kmeans_1d(image.image, 2)
    params = restore.SolverParams(lam=0.1, gamma=0.8, max_iter=2)
    A = degrade.LinearOperatorA.convolution(kernel, (8, 8))
    omega = np.full((8, 8), 0.5)
    instances = [kernel, A, centers, cluster.label(image.image, centers.centers),
                 image, restore.init_state(image.image, params),
                 restore.run(image.image, A, params, omega)[1]]
    return {type(instance).__name__: instance for instance in instances}


@pytest.mark.parametrize("name", [
    "BlurKernel", "LinearOperatorA", "KMeansResult", "PhaseLabeling", "Phantom",
    "SolverState", "ConvergenceReport"])
def test_array_dataclasses_compare_by_identity(name):
    """A dataclass holding arrays compares and hashes by identity: == against
    a field-equal copy is False, not numpy's ambiguous truth value, and the
    instance can key a set. SolverParams, all scalars, keeps value
    equality."""
    instance = _array_dataclasses()[name]
    twin = copy.deepcopy(instance)
    assert (instance == twin) is False
    assert (instance == instance) is True
    assert hash(instance) == hash(instance)
    assert len({instance, twin}) == 2
    params = restore.SolverParams(lam=0.1, gamma=0.8)
    assert params == restore.SolverParams(lam=0.1, gamma=0.8)


@pytest.mark.parametrize("call,message", [
    (lambda: phantom.make_two_phase(10.5, 10),
     "phantom size m must be an integer, got 10.5"),
    (lambda: phantom.make_three_phase(10, 12.7),
     "phantom size n must be an integer, got 12.7"),
    (lambda: cluster.kmeans_1d(np.linspace(0.0, 1.0, 10), 3.0),
     "cluster count k must be an integer, got 3.0"),
], ids=["two_phase_m", "three_phase_n", "kmeans_k"])
def test_integer_sizes_fail_early_naming_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
