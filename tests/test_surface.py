"""Surface guard: every public function and class of an ``htvseg`` module
is read somewhere in the package or in the acceptance gate. A name that
only its own tests reach is surface to delete, not to keep. Also how the
public classes compare and how size arguments are checked."""

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

SOURCES = [*Path(htvseg.__file__).parent.glob("*.py"),
           Path(__file__).with_name("test_acceptance.py")]


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
    for info in pkgutil.iter_modules(htvseg.__path__):
        module = importlib.import_module(f"htvseg.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                surface.append(f"{info.name}.{name}")
    return sorted(surface)


def test_every_public_name_has_a_reader():
    read = _referenced_names()
    unread = [q for q in _public_surface() if q.split(".", 1)[1] not in read]
    assert unread == [], (f"read by neither htvseg nor the acceptance gate: "
                          f"{', '.join(unread)}")


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
