"""The benchmark's traced run must find every entry point it wraps.

``repobench/layers.py`` times each layer from outside the program by
wrapping the functions and methods named in its ``LAYER_TABLE``.  A
rename or deletion under ``src/`` that drops one of those names makes
the traced run die at start-up, so this test reads the table (without
changing it) and checks every row against the live package.
"""

import importlib
import importlib.util
import os

import pytest

import repro.experiments  # noqa: F401  (loads every strategy module)

_LAYERS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "repobench", "layers.py"
)


def _layers_module():
    spec = importlib.util.spec_from_file_location("_repobench_layers", _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers_module()
ROWS = [
    pytest.param(module_name, path, id=f"{module_name}:{path}")
    for _layer, module_name, path, _measure in LAYERS.LAYER_TABLE
]


@pytest.mark.parametrize("module_name, path", ROWS)
def test_layer_table_entry_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." not in path:
        assert callable(getattr(module, path, None)), (
            f"{module_name} has no function {path!r}"
        )
        return
    class_name, method = path.split(".")
    if class_name == "*":
        assert LAYERS._classes_overriding(module, method), (
            f"no class under {module_name} defines {method!r}"
        )
        return
    cls = getattr(module, class_name, None)
    assert isinstance(cls, type), f"{module_name} has no class {class_name!r}"
    # The tracer wraps ``cls.__dict__[method]``: an inherited method
    # would make it fail with KeyError.
    assert method in cls.__dict__, (
        f"{module_name}.{class_name} does not itself define {method!r}"
    )
