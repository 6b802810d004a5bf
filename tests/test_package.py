"""The package namespace: one list of public names, the modules' own."""
import mrkit
from mrkit import data, estimators, orientation, regression, simulation

MODULES = (data, estimators, orientation, regression, simulation)


def test_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert mrkit.__all__ == names + ["__version__"]
    assert "DEFAULT_REPLICATES" in mrkit.__all__


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mrkit, name) is getattr(module, name), name
