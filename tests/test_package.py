"""The package's public names: each module's ``__all__``, republished as is."""

import importlib

import antichains

# ``antichains.shear`` is the shear function, not its module, so the modules
# are looked up by their full names
REPUBLISHED = tuple(
    importlib.import_module(f"antichains.{name}")
    for name in ("estimate", "extremal", "gridcover", "lattice", "partition", "shear", "surfaces")
)
QUADRATURE = importlib.import_module("antichains.quadrature")


def _public() -> dict:
    return {name: value for name, value in vars(antichains).items() if not name.startswith("_")}


def test_public_names_are_the_modules_all_lists_and_submodules():
    exported = {name for module in REPUBLISHED for name in module.__all__}
    public = _public()
    assert exported <= public.keys()
    # the rest are submodules that the import system set as attributes;
    # which are there depends on what was imported first (the CLI, say)
    rest = public.keys() - exported
    assert {"estimate", "extremal", "gridcover", "lattice", "partition", "quadrature"} <= rest
    for name in rest:
        assert public[name] is importlib.import_module(f"antichains.{name}")


def test_each_name_is_its_defining_modules_object():
    for module in REPUBLISHED:
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(antichains, name) is getattr(module, name), (module.__name__, name)


def test_quadrature_names_stay_unexported():
    assert QUADRATURE.__all__
    assert _public().keys().isdisjoint(QUADRATURE.__all__)


def test_public_classes_have_their_own_docstrings():
    # dataclasses fills a missing docstring with the class's signature
    classes = [
        getattr(module, name)
        for module in (*REPUBLISHED, QUADRATURE)
        for name in module.__all__
        if isinstance(getattr(module, name), type)
    ]
    assert len(classes) > 10
    for cls in classes:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls.__name__
