"""The package's public surface: `teachsel.__all__` and its docstrings."""

import inspect

import teachsel


def test_every_name_in_all_resolves_once():
    assert len(set(teachsel.__all__)) == len(teachsel.__all__)
    for name in teachsel.__all__:
        assert hasattr(teachsel, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from teachsel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(teachsel.__all__)


def test_every_public_class_and_function_has_its_own_docstring():
    for name in teachsel.__all__:
        obj = getattr(teachsel, name)
        if inspect.isclass(obj):
            doc = vars(obj)["__doc__"]  # not one inherited from a base class
        elif inspect.isfunction(obj):
            doc = obj.__doc__
        else:
            continue  # type aliases such as FeatureSubset
        # A dataclass without a docstring is given its signature as one.
        assert doc and not doc.startswith(f"{name}("), name
