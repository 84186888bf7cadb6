"""The package root exports exactly the public names it binds."""

import inspect

import cliquex


def test_every_name_in_all_imports_from_the_package():
    namespace: dict = {}
    exec("from cliquex import *", namespace)  # raises AttributeError on a name cliquex does not bind
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(cliquex.__all__)


def test_every_public_name_at_the_root_is_in_all():
    public = {name for name, value in vars(cliquex).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(cliquex.__all__)
