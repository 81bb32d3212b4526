"""The package namespace is lazy: names resolve from their submodules on use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import frieze_lab as fl


def test_every_public_name_is_its_submodules_object():
    assert len(fl.__all__) == len(set(fl.__all__))
    for name in fl.__all__:
        sub = import_module(f"frieze_lab.{fl._ORIGIN[name]}")
        assert getattr(fl, name) is getattr(sub, name), name


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(fl)
    assert set(fl.__all__) <= set(listed)
    assert {"hill", "cluster", "curves", "frieze", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fl.no_such_name
    assert not hasattr(fl, "cli_main")


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from frieze_lab import *", ns)
    assert set(fl.__all__) <= set(ns)
    assert all(ns[name] is getattr(fl, name) for name in fl.__all__)


def test_names_are_read_from_the_submodule_on_every_access(monkeypatch):
    # a binding replaced in the submodule and then restored shows through,
    # so nothing may be cached in the package globals
    original = fl.hill_solve
    assert "hill_solve" not in vars(fl)
    monkeypatch.setattr(fl.hill, "hill_solve", len)
    assert fl.hill_solve is len
    monkeypatch.undo()
    assert fl.hill_solve is original


def test_fresh_import_loads_no_numpy_and_resolves_submodules():
    child = (
        "import sys\n"
        "import frieze_lab as fl\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'frieze_lab.hill' not in sys.modules and 'frieze_lab.cluster' not in sys.modules\n"
        "assert fl.hill is sys.modules['frieze_lab.hill']\n"
        "assert fl.cluster is sys.modules['frieze_lab.cluster']\n"
        "assert fl.hill.hill_solve is fl.hill_solve\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fl.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
