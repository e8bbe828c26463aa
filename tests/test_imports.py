"""Import footprint: ``import ybt``, ``ybt.exact`` and ``ybt.cli`` load only what they use.

Each check runs in a fresh interpreter, because this test process has
already imported every layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ybt

SRC = str(Path(ybt.__file__).resolve().parents[1])

# what the interpreter had loaded before the import under test is not counted
PRELUDE = "import json, sys\nbefore = set(sys.modules)\n"


def fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_ybt_loads_no_submodule():
    loaded = fresh(
        "import ybt\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert [m for m in loaded if m.startswith("ybt.")] == []
    assert "dataclasses" not in loaded


def test_import_exact_loads_no_other_submodule():
    loaded = fresh(
        "import ybt.exact\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert [m for m in loaded if m == "ybt" or m.startswith("ybt.")] == ["ybt", "ybt.exact"]


def test_import_cli_loads_only_the_shared_layers():
    loaded = set(fresh(
        "import ybt.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    ))
    assert "ybt.cli" in loaded and "ybt.tensor_core" in loaded
    unwanted = {
        "dataclasses", "inspect",
        "ybt.catalog", "ybt.factorized", "ybt.fusion", "ybt.subspace_solver",
    }
    assert loaded & unwanted == set()


def test_every_export_is_the_object_in_its_defining_module():
    report = fresh(
        "import importlib\n"
        "import ybt\n"
        "listed = set(ybt.__all__) <= set(dir(ybt))\n"
        "wrong = []\n"
        "for name in ybt.__all__:\n"
        "    owner = importlib.import_module('ybt.' + ybt._EXPORTS[name])\n"
        "    expected = owner if owner.__name__ == 'ybt.' + name else getattr(owner, name)\n"
        "    imported = {}\n"
        "    exec(f'from ybt import {name}', imported)\n"
        "    if imported[name] is not expected or getattr(ybt, name) is not expected:\n"
        "        wrong.append(name)\n"
        "    if getattr(expected, '__module__', owner.__name__) != owner.__name__:\n"
        "        wrong.append(name)\n"
        "namespace = {}\n"
        "exec('from ybt import *', namespace)\n"
        "star = sorted(set(ybt.__all__) - set(namespace))\n"
        "print(json.dumps({'listed': listed, 'wrong': wrong, 'star': star,\n"
        "                  'tensor_core': ybt.tensor_core is sys.modules['ybt.tensor_core'],\n"
        "                  'unknown': hasattr(ybt, 'no_such_name')}))\n"
    )
    assert report == {
        "listed": True, "wrong": [], "star": [], "tensor_core": True, "unknown": False,
    }

