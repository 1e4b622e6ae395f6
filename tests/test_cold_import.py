"""A cold ``import cubicext.cli`` loads no module that dataclasses pulls in.

Every CLI call is a fresh process, so the package import is paid on each.
``dataclasses`` alone loads ``inspect``, which loads ``ast``, ``dis`` and
``tokenize``; the package's value classes are made by ``ffield.record``
instead, which needs none of them.
"""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = f"import cubicext.cli, sys; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == []
