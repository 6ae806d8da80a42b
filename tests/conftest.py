import os
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
CHECKER = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"


@pytest.fixture
def cli_env():
    """Environment for a child `python -m mechverify` run.

    The checkout's absolute `src` goes first on `PYTHONPATH`, so the child
    imports the same package as this process whatever its working
    directory, and whether or not the package is installed.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) if not existing else os.pathsep.join([str(SRC_DIR), existing])
    )
    return env


@pytest.fixture(scope="session")
def checker():
    """The benchmark's independent checker, which reads result documents
    with its own parser and imports nothing from the package.

    Its source is executed, not imported, so nothing under ``perfbench/``
    is written.  The module is listed in ``sys.modules`` only while its
    dataclasses are made, which look their module up there.
    """
    module = types.ModuleType("perfbench_checker")
    module.__file__ = str(CHECKER)
    sys.modules[module.__name__] = module
    try:
        exec(compile(CHECKER.read_text(), str(CHECKER), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module
