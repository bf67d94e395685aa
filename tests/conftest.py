import os
from pathlib import Path

import pytest
from mpmath import iv, mp


def pytest_configure(config):
    # pytest puts src/ on sys.path (pythonpath in pyproject.toml); the same
    # entry on PYTHONPATH lets the interpreters that tests start import the
    # package too
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [src, *paths] if p)


@pytest.fixture(autouse=True)
def global_precision_unchanged():
    """Fail any test that leaves mp.prec or iv.prec changed.

    A leaked precision silently changes what later tests compute, so a test
    that needs more bits scopes them with mp.workprec.
    """
    before = (mp.prec, iv.prec)
    yield
    after = (mp.prec, iv.prec)
    if after != before:
        mp.prec, iv.prec = before
        pytest.fail(f"test left (mp.prec, iv.prec) at {after}, was {before}")
