import pytest
from mpmath import iv, mp


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
