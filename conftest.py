"""Shared test setup: every test runs on one worker unless it sets PHASELAB_THREADS itself.

Tests that spy on block order or bound memory assume one worker, so the
caller's environment must not decide their verdict.  The value is set for the
whole session, so module-scoped fixtures see it too.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _one_worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PHASELAB_THREADS", "1")
        yield
