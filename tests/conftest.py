import os

import pytest

from phononlab.cli import _THREAD_ENV_VARS

THREAD_VARS = ("PHONON_THREADS",) + _THREAD_ENV_VARS


@pytest.fixture(autouse=True)
def restore_thread_caps():
    """Put the thread-cap variables back as they were before each test.

    The CLI's thread cap writes them into os.environ directly, and
    monkeypatch.delenv on an unset variable records nothing to undo, so a
    test that runs the cap would otherwise size the slab workers
    (`experiments.pool_workers`) of every later test in the session.
    """
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    yield
    for var, val in saved.items():
        if val is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = val
