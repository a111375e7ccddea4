import os
import threading

import pytest
from hypothesis import settings

# keep property tests deterministic run-to-run, matching the package's
# reproducibility contracts
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    # rqf starts no thread, so no test may end with more threads alive than
    # it began with
    before = threading.active_count()
    yield
    alive = [t.name for t in threading.enumerate()]
    assert threading.active_count() <= before, f"threads left running: {alive}"


@pytest.fixture(autouse=True)
def no_leaked_children():
    # a batch reaps every process it forks before it returns or raises, so
    # no test may end with a child alive or unreaped
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child outlived its test: {f'pid {pid}, wait status {status}' if pid else 'still running'}")
