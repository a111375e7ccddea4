import threading

import pytest
from hypothesis import settings

# keep property tests deterministic run-to-run, matching the package's
# reproducibility contracts
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    # a read that draws ahead on a helper thread joins it before returning or
    # raising, so no test may end with more threads alive than it began with
    before = threading.active_count()
    yield
    alive = [t.name for t in threading.enumerate()]
    assert threading.active_count() <= before, f"threads left running: {alive}"
