import os

import pytest

# the real functions, taken before any test replaces them
_getaffinity = getattr(os, "sched_getaffinity", None)
_setaffinity = getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def keep_this_process_cpus():
    """Give the test process back its CPUs after each test.

    A sweep restores the CPU set that ``os.sched_getaffinity`` returned, so
    one run under a faked set (``{0, 1}``, ``{0, 1, 2}``) really narrows this
    process on a host with more CPUs, and later tests would see fewer.
    """
    if _getaffinity is None:
        yield
        return
    before = _getaffinity(0)
    yield
    _setaffinity(0, before)
