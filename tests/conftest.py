"""Suite-wide checks."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or
    exited but unreaped: the CSV writer forks, and must reap every worker."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    state = f"pid {pid}, exited" if pid else "still running"
    pytest.fail(f"a child process was left behind ({state})")
