"""Suite-wide checks."""
import threading

import pytest


@pytest.fixture(autouse=True)
def no_complement_thread_left():
    """Fail the test after which a trial's complement thread is still alive."""
    yield
    left = [t for t in threading.enumerate() if t.name == "f2cayley-complement"]
    assert not left, f"{len(left)} f2cayley-complement thread(s) outlived the test"
