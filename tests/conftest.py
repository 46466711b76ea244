"""Suite-wide checks."""
import threading

import pytest


@pytest.fixture(autouse=True)
def no_side_thread_left():
    """Fail the test after which a helper thread of the sides' scheduler is
    still alive."""
    yield
    left = [t for t in threading.enumerate() if t.name == "f2cayley-sides"]
    assert not left, f"{len(left)} f2cayley-sides thread(s) outlived the test"
