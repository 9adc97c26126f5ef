"""Every test starts with an empty window-pass memo, so a test that forces
or observes a closed-form route sees that route run, whatever ran before."""

import pytest

from trigsum import closed_forms


@pytest.fixture(autouse=True)
def _cold_window_passes():
    closed_forms.clear_caches()
