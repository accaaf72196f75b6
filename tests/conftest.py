"""Suite-wide test settings.

Hypothesis runs a fixed example sequence and keeps no example database, so
every run of the suite tests the same inputs and writes nothing.  The
``small_blocks`` fixture lets parity tests cross the walkers' block
boundaries with a handful of walkers.
"""

import pytest
from hypothesis import settings

from envwalk import walks

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 45 walker-steps: 6 walkers take 7 steps per block, 5 take 9
    and 4 pairs 5, and none of these divides the step counts the parity
    tests use."""
    monkeypatch.setattr(walks, "_BLOCK_ELEMENTS", 45)
