"""Suite-wide test settings.

Hypothesis runs a fixed example sequence and keeps no example database, so
every run of the suite tests the same inputs and writes nothing.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
