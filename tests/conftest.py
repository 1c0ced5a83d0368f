"""Shared test configuration: every hypothesis property is deterministic.

The profile derandomizes example generation and keeps no example
database, so each run of the suite draws the same examples.  Each property
still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
