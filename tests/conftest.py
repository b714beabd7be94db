"""Shared test settings: one hypothesis profile for every property test,
deterministic and without an example database, and no per-example
deadline (the CLI and ring examples vary widely in run time)."""

from hypothesis import settings

settings.register_profile("hyperhom", deadline=None, derandomize=True, database=None)
settings.load_profile("hyperhom")
