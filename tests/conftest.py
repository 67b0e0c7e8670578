"""Settings shared by every test file.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so a run gives the same verdict on the same code, whatever
earlier runs found.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
