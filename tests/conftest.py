import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its cost stays bounded.
settings.register_profile("dimerfield", derandomize=True, deadline=None, max_examples=12, database=None)
settings.load_profile("dimerfield")
