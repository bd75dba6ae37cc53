import os
import sys
import tempfile

import hypothesis
import pytest
from hypothesis import settings


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` counts the calls of ``fn`` made through any
    ``sncoint`` module; it returns the list of their positional arguments."""

    def count(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "sncoint" or name.startswith("sncoint."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return count


@pytest.fixture
def chunks_of_8(monkeypatch):
    """Monte Carlo studies run in chunks of 8 replications, so a small study
    at workers > 1 runs several tasks on a process pool. The chunk size sets
    the speed only, never the results."""
    from sncoint import montecarlo

    monkeypatch.setattr(montecarlo, "_chunk_size", lambda reps, T, rows: 8)


# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic. Hypothesis still caches the
# constants it reads from source files; that cache goes to the temporary
# directory, so no .hypothesis/ appears in the working tree.
hypothesis.configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), ".hypothesis"))
settings.register_profile("sncoint", derandomize=True, deadline=None, database=None)
settings.load_profile("sncoint")
