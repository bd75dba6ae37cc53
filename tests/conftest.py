import sys

import pytest


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
