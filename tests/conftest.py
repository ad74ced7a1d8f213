import pytest
from hypothesis import settings

from delaygrowth import functionals

settings.register_profile("ci", derandomize=True, max_examples=200)
settings.load_profile("ci")


@pytest.fixture
def probes(monkeypatch):
    """The log x of every probe that an evaluator built during the test makes."""
    seen = []
    build = functionals._evaluator

    def counted(*args):
        value_at = build(*args)

        def probe(log_x):
            seen.append(log_x)
            return value_at(log_x)
        return probe
    monkeypatch.setattr(functionals, "_evaluator", counted)
    return seen
