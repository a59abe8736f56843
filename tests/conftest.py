import pytest

from orthobound import core


@pytest.fixture
def as_vector_calls(monkeypatch):
    """Names passed to core.as_vector while the test runs, in call order."""
    calls = []
    validate = core.as_vector

    def counting(space, u, name="vector"):
        calls.append(name)
        return validate(space, u, name)

    monkeypatch.setattr(core, "as_vector", counting)
    return calls
