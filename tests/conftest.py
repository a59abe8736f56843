import pytest

from orthobound import core


@pytest.fixture
def as_vector_calls(monkeypatch):
    """Names passed to core._shaped, the shape check every vector passes
    through once on its way in, while the test runs, in call order."""
    calls = []
    validate = core._shaped

    def counting(space, u, name):
        calls.append(name)
        return validate(space, u, name)

    monkeypatch.setattr(core, "_shaped", counting)
    return calls
