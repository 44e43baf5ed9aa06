import pytest
from hypothesis import Phase, settings

from symplie.checks import RepTensor, StructureTensor

settings.register_profile("ci", deadline=None, max_examples=60)
# ci without the shrink phase, for the CI job: every example still runs and
# a failing one still fails its test, but pytest reports it at once instead
# of spending minutes shrinking it; select it with
# --hypothesis-profile=ci-no-shrink (local runs keep shrinking)
settings.register_profile(
    "ci-no-shrink", settings.get_profile("ci"),
    phases=tuple(p for p in settings.get_profile("ci").phases if p is not Phase.shrink))
settings.load_profile("ci")


class _RefusedView:
    """A dense view (StructureTensor.c, RepTensor.t) whose read fails.  A
    tensor built from its dense entries keeps them, so only a view that a
    list-built tensor would build on first read is refused."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        raise AssertionError("the dense view of a %s was built" % cls.__name__)


@pytest.fixture
def refuse_dense_views(monkeypatch):
    """A call that makes every later first read of a dense view fail."""
    def refuse():
        monkeypatch.setattr(StructureTensor, "c", _RefusedView())
        monkeypatch.setattr(RepTensor, "t", _RefusedView())
    return refuse


@pytest.fixture
def list_builds(monkeypatch):
    """Every StructureTensor built by StructureTensor.listed, in order."""
    built, real = [], StructureTensor.listed.__func__

    def listed(cls, *args):
        built.append(real(cls, *args))
        return built[-1]
    monkeypatch.setattr(StructureTensor, "listed", classmethod(listed))
    return built
