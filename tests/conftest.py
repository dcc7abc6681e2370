import numpy as np
import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "desk",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid9():
    from psdo import GridSpec

    return GridSpec(1, 9)


@pytest.fixture
def grid9m():
    from psdo import GridSpec

    return GridSpec(1, 9, "mod")


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that gains one entry per np.fft.fftn / np.fft.ifftn call."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
