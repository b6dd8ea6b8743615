import pytest
from hypothesis import HealthCheck, settings

from charscan.arith import build_spf

settings.register_profile(
    "charscan",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("charscan")


@pytest.fixture(scope="session")
def spf_2k():
    return build_spf(2_000)
