import math

import numpy as np
import pytest

from qslbounds import HermitianOperator, PureState
from qslbounds.property_suites import (  # noqa: F401  re-exported to the tests
    random_control_problem,
    random_field,
    random_hermitian,
    random_state,
)


def state(*amps) -> PureState:
    v = np.asarray(amps, dtype=complex)
    return PureState(v / np.linalg.norm(v))


def hermitian(rows) -> HermitianOperator:
    return HermitianOperator(np.asarray(rows, dtype=complex))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


HALF_PI = 0.5 * math.pi
