import numpy as np
import pytest

from debranges.hb_core import HBSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_random_spec(rng, min_degree=3, max_degree=12):
    n = int(rng.integers(min_degree, max_degree + 1))
    zeros = [complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1)) for _ in range(n)]
    return HBSpec(zeros=zeros)


def reference_specs():
    """The hb_verify benchmark specs by degree: zeros from default_rng(0),
    drawn in the benchmark's degree order."""
    base = np.random.default_rng(0)
    return {
        n: HBSpec(
            zeros=tuple(
                complex(base.uniform(-3.0, 3.0), base.uniform(-3.0, -0.1))
                for _ in range(n)
            )
        )
        for n in (3, 256, 8, 128, 24, 65, 64)
    }


def xi_sweep_spec():
    """The xi_sweep benchmark spec: 12 zeros from default_rng(0)."""
    base = np.random.default_rng(0)
    return HBSpec(
        zeros=tuple(complex(base.uniform(-3, 3), base.uniform(-3, -0.1)) for _ in range(12))
    )
