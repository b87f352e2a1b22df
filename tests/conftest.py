import os
import time

import pytest

from exitgrid import (
    FirstPassageLaw,
    ModelParams,
    PathConfig,
    simulate_batch,
    solve_renewal_density,
)

WORKERS = min(2, os.cpu_count() or 1)

# desk-scale protocol shared by the figure/acceptance tests: one batch serves
# the triangular-limit, normal-regime, crossover and variance checks
DESK_SEED = 20260809
DESK_ETAS = tuple(round(0.5 + 0.25 * i, 2) for i in range(15))
DESK_T_EVAL = (
    0.002, 0.004, 0.006, 0.008, 0.01,
    0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
)


@pytest.fixture(scope="session")
def unit_law():
    return FirstPassageLaw(ModelParams(1.0, 1.0))


@pytest.fixture(scope="session")
def renewal_grid(unit_law):
    return solve_renewal_density(unit_law, h=0.0025, horizon=52.5)


BUILD_TIMES: dict[str, float] = {}


@pytest.fixture(scope="session")
def desk_batch():
    cfg = PathConfig(sigma=1.0, etas=DESK_ETAS, t_eval=DESK_T_EVAL, n_steps=100000,
                     n_paths=20000, seed=DESK_SEED)
    t0 = time.monotonic()
    batch = simulate_batch(cfg, workers=WORKERS)
    BUILD_TIMES["desk_batch"] = time.monotonic() - t0
    return batch


@pytest.fixture(scope="session")
def small_batch():
    cfg = PathConfig(sigma=1.0, etas=(0.5, 1.0, 2.0), t_eval=(0.125, 0.25, 0.5), n_steps=20000,
                     n_paths=2500, seed=42)
    return simulate_batch(cfg, workers=1)
