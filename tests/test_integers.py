"""Every count and seed the library takes is checked in one place.

Each (entry point, integer parameter) pair accepts a numpy integer as the
equal Python int, so a numpy unsigned value never wraps in later arithmetic,
and refuses a bool or a float with a ValueError that names the parameter.
"""

import numpy as np
import pytest

from hdcode import Codebook, exhaustive_best_codebook, genetic_local_search
from hdcode.linksim import SHARD_SIZE, ChannelParams, simulate_bler
from hdcode.metrics import BlerRow, bler_table
from hdcode.search import DesignConfig

BOOK = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
QUICK = {"patience": 2, "max_generations": 4}


def design(**fields):
    return genetic_local_search(6, 3, 3, DesignConfig(**{**QUICK, **fields}))


def search_at(n=6, k=3, d=3):
    return genetic_local_search(n, k, d, DesignConfig(**QUICK))


def simulate(trials=SHARD_SIZE + 5, seed=0, threads=2):
    return simulate_bler(BOOK, ChannelParams(-5.0), trials, seed, threads)


def sim_table(trials=500, seed=0, threads=2):
    return bler_table(BOOK, [0.0, 4.0], mode="sim", trials=trials, seed=seed, threads=threads)


# (parameter name, call taking the value, a numpy value of it)
INTEGER_PARAMETERS = {
    "DesignConfig.population_size": ("population_size", lambda v: design(population_size=v),
                                     np.uint8(4)),
    "DesignConfig.init_size_range.low": ("init_size_range",
                                         lambda v: design(init_size_range=(v, 5)), np.uint8(2)),
    "DesignConfig.init_size_range.high": ("init_size_range",
                                          lambda v: design(init_size_range=(1, v)), np.uint16(3)),
    # patience + 1 generations without progress stop the search; in uint8,
    # -(patience + 1) wraps and would stop it after patience generations
    "DesignConfig.patience": ("patience", lambda v: genetic_local_search(
        6, 3, 3, DesignConfig(patience=v, max_generations=50)), np.uint8(2)),
    "DesignConfig.max_generations": ("max_generations", lambda v: design(max_generations=v),
                                     np.uint16(3)),
    "DesignConfig.seed": ("seed", lambda v: design(seed=v), np.uint64(7)),
    "genetic_local_search.n": ("n", lambda v: search_at(n=v), np.uint8(6)),
    "genetic_local_search.k": ("k", lambda v: search_at(k=v), np.int64(3)),
    "genetic_local_search.d": ("d", lambda v: search_at(d=v), np.uint16(3)),
    "exhaustive_best_codebook.n": ("n", lambda v: exhaustive_best_codebook(v, 2, 2), np.uint8(4)),
    "exhaustive_best_codebook.k": ("k", lambda v: exhaustive_best_codebook(4, v, 2), np.int64(2)),
    "exhaustive_best_codebook.d": ("d", lambda v: exhaustive_best_codebook(4, 2, v),
                                   np.uint16(2)),
    # in uint8 the shard arithmetic of 200 trials overflows, and in uint16
    # -trials wraps, so 60,000 trials come to 0 shards
    "simulate_bler.trials": ("trials", lambda v: simulate(trials=v), np.uint8(200)),
    "simulate_bler.trials.uint16": ("trials", lambda v: simulate(trials=v), np.uint16(60_000)),
    "simulate_bler.seed": ("seed", lambda v: simulate(seed=v), np.uint64((1 << 64) - 1)),
    "simulate_bler.threads": ("threads", lambda v: simulate(threads=v), np.uint8(2)),
    "bler_table.trials": ("trials", lambda v: sim_table(trials=v), np.uint8(200)),
    "bler_table.seed": ("seed", lambda v: sim_table(seed=v), np.int64(3)),
    "bler_table.threads": ("threads", lambda v: sim_table(threads=v), np.uint8(2)),
    # in uint8, trials + 2 wraps at 255 trials
    "BlerRow.from_counts.errors": ("errors", lambda v: BlerRow.from_counts(4.0, v, 255),
                                   np.uint8(3)),
    "BlerRow.from_counts.trials": ("trials", lambda v: BlerRow.from_counts(4.0, 3, v),
                                   np.uint8(255)),
}


@pytest.mark.parametrize("name, call, numpy_value", INTEGER_PARAMETERS.values(),
                         ids=INTEGER_PARAMETERS.keys())
def test_integer_parameter(name, call, numpy_value):
    """A numpy integer gives what the equal Python int gives, down to the repr, so
    no numpy scalar is stored; a bool (True would run as 1) and a float are refused."""
    assert repr(call(numpy_value)) == repr(call(int(numpy_value)))
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)
