"""Golden outputs for fixed seeds: a refactor of the codebook or search layers
must reproduce these reports, simulation counts and sim rows exactly.

Weight histories are stored run-length encoded as (fitness, generations).
"""

import hashlib
import itertools

import pytest

from hdcode import ChannelParams, Codebook, bler_table, serialize_codebook, simulate_bler
from hdcode.search import DesignConfig, genetic_local_search

DESIGN_GOLDEN = [
    ((7, 3, 3), 0, 37, 21, [(36, 1), (37, 21)],
     "b948b5ef9c022270e3b3098e31a752162de78a10528ec7b8b1afc4a2f8e40eea"),
    ((7, 3, 3), 1, 37, 20, [(37, 21)],
     "1c41ff13f59e800d811a93398d30e172bcde61c387dece063fac4038625d60ff"),
    ((7, 3, 3), 2, 37, 20, [(37, 21)],
     "c7b6127157bd359758bcbe0d40c8818ab623b9d3d370374d9c0b24a6996ba4eb"),
    ((10, 3, 4), 0, 58, 20, [(58, 21)],
     "0781f1bdca5939014582ce8fb96de47b0d7a3b10360f2c4d7ef1d5cb020503b5"),
    ((10, 3, 4), 1, 58, 21, [(56, 1), (58, 21)],
     "276173385ee13bcb15c245cf5ec835f5d3add03e2fdb684571cec13c79031ad6"),
    ((10, 3, 4), 2, 58, 20, [(58, 21)],
     "e2f9e190df79f961c083b7d9922ea396d43d7b76e43c18aa21c6a69077cace58"),
    ((10, 5, 3), 0, 203, 25, [(201, 4), (202, 1), (203, 21)],
     "eb737528498faa5479d13f4e7020792a4e0537cb0fd8cc4f4ac0db52e3aef2c4"),
    ((10, 5, 3), 1, 200, 26, [(198, 2), (199, 4), (200, 21)],
     "820d566239d49b593b4413e1000f35726507dfc31d92a72c3777be43fe719858"),
    ((10, 5, 3), 2, 204, 78,
     [(198, 13), (199, 12), (200, 10), (202, 9), (203, 14), (204, 21)],
     "65ff17accc461055960c9ca84cc9f1de568c0e3c1655a4872564ef1067eae7b3"),
    # seeds of two and three 32-bit words: each mutation stream's entropy is 5 and 6 words
    ((10, 5, 3), 1 << 32, 204, 45, [(199, 3), (200, 15), (202, 7), (204, 21)],
     "82345be840250ba45970372e6c72d04863b953830d0f784182a7f612bf418f32"),
    ((10, 5, 3), (1 << 64) + 5, 204, 63, [(200, 8), (201, 15), (202, 20), (204, 21)],
     "dab87e62cbc99a1147e02e7b0445ad89b0aca55c2bb624ce127306f4003de9cf"),
]

# n >= 16, where extend_codebook works on many 2,048-word blocks, capped at the pinned
# generation count with patience equal to it: (18, 4, 6) extends books on both sides of the
# line between spreading an input book's balls block by block and dilating them on the
# bitset, (16, 12, 2) runs the d = 2 waves, and (18, 14, 2) ranks books of about 2**17
# words against each other for three generations
BITSET_DESIGN_GOLDEN = [
    ((16, 6, 4), 0, 784, 3, [(784, 4)],
     "59570358449d87e58d5cd7a9b06dd7d81cb3c3b602879e2c5fc3a2fcc0ba6a1c"),
    ((18, 3, 7), 0, 106, 3, [(106, 4)],
     "ca5fb1e7cb745a12bb284a81d8b7c48a763bd97662135007444eff0e90d7801c"),
    ((18, 4, 6), 0, 214, 3, [(214, 4)],
     "03bdb769a3c2dd268390873da4dbe82695796aa54caa67526953a772b0358457"),
    ((16, 12, 2), 0, 46240, 1, [(46240, 2)],
     "382ee140c792f9f00c3b40c13007bc9cb7efd992da700007a05e72acb63a8b73"),
    ((18, 14, 2), 0, 203346, 3, [(203346, 4)],
     "8a4373db2c094865db32415f2b0251dcd2a7fa7dfab23833f14e522bd7e3e2c6"),
]

# a (7, 3, 3) codebook and its Monte Carlo error counts at seed 7, 40000 trials
SIM_BOOK = (7, 3, 3, [0b0000000, 0b1110000, 0b1001100, 0b0111100,
                      0b0101010, 0b1011010, 0b1100110, 0b0010110])
SIM_GOLDEN = [(0.0, 6011), (2.0, 2261), (4.0, 510)]
# the (snr_db, bler, ci95) rows of its sim bler_table at 40000 trials, seed 7
SIM_TABLE_GOLDEN = [(0.0, 0.150925, 0.003508329220246769),
                    (2.0, 0.056525, 0.0022635579547979966),
                    (4.0, 0.01265, 0.0010962747439802786)]


def check_report(report, ones, generations, history, digest):
    assert report.best_ones == ones
    assert report.generations_run == generations
    runs = [(w, len(list(g))) for w, g in itertools.groupby(report.weight_history)]
    assert runs == history
    text = serialize_codebook(report.best)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("instance, seed, ones, generations, history, digest", DESIGN_GOLDEN)
def test_design_report_pinned(instance, seed, ones, generations, history, digest):
    report = genetic_local_search(*instance, DesignConfig(seed=seed))
    check_report(report, ones, generations, history, digest)


@pytest.mark.parametrize(
    "instance, seed, ones, generations, history, digest", BITSET_DESIGN_GOLDEN
)
def test_bitset_design_report_pinned(instance, seed, ones, generations, history, digest):
    config = DesignConfig(seed=seed, max_generations=generations, patience=generations)
    check_report(genetic_local_search(*instance, config), ones, generations, history, digest)


@pytest.mark.parametrize("snr_db, errors", SIM_GOLDEN)
def test_simulation_errors_pinned(snr_db, errors):
    book = Codebook.from_values(*SIM_BOOK)
    assert simulate_bler(book, ChannelParams(snr_db), trials=40000, seed=7) == errors


@pytest.mark.parametrize("threads", [1, 2])
def test_sim_table_floats_pinned(threads):
    """Every bit of each row's BLER and interval, not only its error count."""
    book = Codebook.from_values(*SIM_BOOK)
    table = bler_table(book, [0, 2, 4], mode="sim", trials=40000, seed=7, threads=threads)
    assert [(r.snr_db, r.bler, r.ci95) for r in table.rows] == SIM_TABLE_GOLDEN
    assert all(r.trials == 40000 for r in table.rows)
