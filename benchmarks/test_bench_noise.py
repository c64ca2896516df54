"""Keyed-noise micro-benchmarks: cost per draw and per known-domain top-k.

Run from the repository root (outside the Tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_noise.py \
        --benchmark-json=BENCH_5.json

Shapes: ``labeled_laplace`` over 2 000 labels; ``indexed_gumbel`` over the
992 cut indices ``range(9, 1001)`` of an unknown-domain query with k = 9 and
d_bar = 1000; ``exp_known`` (k = 10) over a 4 000-value known domain with
Zipf-like counts.  ``reference_laplace`` draws the same 2 000 labels through
``substream(...).uniform()`` and ``laplace_from_uniform``, the path that
``KeyedNoise`` must match bit for bit, so one run shows both costs on the
same machine.  The committed ``BENCH_5.json`` was taken on a 2-core Intel
Xeon virtual machine (Python 3.11.7, numpy 2.4.6); its ``machine_info``
block records the rest.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from dpquery.mechanisms import PrivacyParams, exp_known
from dpquery.noise import KeyedNoise, NoiseKey, derive_seed, laplace_from_uniform, substream

SEED = derive_seed(NoiseKey(b"bench-secret", "bench-query", date(2020, 6, 30)))
LABELS = [f"title-{i}" for i in range(2000)]
DOMAIN = [(f"skill-{i:04d}", int(5000 / (i + 1))) for i in range(4000)]


@pytest.fixture
def noise() -> KeyedNoise:
    return KeyedNoise(SEED)


def test_labeled_laplace_2000(benchmark, noise):
    out = benchmark(noise.labeled_laplace, "count", LABELS, 2.0)
    assert out.shape == (2000,)


def test_reference_laplace_2000(benchmark):
    def reference():
        return np.array([laplace_from_uniform(substream(SEED, f"count:{x}").uniform(), 2.0) for x in LABELS])

    assert benchmark(reference).tobytes() == KeyedNoise(SEED).labeled_laplace("count", LABELS, 2.0).tobytes()


def test_indexed_gumbel_992(benchmark, noise):
    out = benchmark(noise.indexed_gumbel, "cut", range(9, 1001), 1.0)
    assert out.shape == (992,)


def test_exp_known_4000(benchmark, noise):
    out = benchmark(exp_known, DOMAIN, 10, 1, PrivacyParams(1.0), noise)
    assert len(out) == 10
