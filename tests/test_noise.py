from __future__ import annotations

import hashlib
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpquery.noise import (
    THRESHOLD_STREAM_ID,
    ConfigurationError,
    KeyedNoise,
    NoiseKey,
    ParameterError,
    SimNoise,
    canonical_filter,
    canonical_query,
    derive_seed,
    gumbel_from_uniform,
    laplace_from_uniform,
)
from dpquery.store import normalize_filter
from oracles import CHI2_CRIT_01, NoiseStream, ZeroNoise, chi_square_stat, gumbel, laplace, substream

from conftest import SECRET

KEY = NoiseKey(secret=SECRET, query_canon="k=5&table=events", data_date=date(2020, 1, 1))

EULER_GAMMA = 0.5772156649015329


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(KEY) == derive_seed(KEY)
        assert len(derive_seed(KEY)) == 32

    def test_date_separates_snapshots(self):
        other = NoiseKey(SECRET, KEY.query_canon, date(2020, 1, 2))
        assert derive_seed(KEY) != derive_seed(other)

    def test_secret_separates(self):
        # Independently evaluate the keyed hash under a second secret and
        # check the seeds disagree.
        other = NoiseKey(b"\x01" * 32, KEY.query_canon, KEY.data_date)
        assert derive_seed(KEY) != derive_seed(other)

    def test_query_separates(self):
        other = NoiseKey(SECRET, "k=6&table=events", KEY.data_date)
        assert derive_seed(KEY) != derive_seed(other)

    def test_empty_secret_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_seed(NoiseKey(b"", "q", date(2020, 1, 1)))

    def test_length_prefixing_blocks_field_sliding(self):
        # Moving a byte between fields must change the seed.
        a = NoiseKey(SECRET, "ab", date(2020, 1, 1))
        b = NoiseKey(SECRET, "a", date(2020, 1, 1))
        assert derive_seed(a) != derive_seed(b)


class TestSubstreams:
    def test_deterministic(self):
        seed = derive_seed(KEY)
        s1, s2 = substream(seed, "a"), substream(seed, "a")
        assert s1.seed == s2.seed
        assert s1.uniform() == s2.uniform()

    def test_distinct_ids_differ(self):
        seed = derive_seed(KEY)
        assert substream(seed, "a").uniform() != substream(seed, "b").uniform()

    def test_threshold_stream_reserved(self):
        seed = derive_seed(KEY)
        t1 = substream(seed, THRESHOLD_STREAM_ID)
        t2 = substream(seed, THRESHOLD_STREAM_ID)
        assert t1.uniform() == t2.uniform()

    def test_counter_advances(self):
        stream = substream(derive_seed(KEY), "a")
        first, second = stream.uniform(), stream.uniform()
        assert first != second
        assert stream.counter == 2

    def test_order_independence(self):
        # The per-element noise vector must not depend on enumeration order.
        seed = derive_seed(KEY)
        labels = [f"el{i}" for i in range(50)]
        forward = {x: substream(seed, x).uniform() for x in labels}
        backward = {x: substream(seed, x).uniform() for x in reversed(labels)}
        assert forward == backward

    def test_substreams_look_independent(self):
        # Draws across distinct substreams are uncorrelated and uniform.
        seed = derive_seed(KEY)
        a = np.array([substream(seed, f"x:{i}").uniform() for i in range(20_000)])
        b = np.array([substream(seed, f"y:{i}").uniform() for i in range(20_000)])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
        assert abs(a.mean() - 0.5) < 0.01
        assert abs(a.var() - 1 / 12) < 0.002


class TestInverseCdfs:
    def test_laplace_median_is_zero(self):
        assert laplace_from_uniform(0.5, 1.0) == 0.0

    def test_laplace_upper_quartile(self):
        # Pr[X <= ln 2] = 3/4 for Laplace(1).
        assert laplace_from_uniform(0.75, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_laplace_symmetry(self):
        assert laplace_from_uniform(0.25, 1.0) == pytest.approx(-math.log(2), abs=1e-12)

    def test_laplace_scale_validated(self):
        with pytest.raises(ParameterError):
            laplace_from_uniform(0.3, 0.0)
        with pytest.raises(ParameterError):
            laplace(NoiseStream(b"\x00" * 32), -1.0)

    def test_gumbel_zero_point(self):
        assert gumbel_from_uniform(math.exp(-1), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_gumbel_median(self):
        assert gumbel_from_uniform(0.5, 1.0) == pytest.approx(-math.log(math.log(2)), abs=1e-12)

    def test_gumbel_scale_validated(self):
        with pytest.raises(ParameterError):
            gumbel_from_uniform(0.3, 0.0)

    def test_clamped_uniforms_keep_transforms_finite(self):
        for u in (2.0**-53, 1.0 - 2.0**-53):
            assert math.isfinite(laplace_from_uniform(u, 1.0))
            assert math.isfinite(gumbel_from_uniform(u, 1.0))

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_laplace_antisymmetric_in_u(self, u):
        # Away from the extreme tails, where rounding of 1 - u is not yet
        # amplified by the log.
        assert laplace_from_uniform(u, 2.0) == pytest.approx(
            -laplace_from_uniform(1.0 - u, 2.0), rel=1e-9, abs=1e-12
        )

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_is_multiplicative(self, u, b):
        assert laplace_from_uniform(u, b) == pytest.approx(
            b * laplace_from_uniform(u, 1.0), rel=1e-12
        )
        assert gumbel_from_uniform(u, b) == pytest.approx(
            b * gumbel_from_uniform(u, 1.0), rel=1e-12
        )


class TestSampleStatistics:
    def test_laplace_variance(self):
        # 1e6 counter-mode draws at scale 2: variance within 2% of 2 b^2 = 8.
        stream = substream(derive_seed(KEY), "variance-check")
        draws = np.fromiter(
            (laplace(stream, 2.0) for _ in range(1_000_000)), dtype=np.float64
        )
        assert abs(draws.mean()) < 0.02
        assert draws.var() == pytest.approx(8.0, rel=0.02)

    def test_gumbel_mean(self):
        # Mean of Gumbel(1) is the Euler-Mascheroni constant, within 1%.
        stream = substream(derive_seed(KEY), "mean-check")
        draws = np.fromiter(
            (gumbel(stream, 1.0) for _ in range(1_000_000)), dtype=np.float64
        )
        assert draws.mean() == pytest.approx(EULER_GAMMA, rel=0.01)

    def test_argmax_frequencies_match_softmax(self):
        # Adding Gumbel(b) noise and taking the argmax must sample the
        # softmax distribution exp(h/b); chi-square at significance 0.01
        # over 1e5 keyed-but-varied seeds.
        counts = np.array([5.0, 3.0, 1.0])
        probs = np.exp(counts)
        probs /= probs.sum()
        wins = [0, 0, 0]
        labels = ["a", "b", "c"]
        for trial in range(100_000):
            seed = derive_seed(NoiseKey(SECRET, f"trial={trial}", date(2020, 1, 1)))
            noisy = [
                counts[i] + gumbel(substream(seed, labels[i]), 1.0) for i in range(3)
            ]
            wins[int(np.argmax(noisy))] += 1
        stat = chi_square_stat(wins, probs)
        assert stat < CHI2_CRIT_01[2]

    def test_gumbel_pair_difference_is_logistic(self):
        # The difference of two independent Gumbel(b) draws follows a
        # logistic distribution with scale b; Kolmogorov-Smirnov check.
        b = 1.5
        rng = np.random.default_rng(4)
        sim = SimNoise(rng)
        n = 100_000
        z1 = sim.labeled_gumbel("x", [""] * n, b)
        z2 = sim.labeled_gumbel("x", [""] * n, b)
        diffs = np.sort(z1 - z2)
        logistic_cdf = 1.0 / (1.0 + np.exp(-diffs / b))
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(
            np.abs(empirical_hi - logistic_cdf).max(),
            np.abs(empirical_lo - logistic_cdf).max(),
        )
        # 1.949/sqrt(n) is the asymptotic KS critical value at alpha=0.001.
        assert ks < 1.949 / math.sqrt(n)


class TestProviders:
    def test_keyed_provider_reproducible_and_order_free(self):
        seed = derive_seed(KEY)
        labels = [f"e{i}" for i in range(20)]
        a = KeyedNoise(seed).labeled_laplace("count", labels, 2.0)
        b = KeyedNoise(seed).labeled_laplace("count", list(reversed(labels)), 2.0)
        assert np.array_equal(a, b[::-1])

    def test_roles_use_disjoint_streams(self):
        seed = derive_seed(KEY)
        noise = KeyedNoise(seed)
        select = noise.labeled_gumbel("select", ["a"], 1.0)[0]
        count = noise.labeled_gumbel("count", ["a"], 1.0)[0]
        assert select != count

    def test_zero_noise(self):
        z = ZeroNoise()
        assert z.single_laplace("x", 5.0) == 0.0
        assert np.array_equal(z.labeled_gumbel("r", ["a", "b"], 1.0), np.zeros(2))

    def test_sim_noise_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            SimNoise(0).labeled_laplace("r", ["a"], 0.0)

    def test_sim_noise_checks_scale_in_every_method(self):
        sim = SimNoise(0)
        for kind, call in (
            ("laplace", lambda b: sim.labeled_laplace("r", ["a"], b)),
            ("gumbel", lambda b: sim.labeled_gumbel("r", ["a"], b)),
            ("gumbel", lambda b: sim.indexed_gumbel("r", range(3), b)),
            ("laplace", lambda b: sim.single_laplace("a", b)),
            ("gumbel", lambda b: sim.single_gumbel("a", b)),
        ):
            call(1.0)
            for bad in (0.0, -1.0):
                with pytest.raises(ParameterError, match=f"^{kind} scale must be positive"):
                    call(bad)

    def test_sim_noise_buffer_statistics(self):
        sim = SimNoise(123, block=64)
        draws = np.concatenate([sim.labeled_laplace("r", ["x"] * 7, 1.0) for _ in range(3000)])
        assert abs(np.median(draws)) < 0.05


class TestCanonicalization:
    def test_filter_key_order_irrelevant(self):
        a = canonical_filter(normalize_filter({"country": "in", "skill": ["ml", "ai"]}))
        b = canonical_filter(normalize_filter({"skill": ["ai", "ml", "ai"], "country": "in"}))
        assert a == b == "country=in;skill@ai,ml"

    def test_one_value_list_is_membership(self):
        assert canonical_filter(normalize_filter({"region": ["amer"]})) == "region@amer"
        assert canonical_filter(normalize_filter({"region": "amer"})) == "region=amer"

    def test_empty_filter(self):
        assert canonical_filter(normalize_filter(None)) == canonical_filter(normalize_filter({})) == ""

    def test_reserved_characters_escaped(self):
        text = canonical_filter(normalize_filter({"a=b": "c;d", "e": ["x,y", "z"]}))
        assert text == "a%3Db=c%3Bd;e@x%2Cy,z"

    def test_query_text_shape(self):
        text = canonical_query(
            table="events",
            group_by="title",
            terms=normalize_filter({"country": "in"}),
            k=50,
            sensitivity="restricted",
            tau=1,
            delta_sensitivity=1,
        )
        assert text == (
            "delta=1&filter=country=in&group_by=title&k=50"
            "&sensitivity=restricted&table=events&tau=1"
        )

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.text(max_size=8),
                st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4),
            ),
            max_size=4,
        )
    )
    def test_canonicalization_total_and_stable(self, spec):
        # Any filter built from strings and value sets canonicalizes, and a
        # reshuffled copy produces identical bytes.
        text = canonical_filter(normalize_filter(spec))
        shuffled = dict(reversed(list(spec.items())))
        assert canonical_filter(normalize_filter(shuffled)) == text


DIGEST_SEED = derive_seed(NoiseKey(SECRET, "keyed-noise-digest", date(2021, 2, 3)))

# Labels covering ASCII, non-ASCII, astral and empty ids plus the reserved
# threshold id: 2 000 in all.
DIGEST_LABELS = (
    ["", THRESHOLD_STREAM_ID]
    + [f"e{i}" for i in range(1000)]
    + [f"Zürich-{i}-日本" for i in range(499)]
    + [f"\U0001F600{i}\U00010348" for i in range(499)]
)

# SHA-256 over every byte KeyedNoise releases for DIGEST_SEED and
# DIGEST_LABELS; a change to any draw, however small, changes it.
KEYED_NOISE_DIGEST = "2e2927737370fe14a0e127dcf332cc821fe2d651ae682cca47ebd2b345fb4b40"


def _keyed_noise_bytes(noise: KeyedNoise) -> bytes:
    parts = []
    for scale in (0.75, 3.0):
        parts.append(noise.labeled_laplace("count", DIGEST_LABELS, scale).tobytes())
        parts.append(noise.labeled_gumbel("select", DIGEST_LABELS, scale).tobytes())
        parts.append(noise.indexed_gumbel("cut", range(9, 1001), scale).tobytes())
        parts.append(np.array([noise.single_laplace(x, scale) for x in DIGEST_LABELS]).tobytes())
        parts.append(np.array([noise.single_gumbel(x, scale) for x in DIGEST_LABELS]).tobytes())
    return b"".join(parts)


class TestKeyedNoiseBytes:
    def test_released_bytes_are_pinned(self):
        digest = hashlib.sha256(_keyed_noise_bytes(KeyedNoise(DIGEST_SEED))).hexdigest()
        assert digest == KEYED_NOISE_DIGEST

    @settings(max_examples=100, deadline=None)
    @given(
        st.binary(min_size=32, max_size=32),
        st.sampled_from(["select", "count", "value", "cut"]),
        st.lists(st.text(max_size=6), max_size=12),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_every_method_matches_the_reference_path(self, seed, role, labels, start, n, scale):
        # Each draw is the first uniform of substream(seed, id) through the
        # scalar inverse CDF, bit for bit.
        noise = KeyedNoise(seed)

        def lap(stream_id):
            return laplace(substream(seed, stream_id), scale)

        def gum(stream_id):
            return gumbel(substream(seed, stream_id), scale)

        indices = range(start, start + n)
        assert noise.labeled_laplace(role, labels, scale).tobytes() == np.array(
            [lap(f"{role}:{x}") for x in labels], dtype=np.float64).tobytes()
        assert noise.labeled_gumbel(role, labels, scale).tobytes() == np.array(
            [gum(f"{role}:{x}") for x in labels], dtype=np.float64).tobytes()
        assert noise.indexed_gumbel(role, indices, scale).tobytes() == np.array(
            [gum(f"{role}:{i}") for i in indices], dtype=np.float64).tobytes()
        for x in labels + [THRESHOLD_STREAM_ID]:
            assert np.float64(noise.single_laplace(x, scale)).tobytes() == np.float64(lap(x)).tobytes()
            assert np.float64(noise.single_gumbel(x, scale)).tobytes() == np.float64(gum(x)).tobytes()

    def test_scale_is_checked_for_every_method(self):
        noise = KeyedNoise(DIGEST_SEED)
        for call in (
            lambda b: noise.labeled_laplace("count", ["a"], b),
            lambda b: noise.labeled_gumbel("select", ["a"], b),
            lambda b: noise.indexed_gumbel("cut", range(3), b),
            lambda b: noise.single_laplace("a", b),
            lambda b: noise.single_gumbel("a", b),
        ):
            for bad in (0.0, -1.0):
                with pytest.raises(ParameterError):
                    call(bad)
