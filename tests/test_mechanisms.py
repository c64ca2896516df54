from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest

from dpquery.calibration import restricted_threshold_breach_bound
from dpquery.mechanisms import (
    BOT,
    DPResult,
    PrivacyParams,
    RankedHistogram,
    exp_known,
    gumbel_unknown,
    lap_known,
    lap_unknown,
    rank_histogram,
    solve_delta_hat,
    translate_query,
)
from dpquery.noise import (
    KeyedNoise,
    NoiseKey,
    ParameterError,
    SimNoise,
    derive_seed,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CHI2_CRIT_01,
    ZeroNoise,
    chi_square_stat,
    delta_hat_bisect,
    gumbel,
    laplace,
    reference_gumbel_unknown,
    substream,
)

from conftest import SECRET

SEED = derive_seed(NoiseKey(SECRET, "mechanism-tests", date(2020, 3, 14)))


def keyed() -> KeyedNoise:
    return KeyedNoise(SEED)


class TestDeltaHatSolve:
    def test_substitution_residual(self):
        for delta, eps, ds in ((1e-10, 0.15, 1), (1e-6, 1.0, 5), (1e-3, 2.0, 20)):
            dh = solve_delta_hat(delta, eps, ds)
            reproduced = dh / 4 * (math.exp(eps / 2) + 1) * (3 + math.log(ds / dh))
            assert reproduced == pytest.approx(delta, rel=1e-12)
            assert 0 < dh < delta

    def test_matches_bisection_oracle(self):
        dh = solve_delta_hat(1e-10, 0.15, 1)
        assert dh == pytest.approx(delta_hat_bisect(1e-10, 0.15, 1), rel=1e-9)

    def test_monotone_in_delta(self):
        assert solve_delta_hat(1e-6, 0.15, 1) > solve_delta_hat(1e-10, 0.15, 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            solve_delta_hat(0.0, 0.15, 1)
        with pytest.raises(ParameterError):
            solve_delta_hat(1e-10, 0.15, 0)


class TestLapKnown:
    def test_zero_noise_returns_exact_counts(self):
        hist = [("a", 10), ("b", 0), ("c", 3)]
        out = lap_known(hist, 1, 1, PrivacyParams(1.0), ZeroNoise())
        assert out == [("a", 10.0), ("b", 0.0), ("c", 3.0)]

    def test_matches_seeded_draws(self):
        # The mechanism must add exactly the Laplace(2 tau / eps) draw from
        # each element's count substream, in input order.
        hist = [("a", 10), ("b", 0)]
        out = lap_known(hist, 1, 1, PrivacyParams(1.0), keyed())
        for (element, value), (_, count) in zip(out, hist):
            expected = count + laplace(substream(SEED, f"count:{element}"), 2.0)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_sampling_moments(self):
        # 1e5 repetitions on a single count: mean ~ 10, variance ~ 2 (2 tau/eps)^2.
        sim = SimNoise(5)
        values = np.array(
            [lap_known([("a", 10)], 1, 1, PrivacyParams(1.0), sim)[0][1] for _ in range(100_000)]
        )
        sigma = math.sqrt(8.0 / values.size)
        assert abs(values.mean() - 10.0) < 3 * sigma
        assert values.var() == pytest.approx(8.0, rel=0.03)

    def test_empty_domain_rejected(self):
        with pytest.raises(ParameterError):
            lap_known([], 1, 1, PrivacyParams(1.0), ZeroNoise())

    def test_input_order_preserved(self):
        hist = [("z", 1), ("a", 9), ("m", 4)]
        out = lap_known(hist, 1, 1, PrivacyParams(1.0), ZeroNoise())
        assert [e for e, _ in out] == ["z", "a", "m"]


class TestExpKnown:
    def test_k_equals_domain_is_permutation(self):
        hist = [("a", 5), ("b", 3), ("c", 1)]
        out = exp_known(hist, 3, 1, PrivacyParams(1.0), keyed())
        assert sorted(e for e, _ in out) == ["a", "b", "c"]

    def test_selection_and_counts_match_seeded_draws(self):
        hist = [("a", 5), ("b", 3), ("c", 1)]
        out = exp_known(hist, 2, 1, PrivacyParams(1.0), keyed())
        scores = {
            e: c + gumbel(substream(SEED, f"select:{e}"), 1.0) for e, c in hist
        }
        expected_order = sorted(scores, key=lambda e: -scores[e])[:2]
        assert [e for e, _ in out] == expected_order
        counts = dict(hist)
        for element, value in out:
            expected = counts[element] + laplace(substream(SEED, f"count:{element}"), 2.0)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_pick_frequencies_follow_softmax(self):
        counts = [("a", 5), ("b", 3), ("c", 1)]
        probs = np.exp([5.0, 3.0, 1.0])
        probs /= probs.sum()
        sim = SimNoise(17)
        wins = {"a": 0, "b": 0, "c": 0}
        trials = 40_000
        for _ in range(trials):
            wins[exp_known(counts, 1, 1, PrivacyParams(1.0), sim)[0][0]] += 1
        stat = chi_square_stat([wins["a"], wins["b"], wins["c"]], probs)
        assert stat < CHI2_CRIT_01[2]

    def test_dominant_count_wins(self):
        counts = [("a", 100), ("b", 0), ("c", 0)]
        sim = SimNoise(19)
        hits = sum(
            exp_known(counts, 1, 1, PrivacyParams(1.0), sim)[0][0] == "a"
            for _ in range(10_000)
        )
        assert hits >= 9_900

    @pytest.mark.parametrize(
        "hist, draws",
        [
            # Equal counts straddle every k; zero draws leave them tied.
            ([("q", 3), ("b", 5), ("x", 3), ("a", 3), ("m", 1), ("c", 5), ("z", 3), ("e", 1)], None),
            ([(f"v{i:02d}", 7) for i in reversed(range(12))], None),
            # Gumbel draws that tie the noisy scores exactly.
            ([("d", 1), ("b", 2), ("e", 3), ("a", 0), ("c", 2), ("f", 4)], [1.0, 0.0, -1.0, 2.0, 0.5, -2.0]),
        ],
    )
    def test_tied_scores_follow_the_full_sort_for_every_k(self, hist, draws):
        draws = draws or [0.0] * len(hist)

        class FixedGumbel(ZeroNoise):
            def labeled_gumbel(self, role, labels, scale):
                return np.array(draws)

        elements = [e for e, _ in hist]
        scores = [c + z for (_, c), z in zip(hist, draws)]
        for k in range(1, len(hist) + 1):
            oracle = sorted(range(len(hist)), key=lambda i: (-scores[i], elements[i]))[:k]
            out = exp_known(hist, k, 1, PrivacyParams(1.0), FixedGumbel())
            assert out == [(elements[i], float(hist[i][1])) for i in oracle]

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            exp_known([("a", 1)], 2, 1, PrivacyParams(1.0), ZeroNoise())
        with pytest.raises(ParameterError):
            exp_known([("a", 1)], 0, 1, PrivacyParams(1.0), ZeroNoise())


class TestLapUnknown:
    PARAMS = PrivacyParams(1.0, 0.05)

    def test_zero_noise_skeleton(self):
        # Without noise the output is exactly the elements whose count
        # strictly exceeds the deterministic threshold.
        hist = [("a", 100), ("b", 50), ("c", 10), ("d", 5)]
        d_bar = 5
        dh = solve_delta_hat(0.05, 1.0, 1)
        threshold = 0 + 1 * (1 + 2 * 1 * math.log(1 / dh) / 1.0)
        out = lap_unknown(hist, 1, d_bar, 1, self.PARAMS, ZeroNoise())
        expected = [(e, float(c)) for e, c in hist if c > threshold]
        assert list(out.entries) == expected
        assert out.terminated_by_bot
        assert out.bot_value == pytest.approx(threshold)

    def test_zero_noise_tie_at_threshold_not_released(self):
        dh = solve_delta_hat(0.05, 1.0, 1)
        threshold = 1 + 2 * math.log(1 / dh)
        tied = int(threshold)  # strictly below
        hist = [("a", 1000), ("b", tied)]
        out = lap_unknown(hist, 1, 4, 1, self.PARAMS, ZeroNoise())
        assert [e for e, _ in out.entries] == ["a"]

    def test_all_zero_histogram_rarely_releases(self):
        # Degenerate worst case: every rank is zero.  The empirical breach
        # rate over 1e5 trials must stay under the analytic union bound.
        d_bar = 20
        eps, delta = 0.5, 0.05
        params = PrivacyParams(eps, delta)
        ranked = rank_histogram([(f"e{i}", 0) for i in range(d_bar)], d_bar + 1)
        bound = restricted_threshold_breach_bound(eps, delta, 1, 1, d_bar)
        sim = SimNoise(23)
        trials = 100_000
        breaches = sum(
            bool(lap_unknown(ranked, 1, d_bar, 1, params, sim).entries)
            for _ in range(trials)
        )
        rate = breaches / trials
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert rate <= bound + 3 * sigma

    def test_giant_count_always_released(self):
        # One element far above the threshold scale is found essentially
        # always (tail probability ~ exp(-gap * eps / (4 tau Delta))).
        params = PrivacyParams(0.15, 1e-10)
        hist = rank_histogram([("big", 1_000_000)], 101)
        sim = SimNoise(29)
        hits = sum(
            lap_unknown(hist, 1, 100, 1, params, sim).entries[0][0] == "big"
            for _ in range(10_000)
        )
        assert hits == 10_000

    def test_entries_sorted_and_above_bot(self):
        params = PrivacyParams(1.0, 0.01)
        hist = [(f"e{i}", 1000 - 10 * i) for i in range(30)]
        out = lap_unknown(hist, 1, 40, 1, params, keyed())
        values = [v for _, v in out.entries]
        assert values == sorted(values, reverse=True)
        assert all(v > out.bot_value for v in values)
        assert out.terminated_by_bot and out.bot_value is not None

    def test_precondition(self):
        with pytest.raises(ParameterError):
            lap_unknown([("a", 1)], 5, 4, 1, PrivacyParams(1.0, 0.01), ZeroNoise())
        with pytest.raises(ParameterError):
            lap_unknown([("a", 1)], 1, 5, 1, PrivacyParams(1.0), ZeroNoise())


class TestGumbelUnknown:
    def test_zero_noise_tie_at_cut_never_candidates(self):
        # All counts equal: every rank ties with the cut rank, so nothing
        # can be released no matter the threshold.
        params = PrivacyParams(1.0, 0.5)
        out = gumbel_unknown([("a", 5), ("b", 5), ("c", 5)], 1, 2, 1, params, ZeroNoise())
        assert out.entries == ()
        assert out.terminated_by_bot
        assert out.bot_value is None

    def test_all_zero_histogram_never_releases(self):
        # Structural worst case: all ranks tie at zero, release frequency
        # must stay under delta * e^(-eps).
        params = PrivacyParams(0.15, 1e-10)
        ranked = rank_histogram([(f"e{i}", 0) for i in range(51)], 51)
        sim = SimNoise(31)
        trials = 100_000
        releases = sum(
            bool(gumbel_unknown(ranked, 5, 50, 1, params, sim).entries)
            for _ in range(trials)
        )
        assert releases / trials <= 1e-10 * math.exp(-0.15) + 1e-9

    def test_clear_winners_in_rank_order(self):
        # Ten counts separated by gaps huge against the noise scale, zeros
        # below: the full top-10 comes back in true order >= 99% of trials.
        params = PrivacyParams(0.15, 1e-10)
        top = [(f"top{i:02d}", 1_000_000 - 1000 * i) for i in range(10)]
        ranked = rank_histogram(top, 101)
        sim = SimNoise(37)
        trials = 1000
        exact = 0
        for _ in range(trials):
            out = gumbel_unknown(ranked, 10, 100, 1, params, sim)
            if not out.terminated_by_bot and [e for e, _ in out.entries] == [
                e for e, _ in top
            ]:
                exact += 1
        assert exact >= 990

    def test_result_capped_at_k(self):
        params = PrivacyParams(2.0, 0.01)
        hist = [(f"e{i}", 10_000 - i) for i in range(40)]
        out = gumbel_unknown(hist, 5, 50, 1, params, keyed())
        assert len(out.entries) <= 5
        if len(out.entries) == 5:
            assert not out.terminated_by_bot

    def test_short_output_appends_sentinel_flag(self):
        params = PrivacyParams(1.0, 1e-6)
        out = gumbel_unknown([("a", 10)], 5, 10, 1, params, keyed())
        assert len(out.entries) < 5
        assert out.terminated_by_bot
        assert out.bot_value is None  # threshold value is never disclosed here

    def test_count_noise_disjoint_from_selection(self):
        # Released values use the count substream, not the selection one.
        params = PrivacyParams(0.15, 1e-10)
        hist = [(f"top{i:02d}", 1_000_000 - 1000 * i) for i in range(10)]
        out = gumbel_unknown(hist, 10, 100, 1, params, keyed())
        counts = dict(hist)
        for element, value in out.entries:
            expected = counts[element] + laplace(
                substream(SEED, f"count:{element}"), 2 / 0.15
            )
            assert value == pytest.approx(expected, rel=1e-12)

    def test_precondition(self):
        with pytest.raises(ParameterError):
            gumbel_unknown([("a", 1)], 5, 4, 1, PrivacyParams(1.0, 0.01), ZeroNoise())
        with pytest.raises(ParameterError):
            gumbel_unknown([("a", 1)], 5, 10, 1, PrivacyParams(1.0), ZeroNoise())

    def test_prepared_histogram_must_cover_ranks(self):
        ranked = rank_histogram([("a", 1)], 5)
        with pytest.raises(ParameterError):
            gumbel_unknown(ranked, 2, 10, 1, PrivacyParams(1.0, 0.01), ZeroNoise())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1, 2, 3, 8, 40, 400]), max_size=30),
        st.integers(min_value=2, max_value=40),
        st.data(),
    )
    def test_draws_and_result_match_reference(self, counts, d_bar, data):
        # The same draws in the same order: the two SimNoise twins stay in
        # step, checked by a draw from each after the call.  k = d_bar (one
        # cut index) and results with and without candidates all occur.
        k = data.draw(st.integers(min_value=1, max_value=d_bar), label="k")
        tau = data.draw(st.sampled_from([1, 2]), label="tau")
        eps = data.draw(st.sampled_from([0.15, 1.0, 8.0]), label="eps")
        ranked = rank_histogram([(f"e{i:02d}", c) for i, c in enumerate(counts)], d_bar + 1)
        seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
        sim, twin = SimNoise(seed, block=16), SimNoise(seed, block=16)
        out = gumbel_unknown(ranked, k, d_bar, tau, PrivacyParams(eps, 1e-3), sim)
        expected = reference_gumbel_unknown(ranked, k, d_bar, tau, eps, 1e-3, twin)
        assert (out.entries, out.terminated_by_bot) == expected
        assert out.bot_value is None
        for kind in ("single_gumbel", "single_laplace"):
            assert getattr(sim, kind)("s", tau / eps) == getattr(twin, kind)("s", tau / eps)
        out = gumbel_unknown(ranked, k, d_bar, tau, PrivacyParams(eps, 1e-3), keyed())
        expected = reference_gumbel_unknown(ranked, k, d_bar, tau, eps, 1e-3, keyed())
        assert (out.entries, out.terminated_by_bot) == expected


class TestDeterminism:
    PARAMS = PrivacyParams(0.3, 1e-8)

    def histogram(self):
        return [(f"e{i:03d}", (i * 7919) % 500) for i in range(60)]

    def test_identical_keys_identical_results(self):
        hist = self.histogram()
        a = gumbel_unknown(hist, 8, 70, 1, self.PARAMS, keyed())
        b = gumbel_unknown(hist, 8, 70, 1, self.PARAMS, keyed())
        assert a == b
        c = lap_unknown(hist, 2, 70, 1, self.PARAMS, keyed())
        d = lap_unknown(hist, 2, 70, 1, self.PARAMS, keyed())
        assert c == d

    def test_enumeration_order_irrelevant(self):
        hist = self.histogram()
        shuffled = list(reversed(hist))
        assert gumbel_unknown(hist, 8, 70, 1, self.PARAMS, keyed()) == gumbel_unknown(
            shuffled, 8, 70, 1, self.PARAMS, keyed()
        )
        assert lap_unknown(hist, 2, 70, 1, self.PARAMS, keyed()) == lap_unknown(
            shuffled, 2, 70, 1, self.PARAMS, keyed()
        )
        assert exp_known(hist, 5, 1, self.PARAMS, keyed()) == exp_known(
            hist, 5, 1, self.PARAMS, keyed()
        )

    def test_different_seed_changes_output(self):
        hist = self.histogram()
        other = KeyedNoise(derive_seed(NoiseKey(SECRET, "mechanism-tests", date(2020, 3, 15))))
        a = lap_unknown(hist, 2, 70, 1, self.PARAMS, keyed())
        b = lap_unknown(hist, 2, 70, 1, self.PARAMS, other)
        assert a != b


class TestDifferentialPrivacySmoke:
    def test_restricted_unknown_release_probability_bounded(self):
        # Neighboring histograms {a: 1} and {}: the empty side never
        # releases "a", so P(release | {a: 1}) must stay within the additive
        # delta slack of the privacy statement.  1e6 trials.
        eps, delta = 1.0, 0.01
        params = PrivacyParams(eps, delta)
        ranked = rank_histogram([("a", 1)], 5)
        sim = SimNoise(41)
        trials = 1_000_000
        releases = sum(
            bool(lap_unknown(ranked, 1, 4, 1, params, sim).entries)
            for _ in range(trials)
        )
        rate = releases / trials
        sigma = math.sqrt(max(rate, 1e-12) * (1 - rate) / trials)
        assert rate <= delta + 3 * sigma
        # and the release does happen at a measurable rate (the test bites).
        assert releases > 0

    def test_unrestricted_unknown_release_probability_bounded(self):
        # Same neighboring pair through the top-k mechanism: a unique count
        # clears the noisy threshold with probability at most delta.
        eps, delta = 1.0, 0.01
        params = PrivacyParams(eps, delta)
        ranked = rank_histogram([("a", 1)], 11)
        sim = SimNoise(43)
        trials = 1_000_000
        releases = sum(
            bool(gumbel_unknown(ranked, 2, 10, 1, params, sim).entries)
            for _ in range(trials)
        )
        rate = releases / trials
        sigma = math.sqrt(max(rate, 1e-12) * (1 - rate) / trials)
        assert rate <= delta + 3 * sigma
        assert releases > 0


class TestTranslateQuery:
    def test_unknown_domain_fetch_sizes(self):
        assert translate_query(50) == 1000
        assert translate_query(200) == 2000

    def test_config_override(self):
        assert translate_query(50, k_multiplier=2, min_fetch=12) == 100
        assert translate_query(3, k_multiplier=2, min_fetch=12) == 12

    def test_validation(self):
        with pytest.raises(ParameterError):
            translate_query(0)


def test_rank_histogram_pads_and_sorts():
    ranked = rank_histogram([("b", 3), ("a", 3), ("c", 9)], 6)
    assert ranked.elements == ("c", "a", "b")
    assert ranked.counts.tolist() == [9.0, 3.0, 3.0, 0.0, 0.0, 0.0]


def test_ranked_counts_must_not_increase():
    # gumbel_unknown finds its candidates as a prefix of the rank order.
    with pytest.raises(ParameterError, match="non-increasing"):
        RankedHistogram(elements=("a", "b"), counts=np.array([1.0, 2.0, 0.0]))
    ties = RankedHistogram(elements=("a", "b"), counts=np.array([2.0, 2.0, 0.0]))
    assert ties.counts.tolist() == [2.0, 2.0, 0.0]


def test_dpresult_len():
    assert len(DPResult(entries=(("a", 1.0),))) == 1
    assert BOT == "⊥"
