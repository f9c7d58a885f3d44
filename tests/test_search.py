"""Searcher behavior against exact oracles and constructed evaluators."""

import math

import numpy as np
import pytest

from attnsearch.controller import ControllerState, controller_forward
from attnsearch.rewards import RewardConfig, RNDPair, combined_reward, sparsity_reward
from attnsearch.search import (SyntheticLandscape, all_schemes, classify_ticket,
                               ean_search, exhaustive_search, ga_search,
                               hsp_scheme, l1_prune_baseline, random_ratio_study)
from attnsearch.supernet import (BackboneConfig, ConnectionScheme, SupernetState,
                                 count_params, flop_increment_pct)
from oracles import PeakedLandscape


def make_controller(m, seed, **kw):
    kw.setdefault("ratio_bounds", (0.0, math.inf))
    return ControllerState(m, rng=np.random.default_rng(seed), **kw)


class CountingEvaluator:
    """Wraps an evaluator and records the string of every scheme it scores."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __call__(self, scheme):
        self.calls.append(scheme.to_string())
        return self.inner(scheme)


class TestExhaustive:
    def test_m2_enumerates_exactly_four(self):
        ranked = exhaustive_search(lambda s: 0.0, 2)
        assert [s.to_string() for s, _ in ranked] == ["00", "01", "10", "11"]

    def test_visits_two_to_the_m(self):
        seen = set()
        ranked = exhaustive_search(lambda s: seen.add(s.to_string()) or 0.1, 5)
        assert len(ranked) == 32 and len(seen) == 32

    def test_refuses_large_m(self):
        with pytest.raises(ValueError, match="cap"):
            exhaustive_search(lambda s: 0.0, 21)

    def test_ranking_descending_with_string_ties(self):
        land = SyntheticLandscape(6, seed=3)
        ranked = exhaustive_search(land, 6)
        scores = [v for _, v in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0][1] == max(land(s) for s in all_schemes(6))


class TestSyntheticLandscape:
    def test_deterministic_given_seed(self):
        a, b = SyntheticLandscape(8, 5), SyntheticLandscape(8, 5)
        for s in list(all_schemes(8))[:50]:
            assert a(s) == b(s)

    def test_scores_inside_unit_interval(self):
        land = SyntheticLandscape(8, 6)
        vals = [land(s) for s in all_schemes(8)]
        assert min(vals) > 0.0 and max(vals) < 1.0

    def test_no_single_bit_dominates(self):
        land = SyntheticLandscape(8, 7)
        schemes = list(all_schemes(8))
        scores = np.array([land(s) for s in schemes])
        bits = np.array([s.bits for s in schemes])
        for i in range(8):
            on = scores[bits[:, i] == 1]
            off = scores[bits[:, i] == 0]
            pooled = np.concatenate([on, off])
            effect = abs(on.mean() - off.mean())
            assert effect < 0.8 * pooled.std()


class TestRandomRatioStudy:
    def test_ratio_zero_samples_only_the_empty_scheme(self):
        rows = random_ratio_study(lambda s: 0.5, 8, [0.0], 5,
                                  np.random.default_rng(8))
        assert {r["scheme"] for r in rows} == {"00000000"}

    def test_constant_ones_within_bucket(self):
        rng = np.random.default_rng(9)
        rows = random_ratio_study(lambda s: 0.5, 12, [0.25, 0.5], 30, rng)
        for r in rows:
            assert r["scheme"].count("1") == r["ones"] == int(round(r["ratio"] * 12))

    def test_small_bucket_is_enumerated_so_max_is_exact(self):
        land = SyntheticLandscape(8, 10)
        rows = random_ratio_study(land, 8, [0.25], 50, np.random.default_rng(11))
        true_max = max(land(ConnectionScheme.from_string(r["scheme"]))
                       for r in rows)
        from itertools import combinations
        brute = -1.0
        for pos in combinations(range(8), 2):
            bits = np.zeros(8, dtype=np.int64)
            bits[list(pos)] = 1
            brute = max(brute, land(ConnectionScheme(bits)))
        assert len(rows) == 28  # C(8,2) distinct schemes
        assert max(r["accuracy"] for r in rows) == brute == true_max

    def test_cost_columns_filled_with_config(self):
        cfg = BackboneConfig(stages=((4, 8), (4, 8)), input_shape=(1, 8, 8),
                             classes=4, sam="se", reduction=4)
        rows = random_ratio_study(lambda s: 0.5, 8, [0.5], 4,
                                  np.random.default_rng(12))
        for r in rows:
            scheme = ConnectionScheme.from_string(r["scheme"])
            assert count_params(cfg, scheme)[1] == 4 * 42
            assert flop_increment_pct(cfg, scheme) > 0


class TestHSP:
    def test_every_second_block(self):
        assert hsp_scheme(2, 0, 6).to_string() == "101010"

    def test_offset_one(self):
        assert hsp_scheme(2, 1, 6).to_string() == "010101"

    def test_every_third_block(self):
        assert hsp_scheme(3, 0, 6).to_string() == "100100"

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            hsp_scheme(2, 2, 6)
        with pytest.raises(ValueError):
            hsp_scheme(0, 0, 6)
        with pytest.raises(ValueError):
            hsp_scheme(7, 0, 6)


class TestGA:
    def test_onemax_converges(self):
        hits = 0
        for seed in range(20):
            best, _, _ = ga_search(lambda s: s.ones_count / 8, 8, 20, 30,
                                   np.random.default_rng(seed),
                                   RewardConfig(0.0, 1.0, 0.0))
            hits += best.to_string() == "11111111"
        assert hits >= 19

    def test_sparsity_fitness_converges_to_zeros(self):
        best, _, _ = ga_search(lambda s: 0.0, 8, 20, 30, np.random.default_rng(40),
                               RewardConfig(1.0, 0.0, 0.0))
        assert best.to_string() == "00000000"

    def test_constant_fitness_returns_member(self):
        best, fit, _ = ga_search(lambda s: 0.5, 6, 8, 5, np.random.default_rng(41))
        assert len(best) == 6
        assert abs(fit - (0.5 * best.ones_count / 6 + 0.5)) < 1e-12 or fit >= 0.5

    def test_population_floor(self):
        with pytest.raises(ValueError):
            ga_search(lambda s: 0.0, 4, 3, 5, np.random.default_rng(42))

    def test_never_beats_exhaustive(self):
        land = SyntheticLandscape(6, 43)
        best, _, _ = ga_search(land, 6, 12, 20, np.random.default_rng(44),
                               RewardConfig(0.0, 1.0, 0.0))
        exhaust_max = exhaustive_search(land, 6)[0][1]
        assert land(best) <= exhaust_max

    def test_each_distinct_scheme_scored_once(self):
        land = SyntheticLandscape(5, 45)
        counted = CountingEvaluator(land)
        rewards = RewardConfig(0.5, 1.0, 0.0)
        population, generations = 8, 10
        best, fit, score = ga_search(counted, 5, population, generations,
                                     np.random.default_rng(46), rewards)
        assert len(counted.calls) == len(set(counted.calls))
        assert len(counted.calls) < population * (generations + 1)  # repeats were read
        assert best.to_string() in counted.calls
        assert fit == combined_reward(rewards, sparsity_reward(best), land(best), 0.0)
        assert score == land(best)


class TestL1Prune:
    def make_net(self, sharing="per-block"):
        cfg = BackboneConfig(stages=((2, 4), (2, 6)), input_shape=(1, 6, 6),
                             classes=3, sam="se", sharing=sharing, reduction=2)
        return SupernetState(cfg, 50)

    def test_keep_everything(self):
        assert l1_prune_baseline(self.make_net(), 1.0).ones_count == 4

    def test_keep_nothing(self):
        assert l1_prune_baseline(self.make_net(), 0.0).ones_count == 0

    def test_scaled_block_ranked_first(self):
        net = self.make_net()
        for p in net.blocks[2].sam.parameters():
            p.value *= 10.0
        for keep in (0.25, 0.5, 0.75):
            assert l1_prune_baseline(net, keep).bits[2] == 1

    def test_shared_mode_rejected(self):
        with pytest.raises(ValueError, match="per-block"):
            l1_prune_baseline(self.make_net("per-stage"), 0.5)


class TestClassifyTicket:
    def test_full_scheme_is_never_a_ticket(self):
        v = classify_ticket(0.9, 0.9, 0.8, ones_count=8, m=8)
        assert not v.is_ticket and not v.is_harmful

    def test_below_original_is_harmful(self):
        v = classify_ticket(0.7, 0.9, 0.8, ones_count=2, m=8)
        assert v.is_harmful and not v.is_ticket

    def test_sparse_and_matching_is_ticket(self):
        v = classify_ticket(0.9, 0.9, 0.8, ones_count=3, m=8)
        assert v.is_ticket and not v.is_harmful

    def test_accuracy_range_checked(self):
        with pytest.raises(ValueError):
            classify_ticket(1.2, 0.9, 0.8, 1, 8)


class TestEANSearch:
    def test_sparsity_only_drives_to_empty_scheme(self):
        # gentle steps: baseline-free score ascent locks in early otherwise
        wins = 0
        for seed in range(20):
            controller = ControllerState(5, lr=0.02, momentum=0.0,
                                         rng=np.random.default_rng(100 + seed))
            result = ean_search(lambda s: 0.0, controller,
                                RewardConfig(1.0, 0.0, 0.0), 300,
                                np.random.default_rng(200 + seed))
            assert len(result.trace) == 300
            wins += bool((controller_forward(controller) < 0.5).all()
                         and result.best[0][0].ones_count == 0)
        assert wins >= 14

    def test_needle_found_with_high_probability(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            needle = ConnectionScheme((rng.random(8) < 0.5).astype(np.int64))

            def evaluator(s, needle=needle):
                return 1.0 if s == needle else 0.0

            controller = make_controller(8, 600 + seed)
            result = ean_search(evaluator, controller, RewardConfig(0.0, 1.0, 0.0), 1000,
                                np.random.default_rng(6000 + seed))
            hits += result.best[0][0] == needle and result.best[0][1] == 1.0
        assert hits >= 18

    def test_accuracy_only_reward_equals_g_val(self):
        land = SyntheticLandscape(8, 62)
        controller = make_controller(8, 63)
        result = ean_search(land, controller, RewardConfig(0.0, 1.0, 0.0),
                            50, np.random.default_rng(64))
        for row in result.trace:
            assert row.reward == row.g_val
            assert row.g_rnd == 0.0

    def test_never_beats_exhaustive_on_same_evaluator(self):
        land = SyntheticLandscape(6, 65)
        controller = make_controller(6, 66)
        result = ean_search(land, controller, RewardConfig(0.0, 1.0, 0.0),
                            100, np.random.default_rng(67))
        assert result.best[0][1] <= exhaustive_search(land, 6)[0][1] + 1e-12

    def test_bit_reproducible_given_seed(self):
        land = SyntheticLandscape(8, 68)

        def run():
            controller = make_controller(8, 69)
            pair = RNDPair(8, np.random.default_rng(70))
            return ean_search(land, controller, RewardConfig(0.5, 1.0, 0.1), 60,
                              np.random.default_rng(71), pair)

        t1, t2 = run().trace, run().trace
        assert [(r.scheme, r.reward, r.p_bar) for r in t1] == \
               [(r.scheme, r.reward, r.p_bar) for r in t2]

    def test_missing_rnd_pair_rejected(self):
        controller = make_controller(4, 74)
        with pytest.raises(ValueError, match="RNDPair"):
            ean_search(lambda s: 0.0, controller, RewardConfig(0.0, 1.0, 0.1),
                       3, np.random.default_rng(75))

    def test_evaluation_budget_cap(self):
        # the cap counts scores delivered; repeats are not re-scored
        counted = CountingEvaluator(lambda s: 0.5)
        controller = make_controller(4, 76)
        result = ean_search(counted, controller, RewardConfig(0.0, 1.0, 0.0),
                            17, np.random.default_rng(77))
        assert len(result.trace) == 17
        assert len(counted.calls) == len({r.scheme for r in result.trace})

    def test_each_distinct_scheme_scored_once(self):
        land = SyntheticLandscape(4, 78)
        counted = CountingEvaluator(land)
        controller = make_controller(4, 79)
        result = ean_search(counted, controller, RewardConfig(0.5, 1.0, 0.0),
                            80, np.random.default_rng(80))
        assert len(counted.calls) == len(set(counted.calls))
        assert set(counted.calls) == {r.scheme for r in result.trace}
        assert len(counted.calls) < len(result.trace)  # repeats were drawn
        for row in result.trace:
            assert row.g_val == land(ConnectionScheme.from_string(row.scheme))

    @pytest.mark.parametrize("iterations", [1, 17])
    def test_runs_exactly_the_requested_iterations(self, iterations):
        controller = make_controller(4, 81)
        result = ean_search(SyntheticLandscape(4, 82), controller,
                            RewardConfig(0.5, 1.0, 0.0), iterations,
                            np.random.default_rng(83))
        assert [r.iteration for r in result.trace] == list(range(iterations))
        assert 1 <= len(result.best) <= 3

    def test_zero_iterations_refused(self):
        controller = make_controller(4, 84)
        with pytest.raises(ValueError, match="iterations must be at least 1, got 0"):
            ean_search(lambda s: 0.5, controller, RewardConfig(0.0, 1.0, 0.0), 0,
                       np.random.default_rng(85))


class TestPeakedLandscape:
    def test_peak_scores_highest(self):
        land = PeakedLandscape(8, 80)
        vals = {s: land(s) for s in all_schemes(8)}
        assert max(vals, key=vals.get) == land.peak
        assert vals[land.peak] == land.floor + land.height
