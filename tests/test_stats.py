import itertools
import random

import pytest

from locgame import (
    Digraph,
    doubly_regular_check,
    e4c_count,
    paley_tournament,
    quasirandom_deviation,
    random_tournament,
    rotation_tournament,
    sameness,
    transitive_tournament,
)

from conftest import arc_indicator, brute_e4c, neighborhood_profile


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestSameness:
    def test_cycle_pair_is_empty(self):
        result = sameness(cycle3(), 0, 1)
        assert result.s == 0
        assert result.same == frozenset()
        assert result.diff == frozenset({2})

    def test_rotation_t5(self):
        result = sameness(rotation_tournament(2), 0, 1)
        assert result.s == 2
        assert result.same == frozenset({2, 4})

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_paley_constant_sameness(self, q):
        g = paley_tournament(q)
        target = (q - 3) // 2
        for u, v in itertools.combinations(range(q), 2):
            assert sameness(g, u, v).s == target

    def test_partition_identity(self, rng):
        g = random_tournament(9, 0.5, rng.getrandbits(64))
        for u, v in itertools.combinations(range(9), 2):
            result = sameness(g, u, v)
            assert result.s + len(result.diff) == 7
            assert result.same | result.diff == frozenset(range(9)) - {u, v}

    def test_requires_tournament(self):
        with pytest.raises(ValueError, match="tournament"):
            sameness(Digraph(3, [(0, 1)]), 0, 1)

    def test_requires_distinct(self):
        with pytest.raises(ValueError):
            sameness(cycle3(), 1, 1)

    @pytest.mark.parametrize("u", [-1, 3])
    def test_vertex_out_of_range(self, u):
        with pytest.raises(ValueError, match="out of range"):
            sameness(cycle3(), u, 0)


class TestNeighborhoodProfile:
    def test_paley7_common_out(self):
        g = paley_tournament(7)
        for u, v in itertools.combinations(range(7), 2):
            assert neighborhood_profile(g, u, v).pp == 1

    def test_cycle_profile_sums_to_one(self):
        prof = neighborhood_profile(cycle3(), 0, 1)
        assert prof.pp + prof.pm + prof.mp + prof.mm == 1

    def test_random_partition_sums(self, rng):
        g = random_tournament(20, 0.5, rng.getrandbits(64))
        for u, v in itertools.combinations(range(20), 2):
            prof = neighborhood_profile(g, u, v)
            assert prof.pp + prof.pm + prof.mp + prof.mm == 18

    def test_profile_matches_sameness(self, rng):
        g = random_tournament(8, 0.5, rng.getrandbits(64))
        for u, v in itertools.combinations(range(8), 2):
            prof = neighborhood_profile(g, u, v)
            assert prof.pp + prof.mm == sameness(g, u, v).s


class TestDoublyRegular:
    def test_paley7(self):
        assert doubly_regular_check(paley_tournament(7))

    def test_rotation_t5_fails(self):
        assert not doubly_regular_check(rotation_tournament(2))

    def test_cycle_passes_vacuously(self):
        assert doubly_regular_check(cycle3())

    def test_transitive_fails(self):
        assert not doubly_regular_check(transitive_tournament(7))


class TestE4C:
    def test_too_small_is_zero(self):
        assert e4c_count(cycle3()) == 0

    def test_paley7_frozen_value(self):
        assert e4c_count(paley_tournament(7)) == 336

    def test_matches_brute_force(self, rng):
        for n in (4, 5, 6, 7):
            g = random_tournament(n, 0.5, rng.getrandbits(64))
            assert e4c_count(g) == brute_e4c(g)
        assert e4c_count(transitive_tournament(4)) == brute_e4c(transitive_tournament(4)) == 16
        assert e4c_count(rotation_tournament(2)) == 80

    def test_ratio_near_half_for_random(self, rng):
        n = 30
        g = random_tournament(n, 0.5, 424242)
        ratio = e4c_count(g) / (n ** 4 / 2)
        assert 0.9 * (n - 1) * (n - 2) * (n - 3) / n ** 3 <= ratio <= 1.1


class TestDeviation:
    def test_paley7_frozen_value(self):
        # s(u,v) = 2 on all 42 ordered pairs, |2 - 3.5| = 1.5 each
        assert quasirandom_deviation(paley_tournament(7)) == 63

    def test_cycle_value(self):
        # all three pairs have s = 0, ordered sum = 6 * |0 - 1.5|
        assert quasirandom_deviation(cycle3()) == 9

    def test_nonnegative(self, rng):
        g = random_tournament(10, 0.5, rng.getrandbits(64))
        assert quasirandom_deviation(g) >= 0


class TestArcIndicator:
    def test_values(self):
        g = cycle3()
        assert arc_indicator(g, 0, 1) == 1
        assert arc_indicator(g, 1, 0) == -1

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            arc_indicator(cycle3(), 2, 2)
