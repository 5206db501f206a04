"""The strong-equivalence class count and its brute-force oracles."""

import pytest

from count_reference import column_choices_bruteforce, count_bruteforce, count_subset_filter
from htlp import CountBoundExceededError, count_formula
from htlp.counting import factor_table


class TestClosedForm:
    @pytest.mark.parametrize("n,expected", [(0, 2), (1, 6), (2, 162)])
    def test_small_values(self, n, expected):
        assert count_formula(n).value == expected

    def test_result_is_exact_integer(self):
        value = count_formula(6).value
        assert isinstance(value, int)
        assert value > 10**9

    def test_factor_table(self):
        assert factor_table(3) == [
            (0, 1, 2), (1, 3, 3), (2, 3, 9), (3, 1, 129),
        ]

    def test_bound(self):
        with pytest.raises(CountBoundExceededError):
            count_formula(65)
        with pytest.raises(CountBoundExceededError):
            count_formula(-1)


class TestBruteForce:
    def test_agrees_with_closed_form(self):
        for n in range(4):
            assert count_bruteforce(n).value == count_formula(n).value

    def test_per_column_factor_matches(self):
        for k in range(5):
            assert column_choices_bruteforce(k) == 2 ** (2**k - 1) + 1

    def test_bound(self):
        with pytest.raises(CountBoundExceededError):
            count_bruteforce(5)


class TestSubsetFilter:
    def test_small_values(self):
        assert count_subset_filter(0).value == 2
        assert count_subset_filter(1).value == 6

    def test_n2_is_162(self):
        assert count_subset_filter(2).value == 162

    def test_bound(self):
        with pytest.raises(CountBoundExceededError):
            count_subset_filter(3)
