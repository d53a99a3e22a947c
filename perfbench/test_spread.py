"""Tests of the steadiness statistics: python3 -m unittest discover perfbench"""

import statistics
import unittest

from spread import spread, worsening


class SpreadTest(unittest.TestCase):
    def test_matches_the_quartiles_of_the_statistics_module(self):
        xs = [10.0, 11.0, 9.5, 10.2, 10.1, 9.9, 10.4, 10.0, 9.8, 10.6]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(spread(xs), (q3 - q1) / statistics.median(xs))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([7.0] * 10), 0.0)

    def test_spread_is_relative_to_the_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(spread([10 * x for x in xs]), spread(xs))


class WorseningTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(worsening(2.0, 2.2, "lower"), 0.1)
        self.assertAlmostEqual(worsening(2.0, 1.8, "lower"), -0.1)

    def test_higher_is_better(self):
        self.assertAlmostEqual(worsening(100.0, 90.0, "higher"), 0.1)
        self.assertAlmostEqual(worsening(100.0, 110.0, "higher"), -0.1)


if __name__ == "__main__":
    unittest.main()
