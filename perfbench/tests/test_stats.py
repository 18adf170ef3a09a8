"""Self-tests of the benchmark's percentile and sample-count arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from stats import beyond, gmean, median, percentile, quartile_spread  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(xs, 0), 1)
        self.assertEqual(percentile(xs, 100), 100)
        self.assertAlmostEqual(percentile(xs, 50), 50.5)
        self.assertAlmostEqual(percentile(xs, 90), 90.1)
        self.assertEqual(percentile([4.0], 90), 4.0)
        self.assertEqual(median([3, 1, 2]), 2)

    def test_order_does_not_matter(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3], 75), percentile([1, 2, 3, 4, 5], 75))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class SampleCountTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_p90_of_one_hundred(self):
        self.assertEqual(beyond(100, 90), 10)
        self.assertEqual(beyond(99, 90), 9)
        self.assertEqual(beyond(102, 90), 10)
        self.assertEqual(beyond(110, 90), 11)
        self.assertEqual(beyond(100, 50), 50)

    def test_p90_of_one_hundred_samples_leaves_ten_above_it(self):
        xs = list(range(100))
        p90 = percentile(xs, 90)
        self.assertEqual(sum(1 for x in xs if x > p90), beyond(len(xs), 90))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_uses_statistics_quantiles(self):
        xs = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(quartile_spread(xs), (q3 - q1) / q2)
        self.assertEqual(quartile_spread([2.0] * 10), 0.0)

    def test_gmean(self):
        self.assertAlmostEqual(gmean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(gmean([3.0]), 3.0)


if __name__ == "__main__":
    unittest.main()
