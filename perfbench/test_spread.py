"""Self-test of the spread helper: quartiles as Python's exclusive
method computes them, over the median."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spread import seed_range, spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_over_median(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        # Order does not matter, and identical values have no spread.
        self.assertAlmostEqual(spread([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]), 1.0)
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_seed_ranges(self):
        self.assertEqual(seed_range("3-6"), [3, 4, 5, 6])
        self.assertEqual(seed_range("7"), [7])


if __name__ == "__main__":
    unittest.main()
