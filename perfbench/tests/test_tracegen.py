"""The serve-zipf trace generator writes tdc_run's TDCTRACE format."""

import os
import struct
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from harness import tracegen  # noqa: E402


class ZipfTraceTest(unittest.TestCase):
    WORDS = 1024

    def setUp(self):
        self.data = tracegen.zipf_trace(7, 5000, self.WORDS)

    def records(self):
        return [struct.unpack_from("<QBQQ", self.data, 16 + 25 * i)
                for i in range(5000)]

    def test_header_and_size(self):
        self.assertEqual(self.data[:16],
                         b"TDCTRACE" + struct.pack("<II", 1, 5000))
        self.assertEqual(len(self.data), 16 + 25 * 5000)

    def test_same_seed_same_bytes(self):
        self.assertEqual(tracegen.zipf_trace(7, 5000, self.WORDS), self.data)
        self.assertNotEqual(tracegen.zipf_trace(8, 5000, self.WORDS),
                            self.data)

    def test_one_request_per_tick_inside_the_address_space(self):
        recs = self.records()
        self.assertEqual([r[0] for r in recs], list(range(5000)))
        self.assertTrue(all(r[1] in (0, 1) for r in recs))
        self.assertTrue(all(r[2] < self.WORDS for r in recs))

    def test_write_share_and_skew(self):
        recs = self.records()
        writes = sum(r[1] for r in recs) / len(recs)
        self.assertAlmostEqual(writes, 0.30, delta=0.03)
        # zipf90: rank 0's address alone draws floor(words * u^10) == 0,
        # i.e. u < (1/words)^(1/10), about half of all requests here.
        hot = max(set(r[2] for r in recs),
                  key=lambda a: sum(r[2] == a for r in recs))
        share = sum(r[2] == hot for r in recs) / len(recs)
        self.assertAlmostEqual(share, (1 / self.WORDS) ** 0.1, delta=0.03)


if __name__ == "__main__":
    unittest.main()
