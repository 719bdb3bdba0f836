"""Self-tests of the benchmark's own arithmetic and gate.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
from run import OUT  # noqa: E402
from worker import run_cli  # noqa: E402


def _spans(rows: list[tuple[str, int, float, float, int]]) -> dict:
    """Span arrays from (kind, parent, start, end, rows) tuples."""
    kind, parent, start, end, nrows = zip(*rows)
    return {
        "kind": np.array([spans.KINDS.index(k) for k in kind], dtype=np.int8),
        "parent": np.array(parent, dtype=np.int64),
        "start": np.array(start, dtype=float),
        "end": np.array(end, dtype=float),
        "rows": np.array(nrows, dtype=np.int64),
        "nbytes": np.zeros(len(rows), dtype=np.int64),
    }


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        arr = _spans([
            ("cli", -1, 0.0, 10.0, 1),
            ("thresholds.set", 0, 1.0, 9.0, 1),
            ("channels.evolve", 1, 2.0, 4.0, 1001),
            ("measures.wootters", 1, 4.5, 8.0, 1001),
            ("linalg.psd_sqrt", 3, 5.0, 6.0, 1001),
            ("cli", -1, 20.0, 21.5, 1),
        ])
        own = spans.self_times(arr["parent"], arr["start"], arr["end"])
        np.testing.assert_allclose(own, [2.0, 2.5, 2.0, 2.5, 1.0, 1.5])
        m = spans.layer_metrics(arr, n_ops=2)
        self.assertAlmostEqual(m["cli.self_s"], 1.75)
        self.assertAlmostEqual(m["measures.wootters_batch_s"], 1.25)
        self.assertAlmostEqual(m["linalg.psd_sqrt_batch_s"], 0.5)
        self.assertTrue(spans.covers(spans.reported_self_s(m) * 2, 11.5))

    def test_span_kind_without_a_metric_breaks_the_sum(self):
        with mock.patch.object(spans, "KINDS", spans.KINDS + ("new.layer",)):
            arr = _spans([
                ("cli", -1, 0.0, 10.0, 1),
                ("thresholds.set", 0, 1.0, 9.0, 1),
                ("new.layer", 1, 2.0, 5.0, 1),
            ])
            m = spans.layer_metrics(arr, n_ops=1)
        self.assertAlmostEqual(spans.reported_self_s(m), 7.0)
        self.assertFalse(spans.covers(spans.reported_self_s(m), 10.0))

    def test_batch_point_split(self):
        arr = _spans([
            ("cli", -1, 0.0, 10.0, 1),
            ("thresholds.set", 0, 0.5, 9.5, 1),
            ("channels.evolve", 1, 1.0, 3.0, 1001),
            ("channels.evolve", 1, 4.0, 4.5, 1),
        ])
        m = spans.layer_metrics(arr, n_ops=1)
        self.assertEqual(m["channels.evolve_batch_rows"], 1001)
        self.assertAlmostEqual(m["channels.evolve_batch_s"], 2.0)
        self.assertEqual(m["channels.evolve_point_calls"], 1)
        self.assertAlmostEqual(m["channels.evolve_point_s"], 0.5)
        self.assertEqual(m["thresholds.point_calls_per_set"], 1.0)


class Calibration(unittest.TestCase):
    def test_scale_uses_neighbouring_samples(self):
        import calibrate

        ref = calibrate.REF_S
        # Ops 0-1 ran at reference speed, ops 2-4 at half speed; one sample
        # in the slow stretch is an outlier that the median ignores.
        cal = [ref, ref, ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref]
        scaled = calibrate.scale([1.0] * 5, cal)
        self.assertAlmostEqual(scaled[0], 1.0)
        self.assertAlmostEqual(scaled[3], 0.5)
        self.assertAlmostEqual(scaled[4], 0.5)


class Wrappers(unittest.TestCase):
    def test_recorded_where_callers_look_and_restored(self):
        import qnl.channels
        import qnl.thresholds
        from qnl.states import werner

        tracer = spans.Tracer()
        with spans.installed(tracer):
            qnl.thresholds.threshold_set(werner(0.9), "amplitude-damping", 1e-6)
        arr = tracer.arrays()
        kinds = {spans.KINDS[k] for k in arr["kind"]}
        self.assertTrue({"thresholds.set", "channels.evolve", "measures.wootters",
                         "linalg.psd_sqrt", "measures.corr_svd"} <= kinds)
        self.assertIs(qnl.thresholds.evolve_grid, qnl.channels.evolve_grid)


class Gate(unittest.TestCase):
    def test_flipped_byte_fails(self):
        from qnl.cli import main
        from workloads import MemsHierarchy

        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as work:
            op = MemsHierarchy(work).op(seed=1, index=0)
            code, _ = run_cli(main, op.argv)
            self.assertEqual(code, 0)
            with open(op.out, "rb") as fh:
                good = fh.read()
        ref = gate.digest(good)
        self.assertEqual(gate.check(op, good, None, ref), [])
        self.assertEqual(gate.check(op, good, None, None), [])
        pos = good.index(b"\n") + 3  # a digit of the first state's p1
        bad = good[:pos] + bytes([good[pos] ^ 0x01]) + good[pos + 1:]
        self.assertNotEqual(gate.check(op, bad, None, ref), [])

    def test_reference_free_bracket_catches_a_wrong_threshold(self):
        from qnl.states import werner

        rho = werner(0.9)
        q = gate.check_bracket(rho, "depolarizing", [None, None, None, None], 1e-9)
        self.assertNotEqual(q, [])  # every condition dies before q = 1


if __name__ == "__main__":
    unittest.main()
