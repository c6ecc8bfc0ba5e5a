"""Self-test of the benchmark's own arithmetic and output checks.

    python3 perfbench/selftest.py

Needs neither numpy nor the package: spans and outputs are synthetic.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402


def span(id, name, layer, parent, start, end, cpu=None, **attrs):
    s = tracing.Span(id, name, layer, parent, "test", start, 0.0)
    s.end, s.cpu_end, s.attrs = end, (end - start) if cpu is None else cpu, attrs
    return s


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            span(1, "workload", "bench", 0, 0.0, 10.0),
            span(2, "train", "diffusion", 1, 1.0, 5.0),
            span(3, "Mlp.forward", "numcore", 2, 1.5, 2.5),
            span(4, "Mlp.backward", "numcore", 2, 3.0, 4.5),
            span(5, "kde_fit", "analysis", 1, 6.0, 9.0),
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(own[2], 4.0 - 1.0 - 1.5)
        self.assertAlmostEqual(own[3], 1.0)
        layers = tracing.layer_self_times(spans)
        self.assertAlmostEqual(layers["numcore"], 2.5)
        self.assertAlmostEqual(layers["diffusion"], 1.5)
        self.assertAlmostEqual(layers["analysis"], 3.0)
        # Nested, non-overlapping children: self times add up to the root.
        self.assertAlmostEqual(sum(layers.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, "render_states", "harness", 0, 0.0, 4.0),
            span(2, "render", "dynsim", 1, 1.0, 3.0),
            span(3, "render", "dynsim", 1, 2.0, 3.5),
        ]
        self.assertAlmostEqual(tracing.self_times(spans)[1], 4.0 - 2.5)

    def test_command_stage_is_command_minus_cached_stages(self):
        spans = [
            span(1, "cmd_pipeline", "harness", 0, 0.0, 10.0, cpu=12.0),
            span(2, "stage", "harness", 1, 0.0, 3.0, cpu=5.0, stage="dataset", hit=True),
            span(3, "stage", "harness", 1, 3.0, 4.0, cpu=1.0, stage="diffusion", hit=False),
            span(4, "train", "diffusion", 3, 3.1, 3.9),
        ]
        m = tracing.layer_metrics(spans)
        self.assertAlmostEqual(m["harness.stage.evaluate.wall_s"], 6.0)
        self.assertAlmostEqual(m["harness.stage.evaluate.cpu_s"], 6.0)
        self.assertAlmostEqual(m["harness.stage.dataset.wall_s"], 3.0)
        self.assertEqual((m["harness.cache.hits"], m["harness.cache.misses"]), (1, 1))
        self.assertAlmostEqual(m["diffusion.train_s"], 0.8)

    def test_tracer_records_parents_and_errors(self):
        tracer = tracing.Tracer("t")

        def inner(x):
            if x < 0:
                raise ValueError("negative")
            return x

        inner_t = tracer.wrap("numcore", "inner", inner)
        outer_t = tracer.wrap("diffusion", "outer", lambda x: inner_t(x) + inner_t(1))
        self.assertEqual(outer_t(2), 3)
        with self.assertRaises(ValueError):
            inner_t(-1)
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        outer = by_name["outer"][0]
        self.assertEqual([s.parent for s in by_name["inner"]], [outer.id, outer.id, 0])
        self.assertEqual(by_name["inner"][-1].error, "ValueError")


GOOD_CSV = (
    checks.CSV_HEADER + "\n"
    "oscillator,Z,ols-probe,regression_cosine,0.25,,384,3\n"
    "oscillator,C,ols-probe,regression_cosine,0.125,,384,3\n"
)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.store = checks.DigestStore(os.path.join(self.dir.name, "digests.json"), "code")

    def tearDown(self):
        self.dir.cleanup()

    def check(self, text, seed=3, key="cfg"):
        with open(os.path.join(self.dir.name, "orthogonality.csv"), "w") as fh:
            fh.write(text)
        return checks.check_outputs("probe-orthogonality", self.dir.name, seed, key, self.store)

    def test_good_csv_passes(self):
        rows, problems = self.check(GOOD_CSV)
        self.assertEqual(problems, [])
        self.assertEqual(rows[("C", "ols-probe", "regression_cosine")], 0.125)

    def test_corrupted_csvs_fail(self):
        corrupt = {
            "header": GOOD_CSV.replace("metric,value", "metric,val"),
            "nan": GOOD_CSV.replace("0.125", "nan"),
            "missing row": GOOD_CSV.split("oscillator,C")[0],
            "seed": GOOD_CSV.replace(",3\n", ",4\n"),
            "truncated": GOOD_CSV[:-9],
        }
        for what, text in corrupt.items():
            with self.subTest(what):
                _, problems = self.check(text, key=what)
                self.assertTrue(problems, what)

    def test_changed_bytes_fail_against_the_first_run(self):
        self.assertEqual(self.check(GOOD_CSV)[1], [])
        _, problems = self.check(GOOD_CSV.replace("0.125", "0.1250000001"))
        self.assertTrue(any("differ" in p for p in problems))

    def test_pgm_check(self):
        checks.check_pgm(b"P5\n3 2\n255\n" + bytes(6))
        with self.assertRaises(ValueError):
            checks.check_pgm(b"P5\n3 2\n255\n" + bytes(5))
        with self.assertRaises(ValueError):
            checks.check_pgm(b"P6\n3 2\n255\n" + bytes(6))


if __name__ == "__main__":
    unittest.main()
