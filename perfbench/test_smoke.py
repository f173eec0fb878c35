"""Self-tests of the benchmark, on a few small jobs per workload.

    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from harness import Caller, run_rounds  # noqa: E402
from workloads import BUILDERS, LAYERS_USED, PROFILE  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in BUILDERS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    m = bench.measure(workload, seed=1, seconds=0, trace=trace, tiny=True)
                    line = m["result"]
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(set(line["metrics"]), {x["name"] for x in SPEC[key]})
                    for spec in SPEC[key]:
                        got = line["metrics"][spec["name"]]
                        self.assertEqual(got["unit"], spec["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    for name in ("setup_s", "run_s", "job_p50_ms", "job_p90_ms", "job_tail10_ms",
                                 "peak_rss_mb"):
                        self.assertGreater(m["e2e"][name], 0)
                    self.assertIn("fail_ratio", m["e2e"])
                    if trace:
                        self.assertLessEqual(set(m["record"]["layers_called"]),
                                             set(LAYERS_USED[workload]))

    def test_a_planted_wrong_expectation_counts_as_a_failure(self):
        for workload, build in BUILDERS.items():
            with self.subTest(workload=workload):
                built = build(1, True, Caller())

                def planted(r):
                    jobs = built.make_round(r)
                    jobs[0].check = lambda verdict: "planted wrong expectation"
                    return jobs
                try:
                    result = run_rounds(planted, 0)
                finally:
                    built.close()
                self.assertEqual(result.rounds[0].failures.get(0), "planted wrong expectation")
                self.assertIn("planted wrong expectation", [why for _t, _j, why in result.failed])

    def test_the_seed_changes_inputs_but_not_the_job_mix(self):
        for workload, build in BUILDERS.items():
            with self.subTest(workload=workload):
                rounds = {}
                for seed in (1, 2):
                    built = build(seed, False, Caller())
                    rounds[seed] = [built.make_round(r) for r in (0, 1)]
                    built.close()
                kinds = [[j.kind for j in jobs] for seed in (1, 2) for jobs in rounds[seed]]
                self.assertTrue(all(k == kinds[0] for k in kinds))
                labels = {seed: [[j.label for j in jobs] for jobs in rounds[seed]]
                          for seed in (1, 2)}
                self.assertNotEqual(labels[1][0], labels[2][0])
                if not built.fixed:     # fresh inputs every round
                    self.assertNotEqual(labels[1][0], labels[1][1])

    def test_the_cli_calls_match_the_tier1_profile(self):
        built = BUILDERS["cli-oneshot"](1, False, Caller())
        built.close()
        mine = {f"{row['kind']} -> exit {row['exit']}": row["jobs"]
                for row in built.mix if row["weight"] == "tier1"}
        tier1 = {row["args"]: row["calls"] for row in PROFILE["cli.main"]}
        self.assertEqual(mine, tier1)


if __name__ == "__main__":
    unittest.main()
