"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at tiny sizes and checks
that each emits exactly the metrics BENCHMARK.json names, with their units,
that the tracer finds every layer the workload is expected to call, and that
a perturbed output makes the workload's check fire and counts as failed.
"""

import json
import math
import os
import sys

import run  # pins the BLAS threads before numpy loads
from workloads import WORKLOADS


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert expected[0] == run.END_TO_END
    assert expected[1] == run.per_layer_units()

    for name in WORKLOADS:
        for trace in (0, 1):
            result, lines = run.run(name, 0, 0, trace, tiny=True, setup_repeats=1, write=False)
            metrics = result["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == expected[trace], name
            assert all(math.isfinite(v["value"]) for v in metrics.values()), name
            assert result["correct"] and result["failed"] == 0, (name, lines)
            assert any("failed_frac 0/" in line for line in lines), name
            if trace:
                assert metrics["trace.missing_spans"]["value"] == 0, (name, lines)
                assert metrics["trace.unexpected_spans"]["value"] == 0, (name, lines)

        result, lines = run.run(name, 0, 0, 0, tiny=True, perturb=True, setup_repeats=1,
                                write=False)
        assert not result["correct"], name
        assert result["failed"] == result["attempted"] >= 1, name
        assert any("check failed" in line for line in lines), name
        print("%s: metrics, spans and perturbed check ok" % name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
