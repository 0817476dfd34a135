"""Every committed BENCH_*.json record supports the claim it states."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_its_claim(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in {workload["name"] for workload in BENCHMARK["workloads"]}
    assert claim["metric"] in METRICS
    for bench_round in record["rounds"]:
        for results in bench_round["workloads"].values():
            for name in METRICS.keys() & results.keys():
                runs = [results[name][side]["runs"] for side in ("parent", "change")]
                assert len(runs[0]) == len(runs[1]) >= 10
    # the claim rests on the first round that ran its workload
    sides = next(bench_round["workloads"][claim["workload"]] for bench_round in record["rounds"]
                 if claim["workload"] in bench_round["workloads"])[claim["metric"]]
    parent, change = (np.array(sides[side]["runs"]) for side in ("parent", "change"))
    sign = 1.0 if METRICS[claim["metric"]]["better"] == "lower" else -1.0
    wins = int(np.sum(sign * (parent - change) > 0))
    q1, q3 = np.percentile(parent, [25, 75])
    gap = sign * (np.median(parent) - np.median(change))
    assert claim["pairs"] == len(parent)
    assert claim["change_lower_in"] == wins
    assert claim["met"] == (wins >= 0.9 * len(parent) and gap > q3 - q1)
