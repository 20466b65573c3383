"""Each BENCH_<n>.json at the repository root records the benchmark runs of
one change: the commits it compared, the seeds and workloads it ran, and for
each run the last JSON line and the `# env` line of `perfbench/run.py`.
BENCHMARK.json is only read here."""
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_every_bench_record_names_its_commits_seeds_and_workloads():
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        rec = json.loads(path.read_text())
        sides = rec["commits"]
        assert sides and all(re.fullmatch("[0-9a-f]{40}", sha) for sha in sides.values()), path.name
        assert rec["seeds"] and all(type(s) is int for s in rec["seeds"]), path.name
        assert rec["workloads"] and set(rec["workloads"]) <= declared, path.name
        assert rec["runs"], path.name
        for run in rec["runs"]:
            assert run["workload"] in rec["workloads"] and run["seed"] in rec["seeds"], path.name
            for side in sides:
                assert RESULT_KEYS <= run[side]["result"].keys(), path.name
                assert run[side]["env"]["seed"] == run["seed"], path.name
