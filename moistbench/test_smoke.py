"""Smoke test of the benchmark itself: ``python -m pytest moistbench/test_smoke.py``.

Lives beside the benchmark (tier-1's ``testpaths`` is ``tests/``) and runs the
whole thing twice at ~1/20 size, traced pass included.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def smoke(out_dir):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert done.returncode == 0, done.stdout
    with open(os.path.join(out_dir, "results.json")) as handle:
        return json.load(handle), done.stdout


def test_smoke_emits_every_metric_and_repeats(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    first, printed = smoke(tmp_path / "a")
    second, _ = smoke(tmp_path / "b")
    assert set(first["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in first["workloads"].items():
        assert entry["failed_ratio"] == 0 and entry["attempted"] > 0, name
        assert entry["traced_correct"], name
        for metric in spec["end_to_end"]:
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["median"] > 0, (name, metric)
            assert f"{metric['name']:<44}" in printed
        for metric in spec["per_layer"]:
            got = entry["per_layer"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric)
            # Ladder differences may be negative: two workers apply in parallel.
            assert (got["value"] is None or got["value"] >= 0
                    or metric["name"].endswith("_overhead_s")), (name, metric)
        assert os.path.exists(tmp_path / "a" / f"trace-{name}.json")
        again = second["workloads"][name]
        assert entry["fingerprint"] == again["fingerprint"], name
        assert (entry["end_to_end"]["sim_requests_per_s"]["values"]
                == again["end_to_end"]["sim_requests_per_s"]["values"]), name
        for layer in ("server.rpc.wire_bytes_per_request", "bigtable.cost.storage_rpcs"):
            assert entry["per_layer"][layer] == again["per_layer"][layer], (name, layer)
    federation = first["workloads"]["federation_disk"]["per_layer"]
    assert federation["server.rpc.frames"]["value"] > 0
    assert first["workloads"]["update_stream"]["per_layer"]["server.rpc.frames"]["value"] is None
