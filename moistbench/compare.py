"""``run.py --compare A.json B.json``: did B regress against A?

Per workload x end-to-end metric: both medians and quartiles, the relative
difference, and the bound from BENCHMARK.json.  A metric whose interquartile
spread on either side is wider than its bound is reported *unresolved* rather
than unchanged.  ``sim_requests_per_s`` is the simulated clock: for the same
seed and size it must be equal to the last digit, whatever its bound.
"""

from __future__ import annotations

import json
from typing import Dict

EXACT = ("sim_requests_per_s",)


def _spread(summary: Dict) -> float:
    if "q1" not in summary or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def _cell(summary: Dict) -> str:
    spread = f" [{summary['q1']:.5g}, {summary['q3']:.5g}]" if "q1" in summary else ""
    return f"{summary['median']:.6g}{spread}"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    same_inputs = all(a[key] == b[key] for key in ("seed", "seconds", "smoke"))
    regressions = 0
    print(f"{'workload':<17}{'metric':<20}{'A median [q1,q3]':>34}{'B median [q1,q3]':>34}"
          f"{'B vs A':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"{workload:<17}missing from one side")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            left = a["workloads"][workload]["end_to_end"][name]
            right = b["workloads"][workload]["end_to_end"][name]
            change = (right["median"] - left["median"]) / left["median"]
            worse = -change if metric["better"] == "higher" else change
            if name in EXACT and same_inputs:
                verdict = "equal" if left["values"] == right["values"] else "DIFFERS (exact metric)"
                regressions += verdict != "equal"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif max(_spread(left), _spread(right)) > metric["bound"]:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "ok"

            print(f"{workload:<17}{name:<20}{_cell(left):>34}{_cell(right):>34}"
                  f"{change:>+9.2%}{metric['bound']:>7.0%}  {verdict}")
        failed = b["workloads"][workload]["failed"]
        if failed:
            print(f"{workload:<17}{'failed_ratio':<20} B failed {failed} operations: REGRESSION")
            regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
