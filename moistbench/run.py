#!/usr/bin/env python3
"""moistbench — the repo's one benchmark.

    python3 moistbench/run.py                       every workload x --repeats, then a traced pass
    python3 moistbench/run.py --smoke               the same at ~1/20 size
    python3 moistbench/run.py --compare A.json B.json
    python3 moistbench/run.py --workload W --seed N --seconds S --trace 0|1    one run (the driver's form)

One run prints every metric by name with its unit and sample count, then one
JSON object as the last line of standard output.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 59


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One run (a fresh process per run; this is what the driver calls)
# ---------------------------------------------------------------------------
def import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {source}")


def traced_run(args, measure, calibrator, out_dir: str):
    """``--trace 1``: an untraced pass for the client's own breakdown and
    the system's counters, then the same rounds with probes installed.
    Returns the main pass, the per-layer values, every pass made and notes."""
    import harness
    import metrics
    import probes
    from workloads import WORKLOADS

    outcome = measure()
    values = metrics.client_layer(outcome)
    values.update(outcome.counters)
    values["repo.src_lines"] = metrics.src_lines(ROOT)
    passes = [outcome]
    if args.workload == "federation_disk":
        values.update(metrics.federation_layer(outcome))
        values.update(metrics.codec_wire(
            WORKLOADS[args.workload](args.seed, args.smoke), harness.Client(calibrator)
        ))
        # The backend ladder: each rung's calibrated seconds minus the rung
        # below it prices one boundary.  Workers are forked with no probes
        # installed, and every rung must reproduce the disk run's outputs.
        cal = {"respawn": outcome.cal_s()}
        for rung in ("inprocess", "process", "disk"):
            step = measure(rung=rung)
            passes.append(step)
            cal[rung] = step.cal_s()
            if step.fingerprint != outcome.fingerprint:
                outcome.client.fail(
                    outcome.client.attempted,
                    f"ladder rung {rung} fingerprint {step.fingerprint[:12]} "
                    f"differs from the disk run's {outcome.fingerprint[:12]}",
                )
        values["server.rpc.transport_overhead_s"] = cal["process"] - cal["inprocess"]
        values["disk.store.persist_overhead_s"] = cal["disk"] - cal["process"]
        values["server.worker.checkpoint_overhead_s"] = cal["respawn"] - cal["disk"]
        # The worker-side calls can only be probed where they run in this
        # process: the in-parent twin (in-process shards, real files).
        options = {"rung": "twin"}
        untraced = measure(**options)
        passes.append(untraced)
    else:
        options = {}
        untraced = outcome
    tracer = probes.Tracer()
    traced = measure(tracer=tracer, **options)
    passes.append(traced)
    values.update(metrics.traced_layers(tracer, traced, untraced))
    if traced.fingerprint != untraced.fingerprint:
        outcome.client.fail(outcome.client.attempted, "traced pass changed the outputs")
    gap = metrics.self_time_gap(tracer, traced)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
    with open(trace_path, "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "unresolved_probes": tracer.unresolved,
            "wall_s": traced.raw_s(), "self_time_gap": gap,
            "aggregates": tracer.aggregate_rows(), "spans": tracer.spans,
        }, handle)
    notes = [
        f"traced self times + client residue vs traced wall: gap {gap:.4%}",
        f"trace written to {trace_path}",
    ]
    return outcome, values, passes, notes


def single_run(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is part of the hot paths; pin it so runs differ by
        # host noise only.  exec replaces this process, nothing to reap.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)
    import_checkout()
    import harness
    import metrics
    from workloads import WORKLOADS

    spec = load_spec()
    started = time.perf_counter()
    calibrator = harness.Calibrator()
    out_dir = args.out or os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    seconds = args.seconds / (20.0 if args.smoke else 1.0)

    def measure(setups=1, tracer=None, **options):
        workload = WORKLOADS[args.workload](args.seed, args.smoke, **options)
        return harness.run_pass(
            workload, workload.rounds_for(seconds), out_dir, calibrator,
            setups=setups, tracer=tracer, collect=metrics.collect_counters,
        )

    if args.trace == 0:
        outcome = measure(setups=3)
        values = metrics.end_to_end(outcome)
        listed = spec["end_to_end"]
        passes, notes = [outcome], []
    else:
        outcome, values, passes, notes = traced_run(args, measure, calibrator, out_dir)
        listed = spec["per_layer"]

    attempted = sum(p.client.attempted for p in passes)
    failed = sum(p.client.failed for p in passes)
    expected = load_expected()
    checked = (
        not args.smoke and args.seed == expected["seed"]
        and args.seconds == expected["seconds"]
        and args.workload in expected["fingerprints"]
    )
    if checked and outcome.fingerprint != expected["fingerprints"][args.workload]:
        print(f"moistbench: FAILED: fingerprint {outcome.fingerprint} is not the "
              f"expected {expected['fingerprints'][args.workload]}", file=sys.stderr)
        failed = attempted
    correct = failed == 0

    absent = [m["name"] for m in listed if values.get(m["name"]) is None]
    print(f"moistbench {args.workload}  seed {args.seed}  rounds {outcome.rounds}  "
          f"trace {args.trace}  host_cpu_count {os.cpu_count()}")
    for metric in listed:
        value = values.get(metric["name"])
        shown = "n/a (no such layer here)" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<44} {shown:>14} {metric['unit']}")
    timed = outcome.timed()
    print(f"  samples: {len(timed)} timed calls in {outcome.rounds} rounds, "
          f"{len(outcome.setup_s)} set-ups; raw wall {outcome.raw_s():.3f} s, "
          f"calibration factor {outcome.cal_factor():.4f}")
    print(f"  operations: {attempted} attempted, {failed} failed; fingerprint "
          f"{outcome.fingerprint} ({'checked' if checked else 'not compared'})")
    for note in notes:
        print(f"  {note}")
    print(f"  run took {time.perf_counter() - started:.1f} s")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": args.trace, "rounds": outcome.rounds,
        "fingerprint": outcome.fingerprint, "fingerprint_checked": checked,
        "raw_wall_s": outcome.raw_s(), "cal_factor": outcome.cal_factor(),
        "samples": len(timed), "absent": absent,
    }
    print("moistbench-detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The whole benchmark
# ---------------------------------------------------------------------------
def child(args, workload: str, trace: int, out_dir: str):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", out_dir,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    lines = done.stdout.strip().splitlines()
    result = detail = None
    for line in lines:
        if line.startswith("moistbench-detail: "):
            detail = json.loads(line[len("moistbench-detail: "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is None or detail is None:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"moistbench: {workload} (trace {trace}) exited "
                         f"{done.returncode} without a result")
    return done.returncode, result, detail


def summarise(values) -> dict:
    summary = {"median": statistics.median(values), "values": values, "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def suite(args) -> int:
    spec = load_spec()
    cpus = os.cpu_count() or 1
    if cpus < 2 and not args.force:
        raise SystemExit(
            f"moistbench: {cpus} CPU cannot run federation_disk's two workers "
            "beside the client without oversubscribing; pass --force to run anyway"
        )
    started = time.perf_counter()
    out_dir = args.out or os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    worst = 0
    # Round-robin so slow drift of the host hits every workload alike.
    for repeat in range(args.repeats):
        for name in names:
            code, result, detail = child(args, name, 0, out_dir)
            worst = max(worst, code)
            runs[name].append({"result": result, "detail": detail})
            print(f"[{repeat + 1}/{args.repeats}] {name}: "
                  f"{'ok' if result['correct'] else 'FAILED'} "
                  f"raw {detail['raw_wall_s']:.2f} s", flush=True)
    report = {
        "benchmark": "moistbench", "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "smoke": args.smoke, "host_cpu_count": cpus,
        "python": platform.python_version(), "workloads": {},
    }
    for name in names:
        code, traced, traced_detail = child(args, name, 1, out_dir)
        worst = max(worst, code)
        attempted = sum(run["result"]["attempted"] for run in runs[name])
        failed = sum(run["result"]["failed"] for run in runs[name])
        entry = report["workloads"][name] = {
            "fingerprint": runs[name][0]["detail"]["fingerprint"],
            "fingerprint_checked": runs[name][0]["detail"]["fingerprint_checked"],
            "rounds": runs[name][0]["detail"]["rounds"],
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "raw_wall_s": [run["detail"]["raw_wall_s"] for run in runs[name]],
            "cal_factor": [run["detail"]["cal_factor"] for run in runs[name]],
            "end_to_end": {}, "per_layer": {},
            "traced_correct": traced["correct"],
        }
        print(f"\n{name}  ({entry['rounds']} rounds, fingerprint "
              f"{entry['fingerprint'][:16]}…, "
              f"{'checked' if entry['fingerprint_checked'] else 'not compared'})")
        for metric in spec["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"]
                      for run in runs[name]]
            summary = entry["end_to_end"][metric["name"]] = dict(
                summarise(values), unit=metric["unit"])
            spread = ""
            if "q1" in summary:
                spread = f"  [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}]"
            print(f"  {metric['name']:<44} {summary['median']:>14.6g} "
                  f"{metric['unit']:<6} n={summary['samples']}{spread}")
        print(f"  {'failed_ratio':<44} {entry['failed_ratio']:>14.6g} ratio  "
              f"({failed} of {attempted} operations)")
        print(f"  raw wall {statistics.median(entry['raw_wall_s']):.3f} s, "
              f"calibration factor {statistics.median(entry['cal_factor']):.4f}")
        for metric in spec["per_layer"]:
            absent = metric["name"] in traced_detail["absent"]
            value = None if absent else traced["metrics"][metric["name"]]["value"]
            entry["per_layer"][metric["name"]] = {"value": value, "unit": metric["unit"]}
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric['name']:<44} {shown:>14} {metric['unit']:<6} n=1")
    report["total_wall_s"] = time.perf_counter() - started
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nmoistbench took {report['total_wall_s']:.0f} s; results and traces in {out_dir}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload once and print its result")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="~1/20 size, one repeat")
    parser.add_argument("--out", help="directory for results.json and trace files")
    parser.add_argument("--force", action="store_true",
                        help="run even when the host has fewer than 2 CPUs")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        from compare import compare
        return compare(args.compare[0], args.compare[1], load_spec())
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        if args.workload not in [w["name"] for w in load_spec()["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        try:
            return single_run(args)
        except ImportError as error:
            print(f"moistbench: no program to measure: {error}", file=sys.stderr)
            return 2
    if args.smoke:
        args.repeats = 1
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
