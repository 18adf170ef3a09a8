#!/usr/bin/env python3
"""The repository benchmark: one workload per run, checked and measured.

    python3 perfbench/run.py --workload <func_expand|timing_sweep|serve_mixed>
                             --seed N --seconds S --trace 0|1

Builds what it measures from source (the `perfbench` layer runner and
`dise_serve`, both with the repository's release profile, into
CARGO_TARGET_DIR, default `.bench_build`), runs the workload, checks its
outputs, prints every metric by name with its unit and sample count, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, measured on passes that
record spans (written as a Chrome trace under `.bench_work/`)
interleaved with passes that do not, whose difference is reported as the
tracing overhead. README.md in this directory explains each workload and
metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import serve_mixed  # noqa: E402
from stats import beyond, gmean, median, percentile  # noqa: E402

WORKLOADS = ("func_expand", "timing_sweep", "serve_mixed")
WORK = Path(".bench_work")

# Every DISE_* knob the measured programs read is set or cleared here,
# so an inherited value cannot change what is measured.
KNOBS = {
    "DISE_BLOCK_CACHE": "on",
    "DISE_ACF_ARENA": "on",
    "DISE_FRONTEND": "shared",
    "DISE_ACF_SELECT": "v2",
    "DISE_BENCH_JOBS": "1",  # the daemon's pool: one worker
    "DISE_OBS_SINK": None,
    "DISE_SNAPSHOT": None,
}


class Tracer:
    """Spans recorded by the load generator (serve_mixed)."""

    def __init__(self):
        self.origin = time.monotonic()
        self.spans = []

    def add(self, name, req, start, end, parent=0, args=None):
        span_id = len(self.spans) + 1
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "req": req,
            "start_us": (start - self.origin) * 1e6, "end_us": (end - self.origin) * 1e6,
            "args": args or {},
        })
        return span_id


def write_chrome_trace(spans, path, lane):
    """Chrome trace-event JSON (one complete event per span), the format
    dise_trace_export emits; `lane(span)` picks the thread row."""
    events = [{
        "name": s["name"], "cat": "perfbench", "ph": "X",
        "ts": s["start_us"], "dur": max(0.0, s["end_us"] - s["start_us"]),
        "pid": 1, "tid": lane(s),
        "args": dict(s.get("args", {}), req=s["req"], span=s["id"], parent=s["parent"]),
    } for s in spans]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISE_")}
    env.update({k: v for k, v in KNOBS.items() if v is not None})
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def host_facts(env):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        digest.update(path.read_bytes())
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env).stdout.strip()
    return (f"nproc={len(os.sched_getaffinity(0))} commit={commit} "
            f"source_sha256={digest.hexdigest()[:16]} rustc={rustc!r}")


def build(env):
    """Builds both measured binaries; returns their paths."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "dise-bench", "--bin", "dise_serve"],
    ):
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    release = Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "dise-perfbench", release / "dise_serve"


def perfbench(binary, env, args, out):
    subprocess.run([str(binary), *args, "--out", str(out)], env=env, check=True)
    return json.loads(out.read_text())


def mean(xs):
    return sum(xs) / len(xs)


def ratio(num, den):
    return num / den if den else 0.0


def rate(passes, count, secs):
    """`count` per second of `secs`, over all of `passes` together: a
    pass can be a fraction of a second, so one pass's rate is noisy."""
    return ratio(sum(p[count] for p in passes), sum(p[secs] for p in passes))


def overhead_pct(untraced, traced):
    if not untraced or not traced:
        return 0.0
    return (median(traced) - median(untraced)) / median(untraced) * 100


def sim_layers(c):
    """Per-layer metrics derived from summed simulator counters."""
    return {
        "engine.expansions": c.get("engine.expansions", 0.0),
        "engine.replacement_insts": c.get("engine.replacement_insts", 0.0),
        "engine.pt_misses": c.get("engine.pt_misses", 0.0),
        "engine.rt_misses": c.get("engine.rt_misses", 0.0),
        "engine.stall_cycles": c.get("engine.stall_cycles", 0.0),
        "sim.cycles": c.get("sim.cycles", 0.0),
        "sim.ipc": ratio(c.get("sim.app_insts", 0.0), c.get("sim.cycles", 0.0)),
        "l1i.miss_ratio": ratio(c.get("l1i.misses", 0.0), c.get("l1i.accesses", 0.0)),
        "l1d.miss_ratio": ratio(c.get("l1d.misses", 0.0), c.get("l1d.accesses", 0.0)),
        "l2.miss_ratio": ratio(c.get("l2.misses", 0.0), c.get("l2.accesses", 0.0)),
        "bpred.mispredict_ratio": ratio(c.get("bpred.cond_mispredicts", 0.0),
                                        c.get("bpred.cond_predictions", 0.0)),
        "sim.dise_stall_cycles": c.get("sim.dise_stall_cycles", 0.0),
    }


def block_layers(c):
    hits, misses = c.get("block_hits", 0.0), c.get("block_misses", 0.0)
    planned, searched = c.get("block_planned_groups", 0.0), c.get("block_searched_groups", 0.0)
    return {
        "block.hit_ratio": ratio(hits, hits + misses),
        "block.plan_ratio": ratio(planned, planned + searched),
        "block.seg_groups": c.get("block_seg_groups", 0.0),
        "block.invalidations": c.get("block_invalidations", 0.0),
    }


SERVE_ONLY = ("serve.queue_wait_ms.p50", "serve.queue_wait_ms.p90", "serve.run_ms.p50",
              "serve.run_ms.p90", "serve.busy", "serve.stats_probe_ms", "cache.misses",
              "cache.hits", "loadgen.late_ms.p90")


def in_process(workload, binary, env, args, out_dir):
    """func_expand / timing_sweep: metrics, sample notes, ops, spans."""
    raw = perfbench(binary, env, [workload, "--seed", str(args.seed), "--seconds",
                                  str(args.seconds), "--trace", str(args.trace)],
                    out_dir / "raw.json")
    passes = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    jobs = raw["jobs_ms"]
    setups = raw["setups"]
    e2e = {
        "setup_s": (median([s["total_s"] for s in setups]), f"median of {len(setups)} cold set-ups"),
        "func_mips": (rate(passes, "func_insts", "func_s") / 1e6, f"over {len(passes)} passes"),
        "timing_mips": (rate(passes, "timing_insts", "timing_s") / 1e6,
                        f"over {len(passes)} passes"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024, "VmHWM of the simulating process"),
        "job_p50_ms": (percentile(jobs, 50), f"n={len(jobs)}"),
        "job_p90_ms": (percentile(jobs, 90), f"n={len(jobs)}, {beyond(len(jobs), 90)} beyond"),
        "serve_jobs_per_s": (rate(passes, "jobs", "wall_s"), f"over {len(passes)} passes"),
        "mfi_slowdown": (raw["values"]["mfi_slowdown"], "gmean over benchmarks, simulated"),
    }

    def setup_layer(name):
        return median([s["layers"].get(name, 0.0) for s in setups])

    def pass_layer(name):
        return mean([p["layers"].get(name, 0.0) for p in traced]) if traced else 0.0

    c, v = raw["counters"], raw["values"]
    layers = {
        "workloads.build_s": setup_layer("workloads.build"),
        "acf.compress_s": setup_layer("acf.compress"),
        "acf.compress.entries": c.get("acf.compress.entries", 0.0),
        "acf.compress.dict_bytes": c.get("acf.compress.dictionary_bytes", 0.0),
        "acf.compress_ratio": v["compress_ratio"],
        "rewrite.mfi_s": setup_layer("rewrite.mfi"),
        "sim.load_s": setup_layer("sim.load"),
        "arena.hits": v["arena.hits"],
        "arena.misses": v["arena.misses"],
        "core.engine_setup_s": setup_layer("core.engine_setup"),
        "sim.func_run_s": pass_layer("sim.func_run"),
        "sim.timing_run_s": pass_layer("sim.timing_run"),
        "sim.ns_per_cycle": ratio(pass_layer("sim.timing_run"), c.get("sim.cycles", 0.0)) * 1e9,
        "run.pass_s": mean([p["wall_s"] for p in traced]) if traced else 0.0,
        "trace.overhead_pct": overhead_pct([p["wall_s"] for p in passes],
                                           [p["wall_s"] for p in traced]),
        **sim_layers(c), **block_layers(c), **{k: 0.0 for k in SERVE_ONLY},
    }
    for failure in raw["failures"]:
        print(f"# FAILED {failure}")
    rates = {}
    for key in v:
        if key.startswith("insts."):
            kind = key.split("/")[1]
            insts, secs = rates.get(kind, (0.0, 0.0))
            rates[kind] = (insts + v[key], secs + v["secs." + key[len("insts."):]])
    if rates:
        print("# functional rate by scenario (Minst/s, all benchmarks): " + ", ".join(
            f"{k} {i / s / 1e6:.2f}" for k, (i, s) in sorted(rates.items())))
    spans = [{"id": s[0], "parent": s[1], "name": s[2], "req": s[3], "start_us": s[4],
              "end_us": s[5]} for s in raw["spans"]]
    return e2e, layers, (raw["attempted"], raw["failed"]), spans, lambda s: 1


def serve(binaries, env, args, out_dir):
    """serve_mixed: rounds of daemon + load generator, then the oracle."""
    tracer = Tracer()
    served = serve_mixed.run(str(binaries[1]), env, out_dir, args.seed, args.seconds,
                             tracer, args.trace == 1)
    rounds, setups = served["rounds"], served["setup_s"]
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(1 for r in rounds for j in r["jobs"] if not j.done)
    failed += sum(1 for f in failures if f.startswith("round "))  # daemon-level failures
    # Set-up probes, run-level stops, and interactive samples the run
    # fell short of: each is an operation, and each failure a failed one.
    attempted += len(setups) + len(served["failures"]) + served["shortfall"]
    failed += len(served["failures"]) + served["shortfall"]
    failures = served["failures"] + failures
    if served["shortfall"]:
        failures.insert(0, f"{served['shortfall']} interactive jobs short of "
                           f"{serve_mixed.MIN_INTERACTIVE}")

    # The oracle: every cell the daemon computed must have retired the
    # application-instruction count of a functional run of the same
    # program, and a cell must report identical counters in every round.
    oracle = perfbench(binaries[0], env, ["serve_oracle", "--seed", str(args.seed), "--seconds",
                                          str(serve_mixed.ORACLE_SECONDS), "--dyn",
                                          str(serve_mixed.SERVE_DYN), "--benches",
                                          ",".join(serve_mixed.BENCHES)], out_dir / "oracle.json")
    attempted += oracle["attempted"]
    failed += oracle["failed"]
    failures += oracle["failures"]
    first = {}
    for r in rounds:
        for key, stats in r["cells"].items():
            bench, kind = serve_mixed.cell_kind(key)
            attempted += 1
            want = oracle["values"].get(f"{bench}/{kind}.app_insts")
            problem = None
            if stats.get("sim.app_insts") != want:
                problem = f"app insts {stats.get('sim.app_insts')} != oracle {want}"
            elif first.setdefault(key, stats) != stats:
                problem = "counters differ between rounds"
            if problem:
                failed += 1
                failures.append(f"cell {key[:60]}: {problem}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")

    # Metrics come from rounds that completed; a failed round already
    # counts as failed operations.
    complete = [r for r in rounds if "rss_kib" in r]
    if not complete:
        print("# serve_mixed: no round completed, so no metrics")
        return None, None, (attempted, failed), tracer.spans, lambda s: 1
    plain = [r for r in complete if not r["traced"]]
    traced = [r for r in complete if r["traced"]]
    inter = [j for r in plain for j in r["jobs"] if j.tenant == "interactive" and j.done]
    latency = [(j.done - j.sched) * 1e3 for j in inter]
    lat = latency or [0.0]
    done_jobs = sum(1 for r in plain for j in r["jobs"] if j.done)
    last = plain[-1]["cells"]
    slowdowns = []
    for bench in serve_mixed.BENCHES:
        cycles = {serve_mixed.cell_kind(k)[1]: s["sim.cycles"] for k, s in last.items()
                  if serve_mixed.cell_kind(k)[0] == bench
                  and ("cost=Free" in k or "variant=" not in k)}
        if "mfi" in cycles and "baseline" in cycles:
            slowdowns.append(cycles["mfi"] / cycles["baseline"])

    cell_insts = sum(s.get("sim.total_insts", 0.0) for r in plain for s in r["cells"].values())
    busy_s = sum(j.run_ms for r in plain for j in r["jobs"] if j.run_ms is not None) / 1e3
    oracle_passes = oracle["passes"]
    e2e = {
        "setup_s": (median(setups or [0.0]),
                    f"median of {len(setups)} daemon spawns (spawn to first accepted connection)"),
        "func_mips": (rate(oracle_passes, "func_insts", "func_s") / 1e6,
                      f"functional oracle, over {len(oracle_passes)} passes"),
        "timing_mips": (ratio(cell_insts, busy_s) / 1e6,
                        f"cells' simulated insts per job run second, over {len(plain)} rounds"),
        "peak_rss_mib": (median([r["rss_kib"] for r in plain]) / 1024,
                         f"daemon VmHWM, median of {len(plain)} rounds"),
        "job_p50_ms": (percentile(lat, 50), f"interactive, n={len(latency)}"),
        "job_p90_ms": (percentile(lat, 90),
                       f"interactive, n={len(latency)}, {beyond(len(latency), 90)} beyond"),
        "serve_jobs_per_s": (done_jobs / sum(r["load_s"] for r in plain),
                             f"{done_jobs} jobs over {len(plain)} rounds"),
        "mfi_slowdown": (gmean(slowdowns) if slowdowns else 0.0,
                         f"DISE3/free vs baseline cycles, gmean over {len(slowdowns)} benchmarks"),
    }

    src = traced or plain
    inter_t = [j for r in src for j in r["jobs"] if j.tenant == "interactive" and j.done]
    waits = [j.wait_ms for j in inter_t if j.wait_ms is not None] or [0.0]
    runs = [j.run_ms for j in inter_t if j.run_ms is not None] or [0.0]

    def profile_s(name):
        return median([r["profile"].get(f"profile.{name}.ns", 0.0) for r in src]) / 1e9

    cells = {}
    for stats in last.values():
        for k, val in stats.items():
            cells[k] = cells.get(k, 0.0) + val
    oc = oracle["counters"]
    layers = {
        "workloads.build_s": 0.0, "acf.compress_s": 0.0, "acf.compress.entries": 0.0,
        "acf.compress.dict_bytes": 0.0, "acf.compress_ratio": 0.0, "rewrite.mfi_s": 0.0,
        "arena.hits": 0.0, "arena.misses": 0.0,
        "sim.load_s": profile_s("predecode"),
        "core.engine_setup_s": profile_s("engine_setup"),
        "sim.timing_run_s": profile_s("timing_run"),
        "sim.ns_per_cycle": ratio(profile_s("timing_run"), cells.get("sim.cycles", 0.0)) * 1e9,
        "sim.func_run_s": mean([p["layers"].get("sim.func_run", 0.0) for p in oracle_passes]),
        "run.pass_s": median([r["wall_s"] for r in src]),
        "trace.overhead_pct": overhead_pct([r["wall_s"] for r in plain],
                                           [r["wall_s"] for r in traced]),
        "serve.queue_wait_ms.p50": percentile(waits, 50),
        "serve.queue_wait_ms.p90": percentile(waits, 90),
        "serve.run_ms.p50": percentile(runs, 50),
        "serve.run_ms.p90": percentile(runs, 90),
        "serve.busy": float(sum(r.get("busy", 0) for r in src)),
        "serve.stats_probe_ms": median([r.get("probe_ms", 0.0) for r in src]),
        "cache.misses": median([r["cache_files"] for r in src]),
        "cache.hits": median([sum(j.cells for j in r["jobs"] if j.done) - r["cache_files"]
                              for r in src]),
        "loadgen.late_ms.p90": percentile([x for r in src for x in r.get("late_ms", [])] or [0.0], 90),
        **sim_layers(cells), **block_layers(oc),
    }
    print(f"# serve_mixed: {len(rounds)} rounds, interactive rate {serve_mixed.INTERACTIVE_RATE}/s "
          f"(fixed interval), bulk backlog {serve_mixed.BULK_BACKLOG}, dyn {serve_mixed.SERVE_DYN}, "
          f"generator lateness p90 {layers['loadgen.late_ms.p90']:.3f} ms, interactive jobs in "
          f"flight at most {max(serve_mixed.max_in_flight(r['jobs'], 'interactive') for r in rounds)}")
    lanes = {}
    return e2e, layers, (attempted, failed), tracer.spans, \
        lambda s: lanes.setdefault(s["req"], len(lanes) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = child_env()
    try:
        binaries = build(env)
    except subprocess.CalledProcessError as e:
        sys.exit(f"build failed: {e}")
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# host {host_facts(env)}")
    print("# knobs " + " ".join(f"{k}={v if v is not None else '(unset)'}" for k, v in KNOBS.items()))
    cleared = sorted(k for k in os.environ if k.startswith("DISE_") and k not in KNOBS)
    if cleared:
        print(f"# cleared inherited {' '.join(cleared)}")

    out_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    if args.workload == "serve_mixed":
        e2e, layers, (attempted, failed), spans, lane = serve(binaries, env, args, out_dir)
    else:
        e2e, layers, (attempted, failed), spans, lane = in_process(
            args.workload, binaries[0], env, args, out_dir)

    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(spans, trace_path, lane)
        print(f"# trace: {len(spans)} spans in {trace_path} (open in ui.perfetto.dev)")
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values, notes = layers, {}
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = e2e and {name: value for name, (value, _) in e2e.items()}
        notes = {name: f"  ({note})" for name, (_, note) in (e2e or {}).items()}
    if values is None:
        # Too broken to measure: zeros, and the failures make it incorrect.
        values = {name: 0.0 for name, _ in wanted}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in wanted}
    for name, unit in wanted:
        print(f"{name} = {values[name]:.6g} {unit}{notes.get(name, '')}")
    print(f"ops attempted={attempted} failed={failed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
