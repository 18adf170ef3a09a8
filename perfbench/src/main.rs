//! `perfbench` — the in-process layer runner `perfbench/run.py` calls.
//!
//! ```text
//! perfbench func_expand  --seed N --seconds S --trace 0|1 --out FILE
//! perfbench timing_sweep --seed N --seconds S --trace 0|1 --out FILE
//! perfbench serve_oracle --seed N --seconds S --dyn D --benches a,b,... --out FILE
//! ```
//!
//! Writes one JSON document of raw measurements to `--out` (progress and
//! gate failures go to stderr) and exits 0; `run.py` aggregates it.

use dise_perfbench::workloads::{func_expand, serve_oracle, timing_sweep, RunConfig};
use dise_workloads::Benchmark;

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench <func_expand|timing_sweep|serve_oracle> --seed N --out FILE \
         [--seconds S] [--trace 0|1] [--dyn D] [--benches a,b,...]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((workload, flags)) = args.split_first() else {
        usage("missing workload")
    };
    let mut seed = None;
    let mut out = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut dyn_insts = 0;
    let mut benches = Vec::new();
    for pair in flags.chunks(2) {
        let [flag, value] = pair else {
            usage(&format!("{} wants a value", pair[0]))
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage(&bad()))),
            "--seconds" => seconds = value.parse::<f64>().unwrap_or_else(|_| usage(&bad())),
            "--trace" => trace = value == "1",
            "--dyn" => dyn_insts = value.parse::<u64>().unwrap_or_else(|_| usage(&bad())),
            "--out" => out = Some(value.clone()),
            "--benches" => {
                benches = value
                    .split(',')
                    .map(|b| Benchmark::from_name(b).unwrap_or_else(|| usage(&bad())))
                    .collect()
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(seed), Some(out)) = (seed, out) else {
        usage("--seed and --out are required")
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
    };
    let raw = match workload.as_str() {
        "func_expand" => func_expand(cfg),
        "timing_sweep" => timing_sweep(cfg),
        "serve_oracle" if dyn_insts > 0 && !benches.is_empty() => {
            serve_oracle(cfg, dyn_insts, &benches)
        }
        "serve_oracle" => usage("serve_oracle wants --dyn and --benches"),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let (attempted, failed) = raw.ops();
    eprintln!("perfbench {workload}: {attempted} operations, {failed} failed");
    if let Err(e) = std::fs::write(&out, raw.json().render()) {
        eprintln!("perfbench: cannot write {out}: {e}");
        std::process::exit(1);
    }
}
