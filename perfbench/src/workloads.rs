//! The in-process workloads and the `serve_mixed` oracle.
//!
//! Each run sets up several times (cold: the process-wide arena is
//! cleared first) and keeps the median, then repeats measured *passes*
//! over a fixed set of operations until the time budget is spent. Every
//! pass covers the same operations in a seeded order, so pass-level
//! rates compare like with like; results are reported per pass and the
//! caller takes medians. With tracing requested, odd passes record spans
//! and even passes do not, so one run yields both the per-layer numbers
//! and the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use dise_sim::{Machine, SimStats};
use dise_workloads::Benchmark;

use crate::json::Json;
use crate::scenario::{
    check, run_functional, run_timing, Kind, Outcome, Prepared, FUNC_KINDS, SERVE_KINDS,
    TIMING_KINDS,
};
use crate::trace::Tracer;

/// Cold set-ups per run; the median is reported.
pub const SETUP_REPS: usize = 3;
/// Measured passes per run, at least, whatever the time budget.
pub const MIN_PASSES: usize = 2;

/// `func_expand`'s dynamic-instruction target: long enough that
/// expansion and block-cache execution dominate per-run fixed costs.
pub const FUNC_DYN: u64 = 350_000;
/// Target of the short programs `func_expand`'s cycle-level gate runs.
pub const GATE_DYN: u64 = 100_000;
/// `timing_sweep`'s dynamic-instruction target.
pub const TIMING_DYN: u64 = 45_000;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed (feeds `WorkloadConfig::seed` and the pass order).
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans on odd passes.
    pub trace: bool,
}

/// splitmix64: a seeded, dependency-free generator for pass orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Counts operations and checks them: every failed check is a failed
/// operation, never a skip.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    first: BTreeMap<String, String>,
}

impl Gate {
    /// Records one operation whose checks produced `errors`.
    fn op(&mut self, id: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{id}: {}", errors.join("; ")));
            }
        }
    }

    /// Simulated counters must repeat exactly: the first pass's
    /// `signature` for `key` is the reference for every later pass.
    fn repeat(&mut self, key: String, signature: String) -> Result<(), String> {
        match self.first.get(&key) {
            Some(first) if *first != signature => {
                Err("simulated counters differ from the first pass".into())
            }
            Some(_) => Ok(()),
            None => {
                self.first.insert(key, signature);
                Ok(())
            }
        }
    }
}

/// One measured pass.
#[derive(Debug, Default)]
struct Pass {
    traced: bool,
    wall_s: f64,
    jobs: u64,
    func_insts: u64,
    func_s: f64,
    timing_insts: u64,
    timing_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn json(&self) -> Json {
        let mut fields = vec![
            ("traced", Json::Bool(self.traced)),
            (
                "layers",
                Json::nums(self.layers.iter().map(|(k, v)| (*k, *v))),
            ),
        ];
        for (k, v) in [
            ("wall_s", self.wall_s),
            ("jobs", self.jobs as f64),
            ("func_insts", self.func_insts as f64),
            ("func_s", self.func_s),
            ("timing_insts", self.timing_insts as f64),
            ("timing_s", self.timing_s),
        ] {
            fields.push((k, Json::Num(v)));
        }
        Json::obj(fields)
    }
}

/// Everything a run measured, for `run.py` to aggregate.
#[derive(Debug, Default)]
pub struct Raw {
    setups: Vec<(f64, BTreeMap<&'static str, f64>)>,
    passes: Vec<Pass>,
    jobs_ms: Vec<f64>,
    gate: Gate,
    counters: BTreeMap<String, f64>,
    values: BTreeMap<String, f64>,
    spans: Vec<crate::trace::Span>,
}

impl Raw {
    /// The raw measurement document.
    pub fn json(&self) -> Json {
        let setups = self
            .setups
            .iter()
            .map(|(total, layers)| {
                Json::obj([
                    ("total_s", Json::Num(*total)),
                    ("layers", Json::nums(layers.iter().map(|(k, v)| (*k, *v)))),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.id as f64),
                    Json::Num(s.parent as f64),
                    Json::Str(s.name.to_string()),
                    Json::Str(s.req.clone()),
                    Json::Num(s.start_us),
                    Json::Num(s.end_us),
                ])
            })
            .collect();
        Json::obj([
            ("setups", Json::Arr(setups)),
            (
                "passes",
                Json::Arr(self.passes.iter().map(Pass::json).collect()),
            ),
            (
                "jobs_ms",
                Json::Arr(self.jobs_ms.iter().map(|v| Json::Num(*v)).collect()),
            ),
            ("attempted", Json::Num(self.gate.attempted as f64)),
            ("failed", Json::Num(self.gate.failed as f64)),
            (
                "failures",
                Json::Arr(self.gate.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "counters",
                Json::nums(self.counters.iter().map(|(k, v)| (k, *v))),
            ),
            (
                "values",
                Json::nums(self.values.iter().map(|(k, v)| (k, *v))),
            ),
            ("peak_rss_kib", Json::Num(peak_rss_kib() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }

    /// Operations attempted and failed so far.
    pub fn ops(&self) -> (u64, u64) {
        (self.gate.attempted, self.gate.failed)
    }

    fn add_counters<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, f64)>) {
        for (name, v) in pairs {
            *self.counters.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
}

/// This process's peak resident set (VmHWM), in KiB.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs [`SETUP_REPS`] cold set-ups, each from a cleared arena and for
/// its own program set (`setup` gets the set's `WorkloadConfig::seed`:
/// run seed × [`SETUP_REPS`] + repetition), recording each one's wall
/// time and per-layer split. Returns every set's output: the measured
/// passes run all of them, so a run averages three program instances
/// per benchmark instead of depending on one. Traced runs record the
/// set-up spans too.
fn cold_setups<T>(
    t: &mut Tracer,
    raw: &mut Raw,
    cfg: RunConfig,
    mut setup: impl FnMut(&mut Tracer, u64) -> Vec<T>,
) -> Vec<T> {
    let mut all = Vec::new();
    t.set_recording(cfg.trace);
    for rep in 0..SETUP_REPS as u64 {
        dise_sim::arena::clear();
        t.take_totals();
        let start = Instant::now();
        let seed = cfg.seed.wrapping_mul(SETUP_REPS as u64).wrapping_add(rep);
        all.extend(setup(t, seed));
        raw.setups
            .push((start.elapsed().as_secs_f64(), t.take_totals()));
    }
    // Arena traffic of one cold set-up (the last repetition's).
    let arena = dise_sim::arena::stats();
    raw.values.insert(
        "arena.hits".into(),
        (arena.predecode_hits + arena.frontend_hits) as f64,
    );
    raw.values.insert(
        "arena.misses".into(),
        (arena.predecode_builds + arena.frontend_builds) as f64,
    );
    all
}

/// Repeats `pass` until the budget is spent (at least [`MIN_PASSES`]),
/// toggling span recording on odd passes when tracing.
fn measure(
    t: &mut Tracer,
    cfg: RunConfig,
    raw: &mut Raw,
    mut pass: impl FnMut(&mut Tracer, &mut Raw, usize, bool) -> Pass,
) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && n % 2 == 1;
        t.set_recording(traced);
        t.take_totals();
        let pass_start = Instant::now();
        let mut p = pass(t, raw, n, traced);
        p.wall_s = pass_start.elapsed().as_secs_f64();
        p.traced = traced;
        p.layers = t.take_totals();
        raw.passes.push(p);
        n += 1;
    }
    t.set_recording(false);
    raw.spans = t.spans().to_vec();
}

fn sim_signature(out: &Outcome, stats: &SimStats) -> String {
    format!("{out:?}{stats:?}")
}

/// Adds a timing run's registry counters; `engine.*` only when
/// `with_engine` (each workload takes engine counters from its main runs).
fn add_sim_counters(raw: &mut Raw, stats: &SimStats, with_engine: bool) {
    let reg = stats.registry();
    raw.add_counters(
        reg.entries()
            .iter()
            .filter(|(k, _)| with_engine || !k.starts_with("engine."))
            .map(|(k, v)| (k.as_str(), v.as_f64())),
    );
}

/// Adds a functional run's block-cache counters, and its engine
/// counters when `with_engine`.
fn add_func_counters(raw: &mut Raw, m: &Machine, with_engine: bool) {
    raw.add_counters(m.block_stats().named_counters().map(|(k, v)| (k, v as f64)));
    if let Some(e) = m.engine().filter(|_| with_engine) {
        let named = e.stats().named_counters();
        let prefixed: Vec<(String, f64)> = named
            .iter()
            .map(|(k, v)| (format!("engine.{k}"), *v as f64))
            .collect();
        raw.add_counters(prefixed.iter().map(|(k, v)| (k.as_str(), *v)));
    }
}

fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn compression_values(raw: &mut Raw, prepared: &[Prepared]) {
    let stats: Vec<_> = prepared.iter().filter_map(Prepared::compression).collect();
    let ratios: Vec<f64> = stats.iter().map(|s| s.total_ratio()).collect();
    raw.values.insert("compress_ratio".into(), gmean(&ratios));
    for s in stats {
        let reg = s.registry();
        raw.add_counters(reg.entries().iter().map(|(k, v)| (k.as_str(), v.as_f64())));
    }
}

/// Checks one pass's outcomes against each benchmark's baseline (and
/// MFI run, for the composed scenario).
fn transparency(
    outcomes: &BTreeMap<(usize, Kind), Outcome>,
    bench: usize,
    kind: Kind,
) -> Option<String> {
    let base = outcomes.get(&(bench, Kind::Baseline))?;
    check(
        kind,
        &outcomes[&(bench, kind)],
        base,
        outcomes.get(&(bench, Kind::Mfi)),
    )
    .err()
}

/// The DISE scenarios of `func_expand`'s cycle-level gate.
const GATE_KINDS: [Kind; 2] = [Kind::Baseline, Kind::Mfi];

/// One `func_expand` operation on program-set entry `b`.
#[derive(Debug, Clone, Copy)]
enum FuncOp {
    /// A functional run of one of the [`FUNC_KINDS`] scenarios.
    Run(usize, Kind),
    /// A cycle-level gate run of the entry's short instance.
    Gate(usize, Kind),
}

/// `func_expand`: functional-only `Machine::run` of the four `sim_speed`
/// scenarios on the three program sets of [`cold_setups`] (all 12
/// benchmarks each) at [`FUNC_DYN`]. That many programs, because a
/// scenario's speed depends on the generated program (the composed
/// scenario's RT conflicts vary twofold between seeds), and the run's
/// aggregate must not. Each pass also runs a small cycle-level gate —
/// baseline and DISE3 MFI on short ([`GATE_DYN`]) instances — whose
/// final state must equal the functional run's; it supplies this
/// workload's timing-model figures. Gate runs are shuffled in among the
/// functional runs, so their rate samples the whole pass rather than
/// one stretch of it.
pub fn func_expand(cfg: RunConfig) -> Raw {
    let mut t = Tracer::new();
    let mut raw = Raw::default();
    let sets = cold_setups(&mut t, &mut raw, cfg, |t, seed| {
        let mut sets = Vec::new();
        for b in Benchmark::ALL {
            let p = Prepared::new(t, b, FUNC_DYN, seed, &FUNC_KINDS);
            let gate = Prepared::new(t, b, GATE_DYN, seed, &GATE_KINDS);
            for k in FUNC_KINDS {
                p.machine(t, k, &format!("{b}/{}", k.name()));
            }
            for k in GATE_KINDS {
                gate.machine(t, k, &format!("{b}/{}/gate", k.name()));
            }
            sets.push((p, gate));
        }
        sets
    });
    let (prepared, gates): (Vec<Prepared>, Vec<Prepared>) = sets.into_iter().unzip();
    compression_values(&mut raw, &prepared);

    let mut ops: Vec<FuncOp> = (0..prepared.len())
        .flat_map(|b| {
            let runs = FUNC_KINDS.map(|k| FuncOp::Run(b, k));
            runs.into_iter()
                .chain(GATE_KINDS.map(|k| FuncOp::Gate(b, k)))
        })
        .collect();
    let mut rng = Rng::new(cfg.seed);
    let mut cycles: BTreeMap<(usize, Kind), f64> = BTreeMap::new();
    measure(&mut t, cfg, &mut raw, |t, raw, n, traced| {
        let mut p = Pass::default();
        rng.shuffle(&mut ops);
        let mut outcomes = BTreeMap::new();
        let mut gate_outcomes = BTreeMap::new();
        for &op in &ops {
            match op {
                FuncOp::Run(b, kind) => {
                    let prep = &prepared[b];
                    let req = format!("{}/{}#{n}", prep.id(), kind.name());
                    let ((m, secs), job_s) = t.span("job", &req, |t| {
                        let m = prep.machine(t, kind, &req);
                        run_functional(t, m, prep.fuel(), &req)
                    });
                    if !traced {
                        raw.jobs_ms.push(job_s * 1e3);
                    }
                    let out = Outcome::of(&m);
                    p.jobs += 1;
                    p.func_insts += out.total_insts;
                    p.func_s += secs;
                    if !traced {
                        // Per-scenario rates, comparable with `sim_speed`'s KIPS.
                        *raw.values
                            .entry(format!("insts.{}/{}", prep.id(), kind.name()))
                            .or_insert(0.0) += out.total_insts as f64;
                        *raw.values
                            .entry(format!("secs.{}/{}", prep.id(), kind.name()))
                            .or_insert(0.0) += secs;
                    }
                    if n == 0 {
                        add_func_counters(raw, &m, true);
                    }
                    let sig = format!(
                        "{out:?}{:?}{:?}",
                        m.block_stats(),
                        m.engine().map(|e| e.stats())
                    );
                    let key = format!("{}/{}", prep.id(), kind.name());
                    let errors = raw.gate.repeat(key, sig).err().into_iter().collect();
                    outcomes.insert((b, kind), (out, errors));
                }
                FuncOp::Gate(b, kind) => {
                    // Short instances, timing vs functional.
                    let gp = &gates[b];
                    let req = format!("{}/{}/gate#{n}", gp.id(), kind.name());
                    let m = gp.machine(t, kind, &req);
                    let (func, _) = run_functional(t, m, gp.fuel(), &req);
                    let m = gp.machine(t, kind, &req);
                    let (timed, stats, secs) = run_timing(t, m, gp.fuel(), &req);
                    p.timing_insts += stats.total_insts;
                    p.timing_s += secs;
                    if n == 0 {
                        add_sim_counters(raw, &stats, false);
                        cycles.insert((b, kind), stats.cycles as f64);
                    }
                    let mut errors = Vec::new();
                    if timed != Outcome::of(&func) {
                        errors.push(
                            "timing run ended in a different state than the functional run".into(),
                        );
                    }
                    let key = format!("{}/{}/gate", gp.id(), kind.name());
                    errors.extend(raw.gate.repeat(key, sim_signature(&timed, &stats)).err());
                    gate_outcomes.insert((b, kind), (timed, errors));
                }
            }
        }
        for (sets, outcomes, suffix) in
            [(&prepared, outcomes, ""), (&gates, gate_outcomes, "/gate")]
        {
            let plain: BTreeMap<(usize, Kind), Outcome> =
                outcomes.iter().map(|(k, (o, _))| (*k, o.clone())).collect();
            for ((b, kind), (_, mut errors)) in outcomes {
                errors.extend(transparency(&plain, b, kind));
                let id = format!("{}/{}{suffix}#{n}", sets[b].id(), kind.name());
                raw.gate.op(&id, errors);
            }
        }
        p
    });
    let slowdowns: Vec<f64> = (0..gates.len())
        .map(|b| cycles[&(b, Kind::Mfi)] / cycles[&(b, Kind::Baseline)])
        .collect();
    raw.values.insert("mfi_slowdown".into(), gmean(&slowdowns));
    raw
}

/// `timing_sweep`: cycle-level cells of every [`TIMING_KINDS`] scenario
/// over the three program sets of [`cold_setups`] at [`TIMING_DYN`]. Each cell also runs
/// functionally; the timing run must end in the functional run's state
/// (which supplies this workload's functional-simulation rate).
pub fn timing_sweep(cfg: RunConfig) -> Raw {
    let mut t = Tracer::new();
    let mut raw = Raw::default();
    let prepared = cold_setups(&mut t, &mut raw, cfg, |t, seed| {
        let prepared: Vec<Prepared> = Benchmark::ALL
            .iter()
            .map(|&b| Prepared::new(t, b, TIMING_DYN, seed, &TIMING_KINDS))
            .collect();
        for p in &prepared {
            for k in TIMING_KINDS {
                p.machine(t, k, &format!("{}/{}", p.bench, k.name()));
            }
        }
        prepared
    });
    compression_values(&mut raw, &prepared);

    let mut cells: Vec<(usize, Kind)> = (0..prepared.len())
        .flat_map(|b| TIMING_KINDS.map(|k| (b, k)))
        .collect();
    let mut rng = Rng::new(cfg.seed);
    let mut cycles: BTreeMap<(usize, Kind), f64> = BTreeMap::new();
    measure(&mut t, cfg, &mut raw, |t, raw, n, traced| {
        let mut p = Pass::default();
        rng.shuffle(&mut cells);
        let mut outcomes = BTreeMap::new();
        for &(b, kind) in &cells {
            let prep = &prepared[b];
            let req = format!("{}/{}#{n}", prep.id(), kind.name());
            let (((func, func_s), (timed, stats, timing_s)), job_s) = t.span("job", &req, |t| {
                let m = prep.machine(t, kind, &req);
                let func = run_functional(t, m, prep.fuel(), &req);
                let m = prep.machine(t, kind, &req);
                let timed = run_timing(t, m, prep.fuel(), &req);
                (func, timed)
            });
            if !traced {
                raw.jobs_ms.push(job_s * 1e3);
            }
            if n == 0 {
                add_sim_counters(raw, &stats, true);
                add_func_counters(raw, &func, false);
                cycles.insert((b, kind), stats.cycles as f64);
            }
            let func = Outcome::of(&func);
            p.jobs += 1;
            p.func_insts += func.total_insts;
            p.func_s += func_s;
            p.timing_insts += stats.total_insts;
            p.timing_s += timing_s;
            let mut errors = Vec::new();
            if timed != func {
                errors.push("timing run ended in a different state than the functional run".into());
            }
            let key = format!("{}/{}", prep.id(), kind.name());
            errors.extend(raw.gate.repeat(key, sim_signature(&timed, &stats)).err());
            outcomes.insert((b, kind), (timed, errors));
        }
        let plain: BTreeMap<(usize, Kind), Outcome> =
            outcomes.iter().map(|(k, (o, _))| (*k, o.clone())).collect();
        for ((b, kind), (_, errors)) in outcomes {
            let mut errors = errors;
            errors.extend(transparency(&plain, b, kind));
            raw.gate
                .op(&format!("{}/{}#{n}", prepared[b].id(), kind.name()), errors);
        }
        p
    });
    let slowdowns: Vec<f64> = (0..prepared.len())
        .map(|b| cycles[&(b, Kind::Mfi)] / cycles[&(b, Kind::Baseline)])
        .collect();
    raw.values.insert("mfi_slowdown".into(), gmean(&slowdowns));
    raw
}

/// The functional oracle for `serve_mixed`: every program a
/// `dise_serve` job can run ([`SERVE_KINDS`] of the seed-0 benchmark
/// programs at `dyn_insts`, as the daemon builds them), run
/// functionally in passes for `seconds` (at least [`MIN_PASSES`]). Reports each scenario's retired
/// application-instruction count (`values["<bench>/<kind>.app_insts"]`)
/// for `run.py` to compare with the daemon's cell statistics.
pub fn serve_oracle(cfg: RunConfig, dyn_insts: u64, benches: &[Benchmark]) -> Raw {
    let mut t = Tracer::new();
    let mut raw = Raw::default();
    let prepared: Vec<Prepared> = benches
        .iter()
        .map(|&b| Prepared::new(&mut t, b, dyn_insts, 0, &SERVE_KINDS))
        .collect();
    let mut ops: Vec<(usize, Kind)> = (0..prepared.len())
        .flat_map(|b| SERVE_KINDS.map(|k| (b, k)))
        .collect();
    let mut rng = Rng::new(cfg.seed);
    let untraced = RunConfig {
        trace: false,
        ..cfg
    };
    measure(&mut t, untraced, &mut raw, |t, raw, n, _| {
        let mut p = Pass::default();
        rng.shuffle(&mut ops);
        let mut outcomes = BTreeMap::new();
        for &(b, kind) in &ops {
            let prep = &prepared[b];
            let req = format!("{}/{}#{n}", prep.id(), kind.name());
            let m = prep.machine(t, kind, &req);
            let (m, secs) = run_functional(t, m, prep.fuel(), &req);
            let out = Outcome::of(&m);
            p.jobs += 1;
            p.func_insts += out.total_insts;
            p.func_s += secs;
            raw.values.insert(
                format!("{}/{}.app_insts", prep.bench, kind.name()),
                out.app_insts as f64,
            );
            if n == 0 {
                add_func_counters(raw, &m, false);
            }
            let repeat = raw
                .gate
                .repeat(format!("{}/{}", prep.id(), kind.name()), format!("{out:?}"));
            outcomes.insert((b, kind), (out, repeat));
        }
        let plain: BTreeMap<(usize, Kind), Outcome> =
            outcomes.iter().map(|(k, (o, _))| (*k, o.clone())).collect();
        for ((b, kind), (_, repeat)) in &outcomes {
            let mut errors: Vec<String> = repeat.clone().err().into_iter().collect();
            errors.extend(transparency(&plain, *b, *kind));
            raw.gate.op(
                &format!("{}/{}#{n}", prepared[*b].id(), kind.name()),
                errors,
            );
        }
        p
    });
    raw
}
