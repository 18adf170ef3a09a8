//! The paper's scenarios as the benchmark sets them up, runs them and
//! checks them.
//!
//! Set-up ([`Prepared::new`]) generates a benchmark program and derives
//! every image and production set the scenarios load — DISE3 MFI
//! productions, the binary-rewritten image, the DISE-v2 compressed image
//! and the composed MFI∘decompression productions. [`Prepared::machine`]
//! then loads a fresh machine for one scenario. Both go through the
//! [`Tracer`], one span per layer call.
//!
//! The correctness gate is DISE's transparency property: a scenario must
//! end with the baseline's application registers, and with the
//! instruction count its transformation preserves (see [`check`]).

use dise_acf::compress::{CompressedProgram, CompressionConfig, Compressor, SelectAlgo};
use dise_acf::mfi::{Mfi, MfiVariant};
use dise_bench::{fuel_for, mfi_productions};
use dise_core::{compose, DiseEngine, EngineConfig, ProductionSet};
use dise_isa::{Program, Reg};
use dise_rewrite::RewriteMfi;
use dise_sim::{Machine, SimConfig, SimStats, Simulator};
use dise_workloads::{Benchmark, WorkloadConfig};

use crate::trace::Tracer;

/// One scenario of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The unmodified program, no engine.
    Baseline,
    /// DISE3 memory fault isolation.
    Mfi,
    /// Binary-rewriting memory fault isolation.
    Rewrite,
    /// DISE-v2 compressed image with its decompressor attached.
    Compress,
    /// The compressed image with MFI composed into decompression.
    Composed,
    /// DISE4 memory fault isolation (the variant `dise_serve`'s `mfi`
    /// job and its Figure 6 `DISE4` cell run).
    Mfi4,
}

impl Kind {
    /// The scenario's short name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Baseline => "baseline",
            Kind::Mfi => "mfi",
            Kind::Rewrite => "rewrite",
            Kind::Compress => "compress",
            Kind::Composed => "composed",
            Kind::Mfi4 => "mfi4",
        }
    }

    fn needs_compression(self) -> bool {
        matches!(self, Kind::Compress | Kind::Composed)
    }
}

/// The four functional scenarios `sim_speed` measures.
pub const FUNC_KINDS: [Kind; 4] = [Kind::Baseline, Kind::Mfi, Kind::Compress, Kind::Composed];
/// The cycle-level cell kinds of the paper's figures.
pub const TIMING_KINDS: [Kind; 5] = [
    Kind::Baseline,
    Kind::Mfi,
    Kind::Rewrite,
    Kind::Compress,
    Kind::Composed,
];
/// The programs `dise_serve` jobs run: baseline, both DISE MFI variants
/// and rewriting MFI.
pub const SERVE_KINDS: [Kind; 4] = [Kind::Baseline, Kind::Mfi, Kind::Mfi4, Kind::Rewrite];

/// Generates one benchmark program.
pub fn program(bench: Benchmark, dyn_insts: u64, seed: u64) -> Program {
    bench.build(&WorkloadConfig { dyn_insts, seed })
}

/// One benchmark's set-up output: every image and production set the
/// requested scenarios load.
#[derive(Debug)]
pub struct Prepared {
    /// The benchmark.
    pub bench: Benchmark,
    /// Dynamic-instruction target the program was generated for.
    pub dyn_insts: u64,
    /// `WorkloadConfig::seed` the program was generated with.
    pub seed: u64,
    /// The generated program.
    pub program: Program,
    mfi3: ProductionSet,
    mfi4: Option<ProductionSet>,
    rewritten: Option<Program>,
    compressed: Option<CompressedProgram>,
    composed: Option<ProductionSet>,
}

impl Prepared {
    /// Sets up `bench` for `kinds`: generates the program
    /// (`workloads.build`), compresses it (`acf.compress`), rewrites it
    /// (`rewrite.mfi`) and builds the production sets
    /// (`core.engine_setup`), each only when a requested kind needs it.
    pub fn new(
        t: &mut Tracer,
        bench: Benchmark,
        dyn_insts: u64,
        seed: u64,
        kinds: &[Kind],
    ) -> Prepared {
        let req = bench.name();
        let (program, _) = t.span("workloads.build", req, |_| program(bench, dyn_insts, seed));
        let (mfi3, _) = t.span("core.engine_setup", req, |_| {
            mfi_productions(&program, MfiVariant::Dise3)
        });
        let mfi4 = kinds.contains(&Kind::Mfi4).then(|| {
            t.span("core.engine_setup", req, |_| {
                mfi_productions(&program, MfiVariant::Dise4)
            })
            .0
        });
        let rewritten = kinds.contains(&Kind::Rewrite).then(|| {
            t.span("rewrite.mfi", req, |_| {
                RewriteMfi::new()
                    .rewrite(&program)
                    .expect("rewrite")
                    .program
            })
            .0
        });
        let compressed = kinds.iter().any(|k| k.needs_compression()).then(|| {
            let config = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
            t.span("acf.compress", req, |_| {
                Compressor::new(config)
                    .compress(&program)
                    .expect("compression")
            })
            .0
        });
        let composed = match (&compressed, kinds.contains(&Kind::Composed)) {
            (Some(c), true) => Some(
                t.span("core.engine_setup", req, |_| {
                    let aware = c
                        .productions
                        .as_ref()
                        .expect("DISE compression productions");
                    compose::compose_nested(&mfi_productions(&c.program, MfiVariant::Dise3), aware)
                        .expect("composition")
                })
                .0,
            ),
            _ => None,
        };
        Prepared {
            bench,
            dyn_insts,
            seed,
            program,
            mfi3,
            mfi4,
            rewritten,
            compressed,
            composed,
        }
    }

    /// Names the program: benchmark and generator seed, e.g. `gcc.s3`.
    pub fn id(&self) -> String {
        format!("{}.s{}", self.bench, self.seed)
    }

    /// The compressed image's static statistics (compressing kinds only).
    pub fn compression(&self) -> Option<&dise_acf::CompressionStats> {
        self.compressed.as_ref().map(|c| &c.stats)
    }

    /// This benchmark's simulation fuel.
    pub fn fuel(&self) -> u64 {
        fuel_for(self.dyn_insts)
    }

    /// Loads a fresh machine for `kind` (`sim.load`) and attaches its
    /// engine (`core.engine_setup`). Panics if set-up skipped `kind`.
    pub fn machine(&self, t: &mut Tracer, kind: Kind, req: &str) -> Machine {
        let not_prepared = "scenario was not prepared";
        let image = match kind {
            Kind::Baseline | Kind::Mfi | Kind::Mfi4 => &self.program,
            Kind::Rewrite => self.rewritten.as_ref().expect(not_prepared),
            Kind::Compress | Kind::Composed => {
                &self.compressed.as_ref().expect(not_prepared).program
            }
        };
        let (mut m, _) = t.span("sim.load", req, |_| Machine::load(image));
        let engine = match kind {
            Kind::Baseline | Kind::Rewrite => None,
            Kind::Mfi => Some(&self.mfi3),
            Kind::Mfi4 => Some(self.mfi4.as_ref().expect(not_prepared)),
            Kind::Composed => Some(self.composed.as_ref().expect(not_prepared)),
            Kind::Compress => {
                let c = self.compressed.as_ref().expect(not_prepared);
                t.span("core.engine_setup", req, |_| {
                    c.attach(&mut m, EngineConfig::default())
                        .expect("attach decompressor")
                });
                None
            }
        };
        if let Some(set) = engine {
            t.span("core.engine_setup", req, |_| {
                m.attach_engine(
                    DiseEngine::with_productions(EngineConfig::default(), set.clone())
                        .expect("engine"),
                );
                Mfi::init_machine(&mut m);
            });
        }
        m
    }
}

/// What a run leaves behind that the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Application registers r0–r24 (r25 up are scratch for the
    /// rewriter and MFI).
    pub regs: Vec<u64>,
    /// Application (fetched) instructions retired.
    pub app_insts: u64,
    /// All instructions retired (application + DISE replacement).
    pub total_insts: u64,
    /// Whether the program executed `halt`.
    pub halted: bool,
}

impl Outcome {
    /// Reads a finished machine.
    pub fn of(m: &Machine) -> Outcome {
        let (total_insts, app_insts) = m.inst_counts();
        Outcome {
            regs: (0..25).map(|i| m.reg(Reg::r(i))).collect(),
            app_insts,
            total_insts,
            halted: m.halted(),
        }
    }
}

/// Runs a machine functionally to completion (`sim.func_run`).
pub fn run_functional(t: &mut Tracer, mut m: Machine, fuel: u64, req: &str) -> (Machine, f64) {
    let (result, secs) = t.span("sim.func_run", req, |_| m.run(fuel));
    if let Err(e) = result {
        eprintln!("{req}: functional run failed: {e}");
    }
    (m, secs)
}

/// Runs a machine on the cycle-level timing model (`sim.timing_run`).
pub fn run_timing(t: &mut Tracer, m: Machine, fuel: u64, req: &str) -> (Outcome, SimStats, f64) {
    let mut sim = Simulator::new(SimConfig::default(), m);
    let (result, secs) = t.span("sim.timing_run", req, |_| sim.run(fuel));
    let stats = match result {
        Ok(r) => r.stats,
        Err(e) => {
            eprintln!("{req}: timing run failed: {e}");
            SimStats::default()
        }
    };
    (Outcome::of(sim.machine()), stats, secs)
}

/// The transparency gate: `out` (a `kind` run) against the same
/// program's baseline run, and — for `Composed` — against its MFI run.
/// MFI keeps the application-instruction count; decompression restores
/// the original dynamic stream, so `Compress` retires the baseline's
/// total and `Composed` the MFI run's total. Rewriting inserts
/// application instructions by design, so only its registers compare.
pub fn check(
    kind: Kind,
    out: &Outcome,
    base: &Outcome,
    mfi: Option<&Outcome>,
) -> Result<(), String> {
    if !out.halted {
        return Err("did not halt".into());
    }
    if out.regs != base.regs {
        return Err("application registers differ from the baseline".into());
    }
    let (got, want, what) = match kind {
        Kind::Baseline | Kind::Rewrite => return Ok(()),
        Kind::Mfi | Kind::Mfi4 => (out.app_insts, base.app_insts, "application"),
        Kind::Compress => (out.total_insts, base.total_insts, "retired"),
        Kind::Composed => match mfi {
            Some(m) => (out.total_insts, m.total_insts, "retired (vs MFI)"),
            None => return Err("composed run checked without its MFI run".into()),
        },
    };
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} instruction count {got} != {want}"))
    }
}
