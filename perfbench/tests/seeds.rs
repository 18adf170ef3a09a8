//! Self-tests of the benchmark's seed handling and correctness gate.

use dise_perfbench::scenario::{check, program, run_timing, Kind, Outcome, Prepared};
use dise_perfbench::trace::Tracer;
use dise_perfbench::workloads::Rng;
use dise_workloads::Benchmark;

fn timing_cell(seed: u64, kind: Kind) -> (Outcome, dise_sim::SimStats) {
    let mut t = Tracer::new();
    let p = Prepared::new(
        &mut t,
        Benchmark::Mcf,
        20_000,
        seed,
        &[Kind::Baseline, Kind::Mfi],
    );
    let m = p.machine(&mut t, kind, "test");
    let (out, stats, _) = run_timing(&mut t, m, p.fuel(), "test");
    (out, stats)
}

#[test]
fn same_seed_gives_identical_simulated_counters() {
    for kind in [Kind::Baseline, Kind::Mfi] {
        let a = timing_cell(7, kind);
        let b = timing_cell(7, kind);
        assert_eq!(a, b, "{kind:?}");
        assert!(a.1.cycles > 0 && a.0.halted, "{kind:?}");
    }
}

#[test]
fn different_seeds_give_different_programs() {
    // The generator's size depends on the seed, not on the dynamic
    // budget: gcc's text is 110060 bytes for seed 0 and 110456 for seed 1.
    let sizes: Vec<usize> = [0, 1]
        .iter()
        .map(|&s| program(Benchmark::Gcc, 1_000_000, s).text.len())
        .collect();
    assert_eq!(sizes, [110_060, 110_456]);
    let (a, _) = timing_cell(0, Kind::Baseline);
    let (b, _) = timing_cell(1, Kind::Baseline);
    assert_ne!(a, b);
}

#[test]
fn gate_accepts_transparent_runs_and_rejects_divergence() {
    let (base, _) = timing_cell(3, Kind::Baseline);
    let (mfi, _) = timing_cell(3, Kind::Mfi);
    assert_eq!(check(Kind::Mfi, &mfi, &base, None), Ok(()));
    assert!(
        mfi.total_insts > base.total_insts,
        "MFI adds replacement instructions"
    );

    let mut wrong_regs = mfi.clone();
    wrong_regs.regs[3] ^= 1;
    assert!(check(Kind::Mfi, &wrong_regs, &base, None).is_err());
    let mut wrong_count = mfi.clone();
    wrong_count.app_insts += 1;
    assert!(check(Kind::Mfi, &wrong_count, &base, None).is_err());
    let mut unfinished = mfi;
    unfinished.halted = false;
    assert!(check(Kind::Mfi, &unfinished, &base, None).is_err());
    assert!(
        check(Kind::Composed, &base, &base, None).is_err(),
        "composed needs its MFI run"
    );
}

#[test]
fn pass_order_is_a_seeded_permutation() {
    let shuffled = |seed| {
        let mut xs: Vec<u32> = (0..20).collect();
        Rng::new(seed).shuffle(&mut xs);
        xs
    };
    assert_eq!(shuffled(5), shuffled(5));
    assert_ne!(shuffled(5), shuffled(6));
    let mut sorted = shuffled(5);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..20).collect::<Vec<_>>());
}
