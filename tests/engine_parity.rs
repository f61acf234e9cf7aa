//! Engine-parity regression test for the run path.
//!
//! Every 1-core run — native baseline/ASAP, the Victima and Revelator
//! contenders, and the virtualized machine — goes through one assembly
//! path into the one generic `run_cores` driver: a native 1-core machine
//! is the N-core assembly at N = 1, and a colocated 1-core run carries
//! the legacy out-of-band co-runner shim on core 0. The statistics below
//! were recorded from earlier drivers, and the current stack must
//! reproduce them **bit-identically**: the refactors were pure code
//! motion, so any drift is a timing-model regression, not noise.
//!
//! [`GOLDEN`] matches the registry's `smoke` scenario, so CI's end-to-end
//! smoke pass exercises exactly the configurations pinned there.
//! [`CONTENDER_GOLDEN`] pins the 1-core contender runs, isolated and
//! colocated (no smoke row covers a colocated contender); its values were
//! captured on commit db03770, before the contender assembly folded into
//! the N-core one.

use asap::sim::scenarios::{find, run_scenarios, smoke_workload};
use asap::sim::{EngineSelect, RunResult, RunSpec, SimConfig};

/// One run's pinned statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    walks: u64,
    walk_total_cycles: u64,
    cycles: u64,
    walk_cycles: u64,
    l2_tlb_misses: u64,
    l2_tlb_accesses: u64,
    prefetches_issued: u64,
    prefetches_dropped: u64,
    faults: u64,
}

/// The smoke matrix (variant, golden), captured from the pre-refactor
/// drivers (commit 95f9ca6) with `SimConfig::smoke_test()` on the 256 MiB
/// mc80 smoke workload.
#[rustfmt::skip]
const GOLDEN: [(&str, Golden); 8] = [
    ("native/baseline", Golden { walks: 1922, walk_total_cycles: 117086, cycles: 876902, walk_cycles: 117086, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("native/asap", Golden { walks: 1922, walk_total_cycles: 114112, cycles: 873900, walk_cycles: 114112, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 3844, prefetches_dropped: 0, faults: 0 }),
    ("native/asap+clustered+coloc", Golden { walks: 1917, walk_total_cycles: 116880, cycles: 879927, walk_cycles: 116880, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 3834, prefetches_dropped: 0, faults: 0 }),
    ("native/baseline+5level", Golden { walks: 1922, walk_total_cycles: 117058, cycles: 876846, walk_cycles: 117058, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("native/perfect-tlb", Golden { walks: 0, walk_total_cycles: 0, cycles: 751722, walk_cycles: 0, l2_tlb_misses: 0, l2_tlb_accesses: 0, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("virt/baseline", Golden { walks: 1922, walk_total_cycles: 903879, cycles: 1664347, walk_cycles: 903879, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("virt/asap", Golden { walks: 1922, walk_total_cycles: 477628, cycles: 1238196, walk_cycles: 477628, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 12184, prefetches_dropped: 0, faults: 0 }),
    ("virt/asap+host2m+coloc", Golden { walks: 1922, walk_total_cycles: 472458, cycles: 1235498, walk_cycles: 472458, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 8014, prefetches_dropped: 0, faults: 0 }),
];

/// The 1-core contender runs (label, golden), captured on commit db03770
/// with `SimConfig::smoke_test()` on the same smoke workload.
#[rustfmt::skip]
const CONTENDER_GOLDEN: [(&str, Golden); 4] = [
    ("Victima", Golden { walks: 1860, walk_total_cycles: 116418, cycles: 876978, walk_cycles: 116418, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("Revelator", Golden { walks: 1922, walk_total_cycles: 117686, cycles: 873358, walk_cycles: 117686, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 1922, prefetches_dropped: 0, faults: 0 }),
    ("Victima coloc", Golden { walks: 1910, walk_total_cycles: 125914, cycles: 889070, walk_cycles: 125914, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 0, prefetches_dropped: 0, faults: 0 }),
    ("Revelator coloc", Golden { walks: 1922, walk_total_cycles: 126198, cycles: 884694, walk_cycles: 126198, l2_tlb_misses: 1922, l2_tlb_accesses: 3068, prefetches_issued: 1922, prefetches_dropped: 0, faults: 0 }),
];

/// Runs the registry's `smoke` scenario at its pinned windows.
fn smoke_results() -> asap::sim::scenarios::ScenarioResults {
    run_scenarios(
        &[find("smoke").expect("smoke scenario registered")],
        SimConfig::smoke_test(),
        None,
    )
    .remove(0)
}

fn snapshot(r: &RunResult) -> Golden {
    Golden {
        walks: r.walks.count(),
        walk_total_cycles: r.walks.total_cycles(),
        cycles: r.cycles,
        walk_cycles: r.walk_cycles,
        l2_tlb_misses: r.l2_tlb_misses,
        l2_tlb_accesses: r.l2_tlb_accesses,
        prefetches_issued: r.prefetches_issued,
        prefetches_dropped: r.prefetches_dropped,
        faults: r.faults,
    }
}

/// The generic driver reproduces the pre-refactor statistics exactly for
/// the whole engine matrix.
#[test]
fn refactored_drivers_match_pre_refactor_golden_stats() {
    let results = smoke_results();
    assert_eq!(results.runs.len(), GOLDEN.len(), "matrix shape changed");
    for (variant, golden) in GOLDEN {
        let run = results.get("mc80", variant);
        assert_eq!(
            snapshot(run),
            golden,
            "{variant}: statistics drifted from the pre-refactor driver"
        );
    }
}

/// The walk-latency distribution (not just its aggregates) is stable:
/// mean recomputed from the golden aggregates matches the live mean.
#[test]
fn walk_latency_means_match_golden_aggregates() {
    let results = smoke_results();
    for (variant, golden) in GOLDEN {
        let run = results.get("mc80", variant);
        let expected = if golden.walks == 0 {
            0.0
        } else {
            golden.walk_total_cycles as f64 / golden.walks as f64
        };
        assert!(
            (run.avg_walk_latency() - expected).abs() < 1e-9,
            "{variant}: mean {} != golden {expected}",
            run.avg_walk_latency()
        );
    }
}

/// The 1-core contender runs, isolated and with the co-runner shim,
/// reproduce the statistics captured before the assembly fold.
#[test]
fn contender_runs_match_golden_stats() {
    for (label, golden) in CONTENDER_GOLDEN {
        let engine = if label.starts_with("Victima") {
            EngineSelect::Victima
        } else {
            EngineSelect::Revelator
        };
        let mut spec = RunSpec::new(smoke_workload())
            .with_engine(engine)
            .with_sim(SimConfig::smoke_test());
        if label.ends_with("coloc") {
            spec = spec.colocated();
        }
        let run = spec.run().expect("contender spec runs");
        assert_eq!(run.label, label);
        assert_eq!(run.workload, "mc80");
        assert_eq!(
            snapshot(&run),
            golden,
            "{label}: statistics drifted from the pre-fold contender assembly"
        );
    }
}
