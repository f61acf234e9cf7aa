//! Native engine configuration: the per-core MMU and OS policy a
//! [`RunSpec`]'s engine axis selects on a native machine. The machine
//! itself — one core or N over a shared fabric — is assembled in
//! `smp.rs`; this module's tests pin the 1-core native runs of every
//! engine (baseline, ASAP, and the Victima/Revelator contenders).

use crate::{EngineSelect, RunSpec};
use asap_core::{AsapHwConfig, MmuConfig};
use asap_os::AsapOsConfig;
use asap_types::PtLevel;

/// The hardware prefetch levels the engine axis selects. Baseline and the
/// contenders prefetch nothing, so their processes get no ASAP
/// reservations: Victima is OS-transparent and Revelator consumes the
/// speculation hint the stock OS already publishes, which keeps their data
/// placement and page tables identical to the baseline's.
pub(crate) fn hw_asap(spec: &RunSpec) -> AsapHwConfig {
    match &spec.engine {
        EngineSelect::Asap(cfg) => cfg.clone(),
        _ => AsapHwConfig::off(),
    }
}

/// The OS-side ASAP configuration for the levels hardware prefetches: the
/// OS reserves sorted regions exactly for those levels (none = disabled).
pub(crate) fn os_asap(levels: &[PtLevel]) -> AsapOsConfig {
    if levels.is_empty() {
        AsapOsConfig::disabled()
    } else {
        AsapOsConfig {
            levels: levels.to_vec(),
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        }
    }
}

/// The MMU configuration the spec's knobs select, seeded with `seed` (the
/// per-core seed).
pub(crate) fn mmu_config(spec: &RunSpec, seed: u64) -> MmuConfig {
    let mut config = MmuConfig::default()
        .with_asap(hw_asap(spec))
        .with_pwc(spec.pwc.clone())
        .with_seed(seed);
    if spec.clustered_tlb {
        config = config.with_clustered_tlb();
    }
    config
}

#[cfg(test)]
mod tests {
    use crate::scenarios::smoke_workload as small;
    use crate::{EngineSelect, RunSpec, SimConfig};
    use asap_core::AsapHwConfig;

    #[test]
    fn baseline_run_produces_walks() {
        let spec = RunSpec::new(small()).with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100, "uniform random must miss TLBs");
        assert!(r.avg_walk_latency() > 0.0);
        assert_eq!(r.faults, 0);
        assert!(r.cycles > 0);
        assert!(r.walk_fraction() > 0.0 && r.walk_fraction() < 1.0);
    }

    #[test]
    fn asap_reduces_walk_latency() {
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let p12 = RunSpec::new(small())
            .with_asap(AsapHwConfig::p1_p2())
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(p12.prefetches_issued > 0);
        assert!(
            p12.avg_walk_latency() < base.avg_walk_latency(),
            "ASAP {} !< baseline {}",
            p12.avg_walk_latency(),
            base.avg_walk_latency()
        );
    }

    #[test]
    fn colocation_increases_walk_latency() {
        let sim = SimConfig::smoke_test();
        let iso = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let coloc = RunSpec::new(small())
            .colocated()
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            coloc.avg_walk_latency() > iso.avg_walk_latency(),
            "coloc {} !> iso {}",
            coloc.avg_walk_latency(),
            iso.avg_walk_latency()
        );
    }

    #[test]
    fn perfect_tlb_run_has_no_walks() {
        let spec = RunSpec::new(small())
            .perfect_tlb()
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert_eq!(r.walks.count(), 0);
        assert_eq!(r.walk_cycles, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn five_level_paging_threads_through_one_build() {
        let spec = RunSpec::new(small())
            .five_level()
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100);
        assert_eq!(r.faults, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec::new(small()).with_sim(SimConfig::smoke_test());
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn victima_run_produces_walks_and_no_faults() {
        let spec = RunSpec::new(small())
            .with_engine(EngineSelect::Victima)
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100);
        assert_eq!(r.faults, 0);
        assert_eq!(r.label, "Victima");
    }

    #[test]
    fn victima_eliminates_walks_versus_baseline() {
        // A zipfian workload whose hot set exceeds S-TLB reach but fits the
        // L2's block capacity — the regime Victima targets. Uniform sweeps
        // (stock mc80) have too little page reuse for blocks to matter.
        let w = asap_workloads::WorkloadSpec {
            footprint: asap_types::ByteSize::mib(256),
            ..asap_workloads::WorkloadSpec::redis()
        };
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(w.clone()).with_sim(sim).run().unwrap();
        let victima = RunSpec::new(w)
            .with_engine(EngineSelect::Victima)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            victima.walks.count() < base.walks.count(),
            "Victima blocks must absorb misses: {} !< {}",
            victima.walks.count(),
            base.walks.count()
        );
    }

    #[test]
    fn revelator_speculates_and_beats_baseline_cycles() {
        // A high-contiguity variant: hash speculation verifies ~80% of the
        // time, so the overlapped data fetches must show up as fewer total
        // cycles. (On fragmented workloads like stock mc80 the mechanism
        // degrades gracefully — covered by the scenario matrix.)
        let w = asap_workloads::WorkloadSpec {
            data_cluster_fraction: 0.8,
            ..small()
        };
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(w.clone()).with_sim(sim).run().unwrap();
        let rev = RunSpec::new(w)
            .with_engine(EngineSelect::Revelator)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(rev.prefetches_issued > 0, "speculative fetches must issue");
        // Walk latencies are untouched; the win is overlapped data fetch.
        assert!(
            rev.cycles < base.cycles,
            "Revelator {} !< baseline {} cycles",
            rev.cycles,
            base.cycles
        );
    }

    #[test]
    fn contender_runs_are_deterministic() {
        let spec = RunSpec::new(small())
            .with_engine(EngineSelect::Victima)
            .with_sim(SimConfig::smoke_test());
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.cycles, b.cycles);
    }
}
