//! The three benchmark workloads: which `RunSpec`s each one runs, at which
//! windows, and how many simulated accesses each spec delivers.
//!
//! The names here are *benchmark* workloads; the simulator's own presets
//! (`WorkloadSpec::mcf`, `mc80`, ...) are their inputs.

use asap_core::NestedAsapConfig;
use asap_sim::scenarios::registry;
use asap_sim::{EngineSelect, RunSpec, SimConfig};
use asap_workloads::WorkloadSpec;
use std::collections::BTreeSet;

/// The simulator's default seed: the seed at which the committed result
/// digests in `reference/` were taken.
pub const DEFAULT_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One core, no co-runner: the translation path does the work.
    Isolated1c,
    /// Colocated and multi-core shapes: the cache fabric does the work.
    SharedFabric,
    /// Every registry spec, served from a pre-populated result cache.
    WarmReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Isolated1c,
        Workload::SharedFabric,
        Workload::WarmReplay,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Isolated1c => "isolated_1c",
            Workload::SharedFabric => "shared_fabric",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// Looks a workload up by its `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every timed run simulates against an empty cache (the
    /// path a user's cold `asap all` takes).
    #[must_use]
    pub fn is_cold(self) -> bool {
        !matches!(self, Workload::WarmReplay)
    }

    /// The specs one pass of this workload runs, at `seed`, in
    /// enumeration order. Duplicate specs (same canonical bytes) appear
    /// once.
    #[must_use]
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        let specs = match self {
            Workload::Isolated1c => isolated_1c(seed),
            Workload::SharedFabric => shared_fabric(seed),
            Workload::WarmReplay => warm_replay(seed),
        };
        let mut seen = BTreeSet::new();
        specs
            .into_iter()
            .filter(|s| seen.insert(s.canonical_bytes()))
            .collect()
    }
}

/// Simulated accesses one spec delivers: every core runs the warmup and
/// the measurement window, so Σ over cores of warmup + measure. The
/// single-core co-runner shim injects cache lines, not accesses, so it
/// adds nothing.
#[must_use]
pub fn simulated_accesses(spec: &RunSpec) -> u64 {
    spec.cores as u64 * (spec.sim.warmup_accesses + spec.sim.measure_accesses)
}

/// Windows of `isolated_1c`: the `--quick` tier's windows, the ones a
/// user's cold `asap all --quick` runs.
fn isolated_windows(seed: u64) -> SimConfig {
    SimConfig {
        warmup_accesses: 5_000,
        measure_accesses: 20_000,
        seed,
        lockstep: false,
    }
}

/// Windows of `shared_fabric`: smaller than the quick tier's, so one
/// run of `--seconds` holds enough passes of the 16-core stragglers for a
/// steady rate and tail.
fn fabric_windows(seed: u64) -> SimConfig {
    SimConfig {
        warmup_accesses: 2_000,
        measure_accesses: 8_000,
        seed,
        lockstep: false,
    }
}

/// Windows of `warm_replay` for every scenario that does not pin its own:
/// small, because the untimed set-up simulates the whole registry.
fn replay_windows(seed: u64) -> SimConfig {
    SimConfig {
        warmup_accesses: 100,
        measure_accesses: 400,
        seed,
        lockstep: false,
    }
}

fn isolated_1c(seed: u64) -> Vec<RunSpec> {
    let native = [
        EngineSelect::Baseline,
        EngineSelect::asap_p1_p2(),
        EngineSelect::Victima,
        EngineSelect::Revelator,
    ];
    let virt = [
        EngineSelect::Baseline,
        EngineSelect::NestedAsap(NestedAsapConfig::all()),
    ];
    let sim = isolated_windows(seed);
    let mut out = Vec::new();
    for w in WorkloadSpec::paper_suite() {
        for engine in &native {
            out.push(
                RunSpec::new(w.clone())
                    .with_engine(engine.clone())
                    .with_sim(sim),
            );
        }
        for engine in &virt {
            out.push(
                RunSpec::new(w.clone())
                    .virt()
                    .with_engine(engine.clone())
                    .with_sim(sim),
            );
        }
    }
    out
}

fn shared_fabric(seed: u64) -> Vec<RunSpec> {
    let sim = fabric_windows(seed);
    let shapes: [fn(RunSpec) -> RunSpec; 4] = [
        |s| s.colocated(),
        |s| s.with_cores(4),
        |s| s.with_cores(16),
        |s| s.with_cores(16).with_numa_nodes(4),
    ];
    let mut out = Vec::new();
    for w in [WorkloadSpec::mc80(), WorkloadSpec::redis()] {
        for engine in [EngineSelect::Baseline, EngineSelect::asap_p1_p2()] {
            for shape in shapes {
                out.push(shape(
                    RunSpec::new(w.clone())
                        .with_engine(engine.clone())
                        .with_sim(sim),
                ));
            }
        }
    }
    out
}

fn warm_replay(seed: u64) -> Vec<RunSpec> {
    registry()
        .iter()
        .flat_map(|s| {
            let sim = s.windows_or(replay_windows(seed)).with_seed(seed);
            s.runs(sim).into_iter().map(|r| r.spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_set_is_non_empty_and_valid() {
        for w in Workload::ALL {
            let specs = w.specs(DEFAULT_SEED);
            assert!(!specs.is_empty(), "{} has no specs", w.name());
            for spec in &specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {spec:?}: {e}", w.name()));
                assert_eq!(spec.sim.seed, DEFAULT_SEED);
                assert!(!spec.telemetry.any(), "timed specs run with telemetry off");
            }
        }
    }

    #[test]
    fn spec_sets_match_their_definitions() {
        assert_eq!(Workload::Isolated1c.specs(1).len(), 7 * 6);
        assert_eq!(Workload::SharedFabric.specs(1).len(), 2 * 2 * 4);
        let isolated = Workload::Isolated1c.specs(1);
        assert!(isolated.iter().all(|s| s.cores == 1 && !s.colocated));
    }

    #[test]
    fn seeds_reach_every_spec() {
        for w in Workload::ALL {
            assert!(w.specs(7).iter().all(|s| s.sim.seed == 7), "{}", w.name());
        }
    }

    #[test]
    fn accesses_count_every_core_and_no_corunner_lines() {
        let sim = SimConfig {
            warmup_accesses: 10,
            measure_accesses: 30,
            seed: 1,
            lockstep: false,
        };
        let base = RunSpec::new(WorkloadSpec::mc80()).with_sim(sim);
        assert_eq!(simulated_accesses(&base), 40);
        assert_eq!(simulated_accesses(&base.clone().with_cores(4)), 4 * 40);
        assert_eq!(simulated_accesses(&base.clone().colocated()), 40);
    }

    /// The axis count agrees with what the simulator itself retires: the
    /// aggregate row's instructions are Σ over cores of the measurement
    /// window times the per-access instruction count.
    #[test]
    fn accesses_agree_with_retired_instructions() {
        let sim = SimConfig {
            warmup_accesses: 50,
            measure_accesses: 200,
            seed: 3,
            lockstep: false,
        };
        for spec in [
            RunSpec::new(asap_sim::scenarios::smoke_workload())
                .with_sim(sim)
                .with_cores(4),
            RunSpec::new(asap_sim::scenarios::smoke_workload())
                .with_sim(sim)
                .colocated(),
        ] {
            let out = spec.run_split().expect("valid spec");
            let measured = out.aggregate.instructions / asap_sim::INSTRUCTIONS_PER_ACCESS;
            assert_eq!(
                measured * (sim.warmup_accesses + sim.measure_accesses) / sim.measure_accesses,
                simulated_accesses(&spec)
            );
        }
    }
}
