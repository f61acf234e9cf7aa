//! The native machine assembly — the only one, for every core count
//! N ≥ 1: builds N per-core engines over ONE shared [`SharedFabric`] for
//! a unified [`RunSpec`] on a native machine and hands them to [`drive`],
//! the drive tail the virtualized assembly shares. Reached only through
//! [`RunSpec::run_split`]'s internal dispatch.
//!
//! Core 0 always runs the spec's workload. Cores 1..N run workload copies
//! (isolation — the homogeneous-scaling question) or, when the spec is
//! colocated, the [`WorkloadSpec::corunner`] preset as a *real* core: the
//! neighbor takes its own TLB misses and walks on the shared hierarchy.
//! A colocated 1-core machine has no second core, so its co-runner is the
//! legacy out-of-band line-injection shim on core 0's slot (see
//! [`CoreSlot::corunner`]).
//!
//! Every core gets its own process (distinct ASID, hence a disjoint
//! physical window — see `asap_os::PhysMap`), its own derived seed, and
//! the same MMU configuration; only the fabric is shared. Core 0 keeps
//! the run's own seed and ASID 1, so at N = 1 the assembly is exactly the
//! classic single-core paper machine, and its row is named after the
//! plain workload with no per-core breakdown.
//!
//! When the spec's `numa_nodes` axis exceeds one, this module also lays
//! the NUMA topology: cores go to nodes round-robin by index, and every
//! process window registers a DRAM home node round-robin in core-major
//! order, so each core ends up with a deterministic mix of local and
//! remote windows. The engines stay topology-oblivious — each one simply
//! receives a [`SharedFabric::for_node`] handle stamped with its core's
//! node.

use crate::driver::{run_cores, CoreSlot, DriverError, RunMeta};
use crate::native::{hw_asap, mmu_config, os_asap};
use crate::observe::RunObserver;
use crate::{EngineSelect, RunOutput, RunSpec};
use asap_cache::{HierarchyConfig, NumaConfig, SharedFabric};
use asap_contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap_core::{Mmu, TranslationEngine};
use asap_os::{PhysMap, Process};
use asap_types::{Asid, CacheLineAddr};
use asap_workloads::{BoxedStream, CoRunner, WorkloadSpec};

/// Derives core `i`'s seed from the run seed. Core 0 keeps the run seed
/// unchanged, so its process and stream are bit-identical to the
/// single-core machine's — scaling comparisons vary only the contention.
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Core `i`'s ASID: the kernel keeps ASID 0, cores count up from 1.
/// `RunSpec::validate` caps the core count at `MAX_CORES`, so the
/// narrowing is exact.
fn core_asid(core: usize) -> Asid {
    Asid(1 + core as u16)
}

/// The first cache line of a physical frame (a 4 KiB frame spans 64
/// lines).
fn frame_line(frame: asap_types::PhysFrameNum) -> CacheLineAddr {
    CacheLineAddr::new(frame.raw() << 6)
}

/// The drive tail every machine assembly shares: context-loads each
/// engine on its machine, zips the per-core pieces into driver slots,
/// runs the interleaved loop, and harvests the telemetry. A colocated
/// 1-core machine carries the co-runner shim on core 0's slot. One core
/// yields a plain row; N cores yield per-core rows plus the merged
/// aggregate.
pub(crate) fn drive<E: TranslationEngine>(
    spec: &RunSpec,
    mut engines: Vec<E>,
    machines: &mut [E::Machine],
    streams: &mut [BoxedStream],
    names: &[String],
    mut obs: RunObserver,
) -> Result<RunOutput, DriverError> {
    for (engine, machine) in engines.iter_mut().zip(machines.iter()) {
        TranslationEngine::load_context(engine, machine);
    }
    obs.arm(&mut engines);
    let meta = RunMeta {
        label: spec.label(),
        sim: spec.sim,
        perfect_tlb: spec.perfect_tlb,
    };
    let mut shim = (spec.colocated && engines.len() == 1)
        .then(|| CoRunner::memory_intensive(spec.sim.seed ^ 0xC0));
    let mut slots: Vec<CoreSlot<'_, E>> = engines
        .iter_mut()
        .zip(machines.iter_mut())
        .zip(streams.iter_mut())
        .zip(names)
        .map(|(((engine, machine), stream), name)| CoreSlot {
            engine,
            machine,
            stream: stream.as_mut(),
            workload: name.clone(),
            corunner: shim.take(),
        })
        .collect();
    let per_core = run_cores(&mut slots, &meta, obs.driver_mut())?;
    drop(slots);
    let measured = spec.sim.measure_accesses * engines.len() as u64;
    let telemetry = obs.finish(&mut engines, names, measured);
    let output = match <[_; 1]>::try_from(per_core) {
        Ok([row]) => RunOutput::single(row),
        // A colocated aggregate blends the neighbor's counters into the
        // row; compose the name so nobody reads the blend as the workload
        // alone.
        Err(per_core) if spec.colocated => {
            RunOutput::aggregate_of(&format!("{}+corunner", spec.workload.name), per_core)
        }
        Err(per_core) => RunOutput::aggregate_of(spec.workload.name, per_core),
    };
    Ok(output.with_telemetry(telemetry))
}

/// Runs one native configuration: N ≥ 1 cores, one fabric.
pub(crate) fn run_smp(spec: &RunSpec) -> Result<RunOutput, DriverError> {
    let obs = RunObserver::begin(spec.telemetry);
    let n = spec.cores;
    let seed = spec.sim.seed;
    let base_workload = spec.effective_workload();
    let core_workloads: Vec<WorkloadSpec> = (0..n)
        .map(|i| {
            if i == 0 || !spec.colocated {
                base_workload.clone()
            } else {
                WorkloadSpec::corunner()
            }
        })
        .collect();
    // Cores go to NUMA nodes round-robin; at one node (uniform memory)
    // everything below degenerates to the pre-NUMA assembly bit-for-bit.
    let nodes = spec.numa_nodes;
    let core_node = |i: usize| i % nodes;
    let names: Vec<String> = core_workloads
        .iter()
        .enumerate()
        .map(|(i, w)| match (n, nodes) {
            (1, _) => w.name.to_string(),
            (_, 1) => format!("{}@core{i}", w.name),
            _ => format!("{}@core{i}n{}", w.name, core_node(i)),
        })
        .collect();

    // Every core runs the same OS policy (an SMP machine has one kernel):
    // ASAP reservations exist exactly for the levels hardware prefetches.
    let os = os_asap(&hw_asap(spec).levels);
    let mut processes: Vec<Process> = Vec::with_capacity(n);
    let mut streams: Vec<BoxedStream> = Vec::with_capacity(n);
    for (i, w) in core_workloads.iter().enumerate() {
        let s = core_seed(seed, i);
        let process = Process::new(
            w.process_config(core_asid(i), os.clone(), s)
                .with_paging_mode(spec.paging_mode),
        );
        streams.push(w.build_stream(&process, s ^ 0x11));
        processes.push(process);
    }

    // The machine-wide fabric, built ONCE from the SAME hierarchy config
    // the per-core engine constructor would use — one source of truth, so
    // a 1-core and an N-core run of the same spec simulate the same
    // memory system even if an engine config swaps its hierarchy.
    let hierarchy: HierarchyConfig = match &spec.engine {
        EngineSelect::Victima => VictimaConfig::default().hierarchy,
        EngineSelect::Revelator => RevelatorConfig::default().hierarchy,
        _ => mmu_config(spec, seed).hierarchy,
    };
    let fabric = SharedFabric::new(hierarchy);
    if nodes > 1 {
        // The NUMA layout: every process window registers a home node
        // round-robin in core-major order (core 0's four windows first,
        // then core 1's, ...), so window k lands on node k % N — a
        // deterministic model of allocation classes spreading across
        // sockets rather than following their core. Each core therefore
        // sees a fixed mix of local and remote windows (half remote at 2
        // nodes, three quarters at 4), and page-table windows land remote
        // for most cores — exactly the traffic that stresses walk latency
        // at rack scale.
        let windows = (0..n).flat_map(|i| {
            PhysMap::new(core_asid(i))
                .windows()
                .map(|(base, frames)| (frame_line(base), frames << 6))
        });
        fabric
            .borrow_mut()
            .configure_numa(NumaConfig::symmetric(nodes), windows);
    }
    let port = |i: usize| fabric.for_node(core_node(i));
    match &spec.engine {
        EngineSelect::Victima => drive(
            spec,
            (0..n)
                .map(|i| {
                    VictimaMmu::with_fabric(
                        VictimaConfig::default().with_seed(core_seed(seed, i)),
                        port(i),
                    )
                })
                .collect(),
            &mut processes,
            &mut streams,
            &names,
            obs,
        ),
        EngineSelect::Revelator => drive(
            spec,
            (0..n)
                .map(|i| {
                    RevelatorMmu::with_fabric(
                        RevelatorConfig::default().with_seed(core_seed(seed, i)),
                        port(i),
                    )
                })
                .collect(),
            &mut processes,
            &mut streams,
            &names,
            obs,
        ),
        // Baseline / ASAP (nested engines are rejected by validation on
        // native machines).
        _ => drive(
            spec,
            (0..n)
                .map(|i| Mmu::with_fabric(mmu_config(spec, core_seed(seed, i)), port(i)))
                .collect(),
            &mut processes,
            &mut streams,
            &names,
            obs,
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::scenarios::smoke_workload as small;
    use crate::{EngineSelect, RunSpec, SimConfig, TelemetryConfig};
    use asap_core::AsapHwConfig;

    #[test]
    fn smp_run_yields_per_core_and_aggregate_rows() {
        let out = RunSpec::new(small())
            .with_cores(2)
            .with_sim(SimConfig::smoke_test())
            .run_split()
            .unwrap();
        assert_eq!(out.per_core.len(), 2);
        assert_eq!(out.per_core[0].workload, "mc80@core0");
        assert_eq!(out.per_core[1].workload, "mc80@core1");
        assert_eq!(out.aggregate.workload, "mc80");
        assert_eq!(out.aggregate.label, "Baseline 2c");
        for core in &out.per_core {
            assert!(core.walks.count() > 100, "{} never walked", core.workload);
            assert_eq!(core.faults, 0);
            assert!(core.cycles > 0);
        }
        assert_eq!(
            out.aggregate.walks.count(),
            out.per_core.iter().map(|c| c.walks.count()).sum::<u64>()
        );
        assert_eq!(
            out.aggregate.cycles,
            out.per_core.iter().map(|c| c.cycles).max().unwrap()
        );
    }

    #[test]
    fn shared_fabric_contention_inflates_walk_latency() {
        let sim = SimConfig::smoke_test();
        let solo = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let quad = RunSpec::new(small())
            .with_cores(4)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            quad.avg_walk_latency() > solo.avg_walk_latency(),
            "4-core {} !> 1-core {}",
            quad.avg_walk_latency(),
            solo.avg_walk_latency()
        );
    }

    #[test]
    fn smp_colocation_runs_the_corunner_as_a_real_core() {
        let out = RunSpec::new(small())
            .with_cores(2)
            .colocated()
            .with_sim(SimConfig::smoke_test())
            .run_split()
            .unwrap();
        assert_eq!(out.per_core[0].workload, "mc80@core0");
        assert_eq!(out.per_core[1].workload, "corunner@core1");
        assert_eq!(
            out.aggregate.workload, "mc80+corunner",
            "a blended aggregate must not masquerade as the workload alone"
        );
        assert!(
            out.per_core[1].walks.count() > 0,
            "a real neighbor core takes real walks"
        );
    }

    /// The NUMA axis end-to-end: per-core rows name their nodes, the
    /// label gains the node fragment, and interconnect hops inflate both
    /// walk latency and cycles against the uniform-memory run of the same
    /// core count.
    #[test]
    fn numa_hops_inflate_walk_latency() {
        let sim = SimConfig::smoke_test();
        let uma = RunSpec::new(small())
            .with_cores(4)
            .with_sim(sim)
            .run_split()
            .unwrap();
        let spec = RunSpec::new(small())
            .with_cores(4)
            .with_numa_nodes(2)
            .with_sim(sim);
        let numa = spec.run_split().unwrap();
        assert_eq!(numa.per_core[0].workload, "mc80@core0n0");
        assert_eq!(numa.per_core[1].workload, "mc80@core1n1");
        assert_eq!(numa.per_core[2].workload, "mc80@core2n0");
        assert_eq!(numa.aggregate.label, "Baseline 4c 2n");
        assert!(
            numa.aggregate.avg_walk_latency() > uma.aggregate.avg_walk_latency(),
            "2-node walk latency {} !> uniform {}",
            numa.aggregate.avg_walk_latency(),
            uma.aggregate.avg_walk_latency()
        );
        assert!(numa.aggregate.cycles > uma.aggregate.cycles);
        // Same seed, same topology: bit-identical on a re-run.
        let again = spec.run_split().unwrap();
        assert_eq!(numa.aggregate.walks, again.aggregate.walks);
        assert_eq!(numa.aggregate.cycles, again.aggregate.cycles);
    }

    /// More nodes, more remote windows: walk latency grows monotonically
    /// across the node-count axis at a fixed core count.
    #[test]
    fn walk_latency_grows_with_node_count() {
        let sim = SimConfig::smoke_test();
        let at = |nodes: usize| {
            RunSpec::new(small())
                .with_cores(4)
                .with_numa_nodes(nodes)
                .with_sim(sim)
                .run()
                .unwrap()
                .avg_walk_latency()
        };
        let (n1, n2, n4) = (at(1), at(2), at(4));
        assert!(n2 > n1, "{n2} !> {n1}");
        assert!(n4 > n2, "{n4} !> {n2}");
    }

    #[test]
    fn smp_runs_are_deterministic() {
        let spec = RunSpec::new(small())
            .with_cores(2)
            .with_sim(SimConfig::smoke_test());
        let a = spec.run_split().unwrap();
        let b = spec.run_split().unwrap();
        assert_eq!(a.aggregate.walks, b.aggregate.walks);
        assert_eq!(a.aggregate.cycles, b.aggregate.cycles);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.walks, y.walks);
            assert_eq!(x.cycles, y.cycles);
        }
    }

    /// The profiled rate covers the whole machine: every core's measured
    /// window counts, and the 1-core co-runner shim's injected lines do
    /// not.
    #[test]
    fn profile_counts_every_cores_measured_accesses() {
        let sim = SimConfig::smoke_test();
        let measured = |spec: RunSpec| {
            let profiled = spec.with_sim(sim).with_telemetry(TelemetryConfig {
                profile: true,
                ..TelemetryConfig::off()
            });
            let out = profiled.run_split().unwrap();
            out.telemetry.unwrap().profile.unwrap().measure_accesses
        };
        assert_eq!(
            measured(RunSpec::new(small()).with_cores(4)),
            4 * sim.measure_accesses
        );
        assert_eq!(
            measured(RunSpec::new(small()).colocated()),
            sim.measure_accesses
        );
    }

    #[test]
    fn contender_engines_run_multi_core() {
        let sim = SimConfig::smoke_test();
        for engine in [
            EngineSelect::Victima,
            EngineSelect::Revelator,
            EngineSelect::Asap(AsapHwConfig::p1_p2()),
        ] {
            let out = RunSpec::new(small())
                .with_engine(engine.clone())
                .with_cores(2)
                .with_sim(sim)
                .run_split()
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert_eq!(out.per_core.len(), 2);
            assert_eq!(out.aggregate.faults, 0, "{engine:?}");
            assert!(out.aggregate.walks.count() > 0, "{engine:?}");
        }
    }
}
