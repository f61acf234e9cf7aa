//! Observer-effect benchmarks: proves the telemetry layer's disabled
//! path costs nothing measurable.
//!
//! The `disabled/` rows repeat the `components/cache/hierarchy_access`
//! and `components/driver/batched_epoch` bodies verbatim on a build that
//! carries the telemetry hooks — if the hooks were not compiling to
//! never-taken branches, these rows would drift from their `components/`
//! twins. The `enabled/` rows are the contrast: the same epoch with a
//! tracer installed, showing what turning the layer ON costs.

use asap_cache::{CacheHierarchy, HierarchyConfig};
use asap_core::{Mmu, MmuConfig, TranslationEngine};
use asap_os::AsapOsConfig;
use asap_sim::{run_cores, CoreSlot, RunMeta, SimConfig};
use asap_telemetry::TraceSink;
use asap_types::{Asid, ByteSize, CacheLineAddr};
use asap_workloads::WorkloadSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn disabled_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/disabled");

    // Twin of components/cache/hierarchy_access: the fabric hot path has
    // no telemetry branch at all — this row pins that it stays that way.
    let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
    let mut i = 0u64;
    g.bench_function("hierarchy_access", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            hier.access(CacheLineAddr::new(i % (1 << 20)))
        })
    });

    // Twin of components/driver/batched_epoch: every per-access tracer
    // hook in the engine evaluates `None` here.
    g.sample_size(10);
    let w = WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    };
    let sim = SimConfig::smoke_test();
    let mut process = w.build_process(Asid(9), AsapOsConfig::disabled(), sim.seed);
    let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
    TranslationEngine::load_context(&mut mmu, &process);
    let meta = RunMeta {
        label: "bench".into(),
        sim,
        perfect_tlb: false,
    };
    g.bench_function("batched_epoch", |b| {
        b.iter(|| {
            let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
            let mut slots = [CoreSlot {
                engine: &mut mmu,
                machine: &mut process,
                stream: stream.as_mut(),
                workload: "bench".into(),
                corunner: None,
            }];
            run_cores(&mut slots, &meta, None).unwrap()
        })
    });
    g.finish();
}

fn enabled_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/enabled");
    g.sample_size(10);
    let w = WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    };
    let sim = SimConfig::smoke_test();
    let mut process = w.build_process(Asid(9), AsapOsConfig::disabled(), sim.seed);
    let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
    TranslationEngine::load_context(&mut mmu, &process);
    let meta = RunMeta {
        label: "bench".into(),
        sim,
        perfect_tlb: false,
    };
    // One epoch with a live ring buffer: the honest price of `--trace`.
    g.bench_function("batched_epoch_traced", |b| {
        b.iter(|| {
            mmu.set_tracer(TraceSink::default());
            let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
            let mut slots = [CoreSlot {
                engine: &mut mmu,
                machine: &mut process,
                stream: stream.as_mut(),
                workload: "bench".into(),
                corunner: None,
            }];
            let r = run_cores(&mut slots, &meta, None).unwrap();
            black_box(mmu.take_tracer());
            r
        })
    });
    g.finish();
}

criterion_group!(telemetry, disabled_path, enabled_path);
criterion_main!(telemetry);
