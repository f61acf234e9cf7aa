//! The `layer_replay` phase of the traced run: each layer's public call,
//! timed from outside on a preset's own access stream.
//!
//! Per preset the stream is drawn once, demand-paged untimed, and then
//! replayed through one layer at a time. A block of calls is timed as a
//! whole, so the clock read costs nothing per call; set-up work (warming a
//! TLB, collecting physical addresses) happens outside the timed blocks.

use asap_cache::{CacheHierarchy, HierarchyConfig, SharedFabric};
use asap_contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap_core::{AsapHwConfig, Mmu, MmuConfig, NestedMmu, NestedMmuConfig, TranslationEngine};
use asap_os::{AsapOsConfig, Process};
use asap_sim::sched::EventQueue;
use asap_tlb::{PageWalkCaches, PwcConfig, Tlb, TlbConfig, TlbEntry};
use asap_types::{Asid, CacheLineAddr, PageSize, PhysAddr, PhysFrameNum, PtLevel, VirtAddr};
use asap_virt::{EptConfig, VirtualMachine};
use asap_workloads::{CoRunner, WorkloadSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Ports of the shared-fabric replay: the 16-core shape.
const FABRIC_PORTS: u64 = 16;

/// Arbitration rounds per event-queue replay.
const SCHED_ROUNDS: u64 = 200_000;

/// The most co-runner lines one preset replays.
const CORUNNER_LINES: usize = 200_000;

/// Accumulated time and calls of each replayed layer.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    acc: BTreeMap<&'static str, (u128, u64)>,
}

impl LayerCosts {
    fn time<R>(&mut self, layer: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos();
        let e = self.acc.entry(layer).or_default();
        e.0 += ns;
        e.1 += calls;
        out
    }

    /// Mean nanoseconds per call of `layer` (0 when never replayed).
    #[must_use]
    pub fn ns_per_call(&self, layer: &str) -> f64 {
        self.acc.get(layer).map_or(0.0, |&(ns, calls)| {
            crate::stats::ratio(ns as f64, calls as f64)
        })
    }

    /// Calls replayed for `layer`.
    #[must_use]
    pub fn calls(&self, layer: &str) -> u64 {
        self.acc.get(layer).map_or(0, |&(_, calls)| calls)
    }
}

/// Every layer the replay times, by its per-layer metric stem.
pub const LAYERS: [&str; 16] = [
    "workloads.next_va",
    "os.build_process",
    "pt.flat_translate",
    "tlb.stlb_lookup",
    "tlb.pwc_lookup",
    "core.translate_access.baseline",
    "core.translate_access.asap",
    "core.data_access",
    "core.corunner_access",
    "contenders.victima_translate",
    "contenders.revelator_translate",
    "virt.nested_translate",
    "cache.hierarchy_access",
    "cache.fabric_access",
    "sim.sched_epoch.4c",
    "sim.sched_epoch.16c",
];

/// Replays every layer over each preset's stream of `accesses` accesses.
#[must_use]
pub fn replay(presets: &[WorkloadSpec], accesses: usize, seed: u64) -> LayerCosts {
    let mut costs = LayerCosts::default();
    for w in presets {
        replay_native(&mut costs, w, accesses, seed);
        replay_asap(&mut costs, w, accesses, seed);
        replay_nested(&mut costs, w, accesses, seed);
    }
    for cores in [4usize, 16] {
        let layer = if cores == 4 {
            "sim.sched_epoch.4c"
        } else {
            "sim.sched_epoch.16c"
        };
        replay_sched(&mut costs, layer, cores);
    }
    costs
}

/// Draws `n` accesses from `w`'s stream over `process` and demand-pages
/// them, as the simulation loop does before translating.
fn draw(
    costs: &mut LayerCosts,
    w: &WorkloadSpec,
    process: &Process,
    n: usize,
    seed: u64,
) -> Vec<VirtAddr> {
    let mut stream = w.build_stream(process, seed ^ 0x11);
    costs.time("workloads.next_va", n as u64, || {
        (0..n).map(|_| stream.next_va()).collect()
    })
}

fn touch_all(process: &mut Process, vas: &[VirtAddr]) {
    for va in vas {
        process
            .touch(*va)
            .expect("a preset's stream stays inside its VMAs");
    }
}

fn translate_all<E: TranslationEngine>(
    costs: &mut LayerCosts,
    layer: &'static str,
    engine: &mut E,
    machine: &mut E::Machine,
    vas: &[VirtAddr],
) -> Vec<PhysAddr> {
    TranslationEngine::load_context(engine, machine);
    costs.time(layer, vas.len() as u64, || {
        vas.iter()
            .map(|va| {
                engine
                    .translate_access(machine, *va)
                    .phys
                    .expect("demand-paged addresses translate")
            })
            .collect()
    })
}

fn replay_native(costs: &mut LayerCosts, w: &WorkloadSpec, n: usize, seed: u64) {
    let mut process = costs.time("os.build_process", 1, || {
        w.build_process(Asid(1), AsapOsConfig::disabled(), seed)
    });
    let vas = draw(costs, w, &process, n, seed);
    touch_all(&mut process, &vas);

    let mirror = process.flat_mirror();
    costs.time("pt.flat_translate", n as u64, || {
        for va in &vas {
            black_box(mirror.translate(*va));
        }
    });
    let entries: Vec<TlbEntry> = vas
        .iter()
        .map(|va| {
            let t = mirror
                .translate(*va)
                .expect("demand-paged addresses translate");
            TlbEntry::new(t.frame, t.size)
        })
        .collect();

    let asid = Asid(1);
    let mut stlb = Tlb::new(TlbConfig::l2_stlb(), seed);
    for (va, entry) in vas.iter().zip(&entries) {
        if stlb.lookup(asid, va.page_number()).is_none() {
            stlb.insert(asid, va.page_number(), *entry);
        }
    }
    costs.time("tlb.stlb_lookup", n as u64, || {
        for va in &vas {
            black_box(stlb.lookup(asid, va.page_number()));
        }
    });
    let mut pwc = PageWalkCaches::new(PwcConfig::split_default(), seed);
    for va in &vas {
        if pwc.lookup(asid, *va).is_none() {
            for (level, shift) in [(PtLevel::Pl4, 39), (PtLevel::Pl3, 30), (PtLevel::Pl2, 21)] {
                pwc.fill(asid, *va, level, PhysFrameNum::new(va.raw() >> shift));
            }
        }
    }
    costs.time("tlb.pwc_lookup", n as u64, || {
        for va in &vas {
            black_box(pwc.lookup(asid, *va));
        }
    });

    let mut mmu = Mmu::new(MmuConfig::default().with_seed(seed));
    let pas = translate_all(
        costs,
        "core.translate_access.baseline",
        &mut mmu,
        &mut process,
        &vas,
    );
    costs.time("core.data_access", n as u64, || {
        for pa in &pas {
            black_box(mmu.data_access(*pa));
        }
    });
    let mut corunner = CoRunner::memory_intensive(seed ^ 0xC0);
    let lines: Vec<CacheLineAddr> = (0..CORUNNER_LINES.min(n * corunner.burst()))
        .map(|_| corunner.next_line())
        .collect();
    costs.time("core.corunner_access", lines.len() as u64, || {
        for line in &lines {
            mmu.corunner_access(*line);
        }
    });

    let mut victima = VictimaMmu::new(VictimaConfig::default().with_seed(seed));
    translate_all(
        costs,
        "contenders.victima_translate",
        &mut victima,
        &mut process,
        &vas,
    );
    let mut revelator = RevelatorMmu::new(RevelatorConfig::default().with_seed(seed));
    translate_all(
        costs,
        "contenders.revelator_translate",
        &mut revelator,
        &mut process,
        &vas,
    );

    let lines: Vec<CacheLineAddr> = pas.iter().map(|pa| pa.cache_line()).collect();
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::broadwell_like());
    costs.time("cache.hierarchy_access", n as u64, || {
        for line in &lines {
            black_box(hierarchy.access(*line));
        }
    });
    let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
    let mut clocks = [0u64; FABRIC_PORTS as usize];
    costs.time("cache.fabric_access", n as u64, || {
        for (i, line) in lines.iter().enumerate() {
            let port = i as u64 % FABRIC_PORTS;
            let r = fabric.access_at(
                CacheLineAddr::new(line.raw() | port << 40),
                clocks[port as usize],
            );
            clocks[port as usize] += r.latency + 3;
        }
    });
}

fn replay_asap(costs: &mut LayerCosts, w: &WorkloadSpec, n: usize, seed: u64) {
    let asap = AsapHwConfig::p1_p2();
    let os = AsapOsConfig {
        levels: asap.levels.clone(),
        max_descriptors: 16,
        extension_failure_rate: 0.0,
    };
    let mut process = w.build_process(Asid(1), os, seed);
    let mut stream = w.build_stream(&process, seed ^ 0x11);
    let vas: Vec<VirtAddr> = (0..n).map(|_| stream.next_va()).collect();
    touch_all(&mut process, &vas);
    let mut mmu = Mmu::new(MmuConfig::default().with_asap(asap).with_seed(seed));
    translate_all(
        costs,
        "core.translate_access.asap",
        &mut mmu,
        &mut process,
        &vas,
    );
}

fn replay_nested(costs: &mut LayerCosts, w: &WorkloadSpec, n: usize, seed: u64) {
    let guest = w
        .process_config(Asid(1), AsapOsConfig::disabled(), seed)
        .with_compact_phys();
    let mut vm = VirtualMachine::new(
        guest,
        EptConfig {
            host_levels: Vec::new(),
            host_page_size: PageSize::Size4K,
            scatter_run: w.pt_scatter_run,
            seed: seed ^ 0xE9,
        },
    );
    let mut stream = w.build_stream(vm.guest(), seed ^ 0x11);
    let vas: Vec<VirtAddr> = (0..n).map(|_| stream.next_va()).collect();
    for va in &vas {
        vm.touch(*va)
            .expect("a preset's stream stays inside its VMAs");
    }
    let mut mmu = NestedMmu::new(NestedMmuConfig::default().with_seed(seed));
    translate_all(costs, "virt.nested_translate", &mut mmu, &mut vm, &vas);
}

/// One arbitration round per iteration: pop the minimum-clock core,
/// advance it by a pseudo-random burst, push it back.
fn replay_sched(costs: &mut LayerCosts, layer: &'static str, cores: usize) {
    let mut queue = EventQueue::with_capacity(cores);
    for i in 0..cores {
        queue.push((i as u64, i));
    }
    costs.time(layer, SCHED_ROUNDS, || {
        for _ in 0..SCHED_ROUNDS {
            let (clock, i) = queue.pop().expect("the queue stays full");
            queue.push((clock + 40 + ((clock >> 3) ^ i as u64) % 191, i));
        }
        black_box(queue.peek())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_replay_makes_calls() {
        let costs = replay(&[asap_sim::scenarios::smoke_workload()], 2_000, 5);
        for layer in LAYERS {
            assert!(costs.calls(layer) > 0, "{layer} made no calls");
            assert!(costs.ns_per_call(layer) > 0.0, "{layer} took no time");
        }
    }
}
