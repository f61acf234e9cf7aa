//! Property tests: the result cache is invisible and the key is sound.
//!
//! Two invariants, both checked against the real scenario registry (so
//! every engine, machine shape and knob combination the experiments use
//! is covered, not a hand-picked sample):
//!
//! * **transparency** — for any registry spec, `run_split_cached` returns
//!   byte-identical results to a direct `run()`, both on the cold pass
//!   (which populates the store) and on the warm pass (which decodes it);
//! * **key soundness** — two specs get the same cache key exactly when
//!   their canonical encodings are equal, and flipping any single axis of
//!   a spec changes its key.

use std::sync::atomic::{AtomicU32, Ordering};

use asap_sim::scenarios::registry;
use asap_sim::{result_to_json, CacheHandle, RunSpec, SimConfig};
use proptest::prelude::*;

/// Every `RunSpec` the registry can produce, pinned to micro windows so
/// a single simulated run costs milliseconds.
fn registry_specs() -> Vec<RunSpec> {
    let sim = SimConfig {
        warmup_accesses: 100,
        measure_accesses: 300,
        seed: 42,
        ..SimConfig::default()
    };
    let mut out = Vec::new();
    for s in registry() {
        for run in s.runs(s.windows_or(sim)) {
            out.push(run.spec.with_sim(sim));
        }
    }
    assert!(!out.is_empty(), "the registry enumerates no runs");
    out
}

/// A fresh, self-cleaning cache directory per test case.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new() -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asap-prop-cache-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Same canonical bytes ⇔ same key, across the full registry cross
/// product. (Deliberately a plain exhaustive test, not a sampled one:
/// the registry is small enough to enumerate completely.)
#[test]
fn keys_collide_exactly_when_canonical_bytes_do() {
    let specs = registry_specs();
    let mut seen: std::collections::BTreeMap<String, Vec<u8>> = std::collections::BTreeMap::new();
    for spec in &specs {
        let key = spec.cache_key().hex();
        let bytes = spec.canonical_bytes();
        match seen.get(&key) {
            Some(prior) => assert_eq!(
                prior, &bytes,
                "two specs with different canonical encodings share key {key}"
            ),
            None => {
                seen.insert(key, bytes);
            }
        }
    }
    let distinct: std::collections::BTreeSet<Vec<u8>> =
        specs.iter().map(RunSpec::canonical_bytes).collect();
    assert_eq!(
        seen.len(),
        distinct.len(),
        "key count must equal distinct-canonical-encoding count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single axis of a registry spec changes its cache key.
    #[test]
    fn any_single_axis_flip_changes_the_key(pick in 0usize..4096, axis in 0usize..5) {
        let specs = registry_specs();
        let spec = specs[pick % specs.len()].clone();
        let flipped = match axis {
            0 => spec.clone().with_sim(spec.sim.with_seed(spec.sim.seed.wrapping_add(1))),
            1 => spec.clone().with_sim(SimConfig {
                warmup_accesses: spec.sim.warmup_accesses + 1,
                ..spec.sim
            }),
            2 => spec.clone().with_sim(SimConfig {
                measure_accesses: spec.sim.measure_accesses + 1,
                ..spec.sim
            }),
            3 => spec.clone().with_cores(spec.cores % asap_sim::MAX_CORES + 1),
            _ => spec
                .clone()
                .with_numa_nodes(spec.numa_nodes % asap_sim::MAX_NUMA_NODES + 1),
        };
        prop_assert_ne!(
            spec.cache_key().raw(),
            flipped.cache_key().raw(),
            "axis {} flip left the key unchanged", axis
        );
        prop_assert_eq!(
            spec.cache_key().raw(),
            specs[pick % specs.len()].cache_key().raw(),
            "key derivation must be pure"
        );
    }
}

proptest! {
    // Each case simulates the same spec three times; keep the count low
    // enough that the whole test stays in unit-test territory.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cold and warm `run_split_cached` are bit-identical to a direct `run()`,
    /// and the second pass is served from the store.
    #[test]
    fn cold_then_warm_run_cached_matches_direct_run(pick in 0usize..4096) {
        let specs = registry_specs();
        let spec = specs[pick % specs.len()].clone();
        let scratch = Scratch::new();
        let cache = CacheHandle::open(&scratch.0).expect("temp cache dir opens");

        let direct = spec.run().expect("registry specs are valid");
        let cold = spec.run_split_cached(&cache).expect("cold cached run succeeds").aggregate;
        let warm = spec.run_split_cached(&cache).expect("warm cached run succeeds").aggregate;

        // Bit-identical means byte-identical serialized rows, not merely
        // equal structs — the committed BENCH_results.json drift gate
        // compares bytes.
        prop_assert_eq!(result_to_json(&cold), result_to_json(&direct));
        prop_assert_eq!(result_to_json(&warm), result_to_json(&direct));
        prop_assert_eq!(cache.stats().misses(), 1, "cold pass simulates once");
        prop_assert_eq!(cache.stats().hits(), 1, "warm pass decodes the store");
    }
}
