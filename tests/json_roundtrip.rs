//! Golden round-trip test for the `BENCH_results.json` emitter/parser.
//!
//! Two invariants:
//!
//! 1. **Golden**: the committed `BENCH_results.json` parses, and re-emitting
//!    the parsed document reproduces the committed bytes exactly — the
//!    canonical layout is stable, so trajectory diffs are always real
//!    behaviour changes, never formatting noise.
//! 2. **Fresh**: results emitted from a live smoke run round-trip
//!    byte-identically (emit → parse → re-emit).

use asap::sim::scenarios::{find, run_scenarios};
use asap::sim::{results_to_json, BenchDoc, SimConfig};

fn committed_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_results.json");
    std::fs::read_to_string(path).expect("committed BENCH_results.json exists")
}

#[test]
fn committed_results_file_round_trips_byte_identically() {
    let json = committed_json();
    let doc = BenchDoc::parse(&json).unwrap_or_else(|e| panic!("committed file must parse: {e}"));
    assert_eq!(doc.schema_version, 1);
    assert_eq!(doc.tier, "smoke");
    assert!(
        doc.scenarios.iter().any(|s| s.scenario == "smoke"),
        "the engine-matrix smoke scenario is committed"
    );
    assert_eq!(
        doc.to_json(),
        json,
        "re-emitting the parsed committed file must be byte-identical"
    );
}

#[test]
fn committed_rows_carry_the_schema_fields() {
    let doc = BenchDoc::parse(&committed_json()).unwrap();
    let smoke = doc
        .scenarios
        .iter()
        .find(|s| s.scenario == "smoke")
        .unwrap();
    let baseline = smoke
        .runs
        .iter()
        .find(|r| r.variant == "native/baseline")
        .expect("baseline row present");
    assert_eq!(baseline.workload, "mc80");
    assert_eq!(baseline.label, "Baseline");
    assert!(baseline.walks > 0);
    assert!(baseline.avg_walk_latency > 0.0);
    assert!(baseline.cycles > baseline.walk_cycles);
    assert_eq!(baseline.faults, 0);
}

#[test]
fn fresh_emission_round_trips_byte_identically() {
    let results = run_scenarios(
        &[find("smoke").expect("smoke scenario registered")],
        SimConfig::smoke_test(),
        None,
    );
    let json = results_to_json(&results, "smoke");
    let doc = BenchDoc::parse(&json).unwrap();
    assert_eq!(doc.to_json(), json);
    // And a second full cycle stays fixed (idempotent canonical form).
    let again = BenchDoc::parse(&doc.to_json()).unwrap();
    assert_eq!(again, doc);
}
