//! Result digests: the correctness gate every timed run passes through.
//!
//! A run's digest hashes the simulator's canonical row serialization of
//! its aggregate and per-core rows, so two runs agree exactly when every
//! simulated statistic agrees. At the default seed each digest must equal
//! the committed reference; at any other seed a spec's first digest
//! becomes the reference its repeats and its warm-decoded copy must match.

use asap_sim::{result_to_json, RunOutput, RunSpec};
use asap_store::fnv1a_128;
use std::collections::HashMap;

/// The committed per-spec digests at [`crate::suite::DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference/digests-seed42.tsv");

/// A spec's identity: the digest of its canonical bytes. Unlike the cache
/// key it leaves out the simulator's semantics version, so a version bump
/// that keeps a spec's statistics keeps its reference row.
#[must_use]
pub fn spec_id(spec: &RunSpec) -> u128 {
    fnv1a_128(&spec.canonical_bytes())
}

/// The digest of every simulated statistic of one run.
#[must_use]
pub fn result_digest(output: &RunOutput) -> u128 {
    let mut text = result_to_json(&output.aggregate);
    for core in &output.per_core {
        text.push('\n');
        text.push_str(&result_to_json(core));
    }
    fnv1a_128(text.as_bytes())
}

/// Expected digests by spec id.
#[derive(Debug, Default)]
pub struct Expected {
    digests: HashMap<u128, u128>,
    /// Whether digests come from the committed file (default seed) or are
    /// learned from first observations (any other seed).
    committed: bool,
}

impl Expected {
    /// The committed reference at the default seed, an empty table that
    /// learns first observations at any other.
    #[must_use]
    pub fn for_seed(seed: u64) -> Self {
        if seed == crate::suite::DEFAULT_SEED {
            Self {
                digests: parse(REFERENCE),
                committed: true,
            }
        } else {
            Self::default()
        }
    }

    /// Checks `digest` for spec `id`; a learning table records the first
    /// digest it sees and holds later ones to it.
    pub fn check(&mut self, id: u128, digest: u128) -> bool {
        match self.digests.get(&id) {
            Some(&want) => want == digest,
            None if self.committed => false,
            None => {
                self.digests.insert(id, digest);
                true
            }
        }
    }

    /// The digests learned from first observations, sorted by spec id;
    /// none for the committed reference.
    #[must_use]
    pub fn learned(&self) -> Vec<(u128, u128)> {
        if self.committed {
            return Vec::new();
        }
        let mut rows: Vec<_> = self.digests.iter().map(|(&id, &d)| (id, d)).collect();
        rows.sort_unstable();
        rows
    }
}

/// Parses `id<TAB>digest<TAB>...` rows; `#` lines are comments.
fn parse(text: &str) -> HashMap<u128, u128> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut cols = l.split('\t');
            let id = u128::from_str_radix(cols.next()?, 16).ok()?;
            let digest = u128::from_str_radix(cols.next()?, 16).ok()?;
            Some((id, digest))
        })
        .collect()
}

/// Renders reference rows for `rows` of (spec, digest), sorted by id.
#[must_use]
pub fn render(rows: &[(RunSpec, u128)]) -> String {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|(spec, digest)| {
            format!(
                "{:032x}\t{digest:032x}\t{}\t{}\t{}c\t{}+{}",
                spec_id(spec),
                spec.workload.name,
                spec.label(),
                spec.cores,
                spec.sim.warmup_accesses,
                spec.sim.measure_accesses
            )
        })
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# Result digests of every benchmark spec at seed 42.\n\
         # spec id (fnv1a-128 of RunSpec::canonical_bytes)\tresult digest\tworkload\tlabel\tcores\twindows\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- reference\n",
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Workload, DEFAULT_SEED};

    #[test]
    fn reference_covers_every_spec() {
        let table = parse(REFERENCE);
        for w in Workload::ALL {
            for spec in w.specs(DEFAULT_SEED) {
                assert!(
                    table.contains_key(&spec_id(&spec)),
                    "{}: no reference digest for {} {}",
                    w.name(),
                    spec.workload.name,
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn learning_tables_hold_repeats_to_the_first_digest() {
        let mut e = Expected::for_seed(DEFAULT_SEED + 1);
        assert!(e.check(1, 10));
        assert!(e.check(1, 10));
        assert!(!e.check(1, 11));
        assert_eq!(e.learned(), vec![(1, 10)]);
        let mut committed = Expected::for_seed(DEFAULT_SEED);
        assert!(
            !committed.check(0, 0),
            "unknown specs fail at the default seed"
        );
        assert!(committed.learned().is_empty());
    }

    #[test]
    fn rendered_rows_parse_back() {
        let spec = Workload::Isolated1c.specs(DEFAULT_SEED).remove(0);
        let text = render(&[(spec.clone(), 0xabc)]);
        assert_eq!(parse(&text).get(&spec_id(&spec)), Some(&0xabc));
    }
}
