//! Differential oracle: the flat `{tag, stamp}` slot array behind
//! [`SetAssoc`] and the fixed-capacity [`MshrFile`] against the simple
//! reference models they replaced — a `Vec<Option<Way>>` with a separate
//! replacement-state array, and a `Vec` of in-flight entries scanned on
//! every call. Random op sequences must give equal return values, equal
//! evictions and equal contents after every step, under every replacement
//! policy.

use asap_cache::{Eviction, MshrFile, MshrOutcome, ReplacementKind, ServedBy, SetAssoc};
use asap_types::CacheLineAddr;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference set-associative array: one `Option<Way>` per slot, and
/// LRU stamps or tree-PLRU bits kept beside it.
struct RefSetAssoc {
    slots: Vec<Option<(u64, u64)>>,
    ways: usize,
    clock: u64,
    policy: ReplacementKind,
    stamps: Vec<u64>,
    plru: Vec<u64>,
    rng: SmallRng,
}

impl RefSetAssoc {
    fn new(num_sets: usize, ways: usize, policy: ReplacementKind, seed: u64) -> Self {
        Self {
            slots: vec![None; num_sets * ways],
            ways,
            clock: 0,
            policy,
            stamps: vec![0; num_sets * ways],
            plru: vec![0; num_sets],
            rng: SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF),
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = self.clock;
        let bits = &mut self.plru[set];
        let mut node = 1usize;
        for level in (0..self.ways.trailing_zeros()).rev() {
            let bit = (way >> level) & 1;
            if bit == 0 {
                *bits |= 1 << node;
            } else {
                *bits &= !(1 << node);
            }
            node = node * 2 + bit;
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        let ways = self.ways;
        match self.policy {
            ReplacementKind::Lru => (0..ways)
                .min_by_key(|w| self.stamps[set * ways + w])
                .unwrap(),
            ReplacementKind::TreePlru => {
                let (mut node, mut way) = (1usize, 0usize);
                for _ in 0..ways.trailing_zeros() {
                    let dir = ((self.plru[set] >> node) & 1) as usize;
                    way = way * 2 + dir;
                    node = node * 2 + dir;
                }
                way
            }
            ReplacementKind::Random => self.rng.gen_range(0..ways),
        }
    }

    fn find(&self, set: usize, key: u64) -> Option<usize> {
        (0..self.ways).find(|w| self.slots[set * self.ways + w].is_some_and(|(k, _)| k == key))
    }

    fn lookup(&mut self, set: usize, key: u64) -> Option<u64> {
        self.clock += 1;
        let w = self.find(set, key)?;
        self.touch(set, w);
        self.slots[set * self.ways + w].map(|(_, v)| v)
    }

    fn lookup_add(&mut self, set: usize, key: u64, delta: u64) -> Option<u64> {
        let old = self.lookup(set, key)?;
        let w = self.find(set, key)?;
        self.slots[set * self.ways + w] = Some((key, old + delta));
        Some(old)
    }

    fn probe(&self, set: usize, key: u64) -> Option<u64> {
        let w = self.find(set, key)?;
        self.slots[set * self.ways + w].map(|(_, v)| v)
    }

    fn insert(&mut self, set: usize, key: u64, value: u64) -> Option<Eviction<u64, u64>> {
        self.clock += 1;
        let base = set * self.ways;
        if let Some(w) = self.find(set, key) {
            self.slots[base + w] = Some((key, value));
            self.touch(set, w);
            return None;
        }
        if let Some(w) = (0..self.ways).find(|w| self.slots[base + w].is_none()) {
            self.slots[base + w] = Some((key, value));
            self.touch(set, w);
            return None;
        }
        let w = self.victim(set);
        let (k, v) = self.slots[base + w].replace((key, value)).unwrap();
        self.touch(set, w);
        Some(Eviction { key: k, value: v })
    }

    fn invalidate(&mut self, set: usize, key: u64) -> Option<u64> {
        let w = self.find(set, key)?;
        self.slots[set * self.ways + w].take().map(|(_, v)| v)
    }

    fn flush(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }

    fn retain(&mut self, mut keep: impl FnMut(u64, u64) -> bool) -> usize {
        let mut dropped = 0;
        for slot in &mut self.slots {
            if slot.is_some_and(|(k, v)| !keep(k, v)) {
                *slot = None;
                dropped += 1;
            }
        }
        dropped
    }

    fn contents(&self) -> Vec<(usize, u64, u64)> {
        let ways = self.ways;
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(k, v)| (i / ways, k, v)))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(usize, u64),
    LookupMut(usize, u64, u64),
    Probe(usize, u64),
    Insert(usize, u64, u64),
    Invalidate(usize, u64),
    Flush,
    Retain(u64),
    /// A demand miss: lookup, and on a miss fill at the way it found.
    LookupThenFill(usize, u64, u64),
    /// A prefetch fill: locate without touching, then fill there.
    LocateThenFill(usize, u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Few keys, so hits, refills and conflicts are all common.
    let slot = || (0usize..8, 0u64..12);
    proptest::collection::vec(
        prop_oneof![
            slot().prop_map(|(s, k)| Op::Lookup(s, k)),
            (slot(), 1u64..5).prop_map(|((s, k), d)| Op::LookupMut(s, k, d)),
            slot().prop_map(|(s, k)| Op::Probe(s, k)),
            (slot(), 0u64..1000).prop_map(|((s, k), v)| Op::Insert(s, k, v)),
            slot().prop_map(|(s, k)| Op::Invalidate(s, k)),
            (0u64..40).prop_map(|x| if x == 0 {
                Op::Flush
            } else {
                Op::Retain(x % 5 + 2)
            }),
            (slot(), 0u64..1000).prop_map(|((s, k), v)| Op::LookupThenFill(s, k, v)),
            (slot(), 0u64..1000).prop_map(|((s, k), v)| Op::LocateThenFill(s, k, v)),
        ],
        1..300,
    )
}

const POLICIES: [ReplacementKind; 3] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Random,
];

#[derive(Debug, Clone)]
enum MshrOp {
    Allocate(u64, u64, usize),
    InFlight(u64),
    Retire,
    Clear,
}

/// The reference MSHR file: a `Vec` retired with `retain` on every call.
struct RefMshr {
    entries: Vec<(u64, u64, ServedBy)>,
    capacity: usize,
}

impl RefMshr {
    fn retire(&mut self, now: u64) {
        self.entries.retain(|e| e.1 > now);
    }

    fn in_flight(&mut self, line: u64, now: u64) -> Option<(u64, ServedBy)> {
        self.retire(now);
        self.entries
            .iter()
            .find(|e| e.0 == line)
            .map(|e| (e.1, e.2))
    }

    fn allocate(&mut self, line: u64, now: u64, completion: u64, source: ServedBy) -> MshrOutcome {
        self.retire(now);
        if let Some(e) = self.entries.iter().find(|e| e.0 == line) {
            return MshrOutcome::Merged { completion: e.1 };
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.push((line, completion, source));
        MshrOutcome::Issued { completion }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slot_array_matches_reference_model(
        policy in 0usize..3,
        sets in 1usize..=8,
        ways in 1usize..=8,
        seed in 0u64..1_000_000,
        ops in arb_ops(),
    ) {
        let policy = POLICIES[policy];
        // Tree-PLRU needs a power-of-two associativity.
        let ways = if policy == ReplacementKind::TreePlru { 1 << (ways % 4) } else { ways };
        let mut new: SetAssoc<u64, u64> = SetAssoc::new(sets, ways, policy, seed);
        let mut old = RefSetAssoc::new(sets, ways, policy, seed);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup(s, k) => {
                    let s = s % sets;
                    prop_assert_eq!(new.lookup(s, &k).copied(), old.lookup(s, k), "step {}", step);
                }
                Op::LookupMut(s, k, d) => {
                    let s = s % sets;
                    let got = new.lookup_mut(s, &k).map(|v| {
                        let before = *v;
                        *v += d;
                        before
                    });
                    prop_assert_eq!(got, old.lookup_add(s, k, d), "step {}", step);
                }
                Op::Probe(s, k) => {
                    let s = s % sets;
                    prop_assert_eq!(new.probe(s, &k).copied(), old.probe(s, k), "step {}", step);
                }
                Op::Insert(s, k, v) => {
                    let s = s % sets;
                    prop_assert_eq!(new.insert(s, k, v), old.insert(s, k, v), "step {}", step);
                }
                Op::Invalidate(s, k) => {
                    let s = s % sets;
                    prop_assert_eq!(new.invalidate(s, &k), old.invalidate(s, k), "step {}", step);
                }
                Op::Flush => {
                    new.flush();
                    old.flush();
                }
                Op::Retain(m) => {
                    let keep = |k: u64, v: u64| (k + v) % m != 0;
                    prop_assert_eq!(new.retain(|k, v| keep(*k, *v)), old.retain(keep), "step {}", step);
                }
                Op::LookupThenFill(s, k, v) => {
                    let s = s % sets;
                    let hit = old.lookup(s, k);
                    match new.lookup_or_fill_way(s, &k) {
                        Ok(got) => prop_assert_eq!(Some(*got), hit, "step {}", step),
                        Err(at) => {
                            prop_assert_eq!(None, hit, "step {}", step);
                            prop_assert!(!at.is_resident());
                            prop_assert_eq!(new.fill_at(s, at, k, v), old.insert(s, k, v), "step {}", step);
                        }
                    }
                }
                Op::LocateThenFill(s, k, v) => {
                    let s = s % sets;
                    let at = new.locate(s, &k);
                    prop_assert_eq!(at.is_resident(), old.probe(s, k).is_some(), "step {}", step);
                    prop_assert_eq!(new.fill_at(s, at, k, v), old.insert(s, k, v), "step {}", step);
                }
            }
            let contents: Vec<(usize, u64, u64)> = new.iter().map(|(s, k, v)| (s, *k, *v)).collect();
            prop_assert_eq!(&contents, &old.contents(), "contents after step {}", step);
            prop_assert_eq!(new.len(), contents.len());
        }
    }

    #[test]
    fn mshr_file_matches_reference_model(
        capacity in 1usize..=6,
        ops in proptest::collection::vec(
            (
                0u64..60,
                prop_oneof![
                    (0u64..8, 0u64..300, 0usize..4).prop_map(|(l, lat, s)| MshrOp::Allocate(l, lat, s)),
                    (0u64..8).prop_map(MshrOp::InFlight),
                    (0u64..8).prop_map(|x| if x == 0 { MshrOp::Clear } else { MshrOp::Retire }),
                ],
            ),
            1..300,
        ),
    ) {
        let mut new = MshrFile::new(capacity);
        let mut old = RefMshr { entries: Vec::new(), capacity };
        let mut now = 0u64;
        for (step, (dt, op)) in ops.iter().enumerate() {
            now += dt;
            match *op {
                MshrOp::Allocate(l, lat, s) => {
                    let source = ServedBy::ALL[s];
                    prop_assert_eq!(
                        new.allocate(CacheLineAddr::new(l), now, now + lat, source),
                        old.allocate(l, now, now + lat, source),
                        "step {}", step
                    );
                }
                MshrOp::InFlight(l) => {
                    prop_assert_eq!(
                        new.in_flight(CacheLineAddr::new(l), now),
                        old.in_flight(l, now),
                        "step {}", step
                    );
                }
                MshrOp::Retire => {
                    new.retire(now);
                    old.retire(now);
                }
                MshrOp::Clear => {
                    new.clear();
                    old.entries.clear();
                }
            }
            prop_assert_eq!(new.occupied(), old.entries.len(), "step {}", step);
            prop_assert_eq!(new.capacity(), capacity);
        }
    }
}
