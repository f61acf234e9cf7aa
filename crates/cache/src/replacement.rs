//! Replacement policies for set-associative structures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The replacement policy used by a set-associative structure.
///
/// LRU is the paper's implicit default for caches and TLBs; tree-PLRU and
/// random are provided for the replacement-policy ablation documented in
/// DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used via per-way recency stamps.
    #[default]
    Lru,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
    /// Uniform random victim selection (deterministically seeded).
    Random,
}

impl core::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("LRU"),
            ReplacementKind::TreePlru => f.write_str("tree-PLRU"),
            ReplacementKind::Random => f.write_str("random"),
        }
    }
}

/// Replacement state beyond the recency stamps `SetAssoc` keeps in its
/// slots: one word of tree bits per set for tree-PLRU, nothing for LRU (its
/// victim is the least stamp, found by the lookup's own pass) or random.
#[derive(Debug, Clone)]
pub(crate) enum PolicyState {
    Lru,
    TreePlru { bits: Vec<u64> },
    Random,
}

impl PolicyState {
    pub(crate) fn new(kind: ReplacementKind, num_sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => PolicyState::Lru,
            ReplacementKind::TreePlru => {
                // The tree of a set lives in one u64: nodes 1..ways.
                assert!(
                    ways.is_power_of_two() && ways <= 64,
                    "tree-PLRU requires power-of-two associativity up to 64, got {ways}"
                );
                PolicyState::TreePlru {
                    bits: vec![0; num_sets],
                }
            }
            ReplacementKind::Random => PolicyState::Random,
        }
    }

    /// Records a use of `way` in `set`.
    pub(crate) fn touch(&mut self, set: usize, ways: usize, way: usize) {
        if let PolicyState::TreePlru { bits } = self {
            // Walk from the root, flipping each internal node away from
            // the touched way.
            let bits = &mut bits[set];
            let mut node = 1usize;
            let levels = ways.trailing_zeros();
            for level in (0..levels).rev() {
                let bit = (way >> level) & 1;
                if bit == 0 {
                    *bits |= 1 << node; // point away: towards right
                } else {
                    *bits &= !(1 << node); // point towards left
                }
                node = node * 2 + bit;
            }
        }
    }

    /// Chooses a victim way in a full `set` among `ways` candidates; `None`
    /// for LRU, whose victim the set scan already found.
    pub(crate) fn victim(&self, set: usize, ways: usize, rng: &mut SmallRng) -> Option<usize> {
        match self {
            PolicyState::Lru => None,
            PolicyState::TreePlru { bits } => {
                let bits = bits[set];
                let mut node = 1usize;
                let levels = ways.trailing_zeros();
                let mut way = 0usize;
                for _ in 0..levels {
                    let dir = ((bits >> node) & 1) as usize;
                    way = way * 2 + dir;
                    node = node * 2 + dir;
                }
                Some(way)
            }
            PolicyState::Random => Some(rng.gen_range(0..ways)),
        }
    }
}

/// A deterministic RNG for replacement decisions; seeded per structure so
/// simulations are exactly reproducible.
pub(crate) fn policy_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssoc;

    #[test]
    fn lru_picks_least_recent() {
        let mut c: SetAssoc<u64, ()> = SetAssoc::new(2, 4, ReplacementKind::Lru, 0);
        // Way w of set 1 holds key w; use the ways in the order 1, 0, 3, 2.
        for key in 0..4 {
            c.insert(1, key, ());
        }
        for key in [1, 0, 3, 2] {
            c.lookup(1, &key);
        }
        assert_eq!(c.insert(1, 10, ()).map(|e| e.key), Some(1));
        // Key 10 now holds way 1 as its most recent use, so way 0 goes next.
        assert_eq!(c.insert(1, 11, ()).map(|e| e.key), Some(0));
        // The untouched set 0 is independent: it still has free ways.
        assert_eq!(c.insert(0, 20, ()), None);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn tree_plru_avoids_recent() {
        let mut p = PolicyState::new(ReplacementKind::TreePlru, 1, 4);
        let mut rng = policy_rng(0);
        // After touching way 0, the victim must not be way 0.
        p.touch(0, 4, 0);
        assert_ne!(p.victim(0, 4, &mut rng), Some(0));
        // Touch everything; victim is still a valid way.
        for w in 0..4 {
            p.touch(0, 4, w);
        }
        assert!(p.victim(0, 4, &mut rng).is_some_and(|w| w < 4));
    }

    #[test]
    fn tree_plru_cycles_through_all_ways() {
        // Repeatedly touching the current victim must visit every way.
        let mut p = PolicyState::new(ReplacementKind::TreePlru, 1, 8);
        let mut rng = policy_rng(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = p.victim(0, 8, &mut rng).unwrap();
            seen.insert(v);
            p.touch(0, 8, v);
        }
        assert_eq!(seen.len(), 8, "PLRU failed to cycle: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_non_power_of_two() {
        let _ = PolicyState::new(ReplacementKind::TreePlru, 1, 6);
    }

    #[test]
    #[should_panic(expected = "up to 64")]
    fn tree_plru_rejects_more_than_64_ways() {
        // One u64 of tree bits per set: 128 ways would shift by 127.
        let _ = PolicyState::new(ReplacementKind::TreePlru, 1, 128);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = PolicyState::new(ReplacementKind::Random, 1, 8);
        let seq1: Vec<_> = {
            let mut rng = policy_rng(7);
            (0..16).map(|_| p.victim(0, 8, &mut rng)).collect()
        };
        let seq2: Vec<_> = {
            let mut rng = policy_rng(7);
            (0..16).map(|_| p.victim(0, 8, &mut rng)).collect()
        };
        assert_eq!(seq1, seq2);
        assert!(seq1.iter().all(|w| w.is_some_and(|w| w < 8)));
    }

    #[test]
    fn kind_display() {
        assert_eq!(ReplacementKind::Lru.to_string(), "LRU");
        assert_eq!(ReplacementKind::TreePlru.to_string(), "tree-PLRU");
        assert_eq!(ReplacementKind::Random.to_string(), "random");
    }
}
