//! A generic set-associative container.
//!
//! This is the common structural core of every tagged hardware structure in
//! the simulator: data caches, L1/L2 TLBs, page-walk caches and the clustered
//! TLB all wrap [`SetAssoc`] with their own tag and payload types.

use crate::replacement::{policy_rng, PolicyState};
use crate::ReplacementKind;
use rand::rngs::SmallRng;

/// An entry evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<K, V> {
    /// The evicted tag.
    pub key: K,
    /// The evicted payload.
    pub value: V,
}

/// One way's tag and recency stamp; a stamp of 0 marks the way invalid.
#[derive(Debug, Clone, Copy, Default)]
struct Slot<K> {
    tag: K,
    stamp: u64,
}

/// Where a fill of one key into one set goes, as found by
/// [`SetAssoc::locate`] or a [`SetAssoc::lookup_or_fill_way`] miss: the
/// key's own way if it is resident, else the first free way, else the LRU
/// way. Tree-PLRU and random pick a full set's victim at fill time.
///
/// Valid only until the next operation on the structure that returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillWay(Target);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Resident(usize),
    Way(usize),
    Policy,
}

impl FillWay {
    /// Whether the located key is already resident (a fill only refreshes it).
    #[must_use]
    pub fn is_resident(self) -> bool {
        matches!(self.0, Target::Resident(_))
    }
}

/// A set-associative array mapping tags `K` to payloads `V`.
///
/// The caller chooses the set for each operation (different structures index
/// with different address bits), while `SetAssoc` owns way management,
/// replacement and eviction.
///
/// Storage is one set-major array of `{tag, stamp}` slots
/// (`slots[set * ways + w]`) plus a payload array in the same order. The
/// stamp is the structure clock at the way's last touch, so one pass over a
/// set finds the key, the first free way (stamp 0) and the LRU way (least
/// stamp) together. Tree-PLRU keeps its tree bits beside the array.
///
/// # Examples
///
/// ```
/// use asap_cache::{ReplacementKind, SetAssoc};
///
/// let mut tlb: SetAssoc<u64, &str> = SetAssoc::new(2, 2, ReplacementKind::Lru, 0);
/// tlb.insert(0, 100, "a");
/// tlb.insert(0, 200, "b");
/// assert_eq!(tlb.lookup(0, &100), Some(&"a"));
/// // Set 0 is full and 200 is now LRU; inserting evicts it.
/// let evicted = tlb.insert(0, 300, "c").unwrap();
/// assert_eq!(evicted.key, 200);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<K, V> {
    slots: Vec<Slot<K>>,
    /// Payloads in `slots` order, sized by the first fill (`V` has no
    /// default) and read only for valid ways. Costs nothing for `()`.
    values: Vec<V>,
    ways: usize,
    clock: u64,
    policy: PolicyState,
    rng: SmallRng,
}

impl<K: Eq + Copy + Default, V: Clone> SetAssoc<K, V> {
    /// Creates a structure with `num_sets` sets of `ways` ways each.
    ///
    /// `seed` makes the random replacement policy (if selected)
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero, or if tree-PLRU is requested
    /// with `ways` not a power of two up to 64.
    #[must_use]
    pub fn new(num_sets: usize, ways: usize, policy: ReplacementKind, seed: u64) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(ways > 0, "need at least one way");
        Self {
            slots: vec![Slot::default(); num_sets * ways],
            values: Vec::new(),
            ways,
            clock: 0,
            policy: PolicyState::new(policy, num_sets, ways),
            rng: policy_rng(seed),
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.slots.len() / self.ways
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Finds where a fill of `key` into `set` goes, without updating
    /// recency: one pass over the set.
    #[must_use]
    pub fn locate(&self, set: usize, key: &K) -> FillWay {
        let base = set * self.ways;
        let (mut lru, mut min) = (0, u64::MAX);
        for (w, slot) in self.slots[base..base + self.ways].iter().enumerate() {
            if slot.tag == *key && slot.stamp != 0 {
                return FillWay(Target::Resident(w));
            }
            if slot.stamp < min {
                (lru, min) = (w, slot.stamp);
            }
        }
        FillWay(if min == 0 || matches!(self.policy, PolicyState::Lru) {
            Target::Way(lru)
        } else {
            Target::Policy
        })
    }

    /// Looks up `key` in `set`, updating recency on a hit; a miss returns
    /// where a fill of `key` goes (see [`SetAssoc::fill_at`]).
    pub fn lookup_or_fill_way(&mut self, set: usize, key: &K) -> Result<&V, FillWay> {
        match self.locate(set, key) {
            FillWay(Target::Resident(w)) => {
                self.touch(set, w);
                Ok(&self.values[set * self.ways + w])
            }
            miss => Err(miss),
        }
    }

    /// Looks up `key` in `set`, updating recency on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn lookup(&mut self, set: usize, key: &K) -> Option<&V> {
        let i = self.find_and_touch(set, key)?;
        Some(&self.values[i])
    }

    /// Looks up `key` in `set` returning a mutable payload, updating recency.
    pub fn lookup_mut(&mut self, set: usize, key: &K) -> Option<&mut V> {
        let i = self.find_and_touch(set, key)?;
        Some(&mut self.values[i])
    }

    /// Checks for `key` in `set` without updating replacement state.
    #[must_use]
    pub fn probe(&self, set: usize, key: &K) -> Option<&V> {
        self.find(set, key).map(|i| &self.values[i])
    }

    /// Inserts `key -> value` into `set`, returning any eviction.
    ///
    /// If `key` is already present its payload is replaced (no eviction is
    /// reported) and its recency refreshed.
    pub fn insert(&mut self, set: usize, key: K, value: V) -> Option<Eviction<K, V>> {
        let at = self.locate(set, &key);
        self.fill_at(set, at, key, value)
    }

    /// Inserts `key -> value` into `set` at the way `at` that a
    /// [`SetAssoc::locate`] or [`SetAssoc::lookup_or_fill_way`] of the same
    /// key and set returned, with no operation on this structure since.
    /// Behaves exactly as [`SetAssoc::insert`] without rescanning the set.
    pub fn fill_at(&mut self, set: usize, at: FillWay, key: K, value: V) -> Option<Eviction<K, V>> {
        let w = match at.0 {
            Target::Resident(w) | Target::Way(w) => w,
            Target::Policy => match self.policy.victim(set, self.ways, &mut self.rng) {
                Some(w) => w,
                None => return self.insert(set, key, value),
            },
        };
        if self.values.is_empty() {
            self.values = vec![value.clone(); self.slots.len()];
        }
        let i = set * self.ways + w;
        let old = self.slots[i];
        self.slots[i].tag = key;
        self.touch(set, w);
        let old_value = std::mem::replace(&mut self.values[i], value);
        (old.stamp != 0 && old.tag != key).then_some(Eviction {
            key: old.tag,
            value: old_value,
        })
    }

    /// Removes `key` from `set`, returning its payload if present.
    pub fn invalidate(&mut self, set: usize, key: &K) -> Option<V> {
        let i = self.find(set, key)?;
        self.slots[i].stamp = 0;
        Some(self.values[i].clone())
    }

    /// Clears every entry.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.stamp = 0;
        }
    }

    /// Number of valid entries across all sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.stamp != 0).count()
    }

    /// Whether the structure holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(set, key, value)` for all valid entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &K, &V)> {
        let ways = self.ways;
        self.slots
            .iter()
            .zip(&self.values)
            .enumerate()
            .filter(|(_, (slot, _))| slot.stamp != 0)
            .map(move |(i, (slot, value))| (i / ways, &slot.tag, value))
    }

    /// Removes all entries failing `keep`, returning how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        for (slot, value) in self.slots.iter_mut().zip(&self.values) {
            if slot.stamp != 0 && !keep(&slot.tag, value) {
                slot.stamp = 0;
                dropped += 1;
            }
        }
        dropped
    }

    /// The slot index of `key` in `set`: a tag-only scan for the paths
    /// that need no fill way.
    fn find(&self, set: usize, key: &K) -> Option<usize> {
        let base = set * self.ways;
        let w = self.slots[base..base + self.ways]
            .iter()
            .position(|slot| slot.tag == *key && slot.stamp != 0)?;
        Some(base + w)
    }

    /// [`SetAssoc::find`], touching the way found.
    fn find_and_touch(&mut self, set: usize, key: &K) -> Option<usize> {
        let i = self.find(set, key)?;
        self.touch(set, i - set * self.ways);
        Some(i)
    }

    /// Records a use of way `w` in `set`: the clock is bumped first, so a
    /// valid way's stamp is always at least 1.
    fn touch(&mut self, set: usize, w: usize) {
        self.clock += 1;
        self.slots[set * self.ways + w].stamp = self.clock;
        self.policy.touch(set, self.ways, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssoc<u64, u64> {
        SetAssoc::new(4, 2, ReplacementKind::Lru, 42)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = small();
        assert!(c.is_empty());
        assert_eq!(c.insert(1, 10, 100), None);
        assert_eq!(c.lookup(1, &10), Some(&100));
        assert_eq!(c.lookup(1, &11), None);
        assert_eq!(c.lookup(0, &10), None, "keys are per-set");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_on_full_set() {
        let mut c = small();
        c.insert(2, 1, 1);
        c.insert(2, 2, 2);
        c.lookup(2, &1); // make key 2 the LRU
        let ev = c.insert(2, 3, 3).expect("must evict");
        assert_eq!(ev.key, 2);
        assert_eq!(ev.value, 2);
        assert!(c.probe(2, &1).is_some());
        assert!(c.probe(2, &3).is_some());
    }

    #[test]
    fn reinsert_same_key_updates_value_without_eviction() {
        let mut c = small();
        c.insert(0, 7, 70);
        c.insert(0, 8, 80);
        assert_eq!(c.insert(0, 7, 71), None);
        assert_eq!(c.probe(0, &7), Some(&71));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.insert(0, 1, 1);
        c.insert(0, 2, 2);
        // Probing key 1 must NOT refresh it...
        assert_eq!(c.probe(0, &1), Some(&1));
        // ...so it is still the LRU victim.
        let ev = c.insert(0, 3, 3).unwrap();
        assert_eq!(ev.key, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small();
        c.insert(0, 1, 10);
        c.insert(1, 2, 20);
        assert_eq!(c.invalidate(0, &1), Some(10));
        assert_eq!(c.invalidate(0, &1), None);
        assert_eq!(c.len(), 1);
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    fn lookup_mut_mutates() {
        let mut c = small();
        c.insert(3, 9, 90);
        *c.lookup_mut(3, &9).unwrap() += 1;
        assert_eq!(c.probe(3, &9), Some(&91));
    }

    #[test]
    fn retain_filters() {
        let mut c = small();
        for k in 0..8u64 {
            c.insert((k % 4) as usize, k, k);
        }
        let dropped = c.retain(|k, _| k % 2 == 0);
        assert_eq!(dropped + c.len(), 8);
        assert!(c.iter().all(|(_, k, _)| k % 2 == 0));
    }

    #[test]
    fn capacity_accessors() {
        let c = small();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn sets_are_independent_in_flat_layout() {
        // Fill two adjacent sets and verify each set's LRU decisions ignore
        // the other's state (guards the set-major slot/stamp indexing).
        let mut c = small();
        c.insert(0, 1, 1);
        c.insert(1, 2, 2);
        c.insert(0, 3, 3);
        c.insert(1, 4, 4);
        c.lookup(0, &1); // refresh set 0's key 1; set 1 untouched
        let ev0 = c.insert(0, 5, 5).unwrap();
        assert_eq!(ev0.key, 3);
        let ev1 = c.insert(1, 6, 6).unwrap();
        assert_eq!(ev1.key, 2, "set 1 LRU order unaffected by set 0 traffic");
    }
}
