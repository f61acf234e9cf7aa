//! A single physical-line cache level.

use crate::{CacheConfig, CacheStats, Eviction, FillWay, SetAssoc};
use asap_types::CacheLineAddr;

/// One level of the cache hierarchy, indexed by physical cache-line address.
///
/// The model tracks tags only — the simulator never needs line *data*, since
/// page-table contents live in `asap-pt`'s simulated physical memory and the
/// hierarchy only decides service latency.
///
/// # Examples
///
/// ```
/// use asap_cache::{Cache, CacheConfig};
/// use asap_types::CacheLineAddr;
///
/// let mut l1 = Cache::new(CacheConfig::from_capacity("L1-D", 4096, 4, 4), 0);
/// let line = CacheLineAddr::new(123);
/// assert!(!l1.access(line));
/// l1.fill(line);
/// assert!(l1.access(line));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    array: SetAssoc<CacheLineAddr, ()>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        let array = SetAssoc::new(config.num_sets, config.ways, config.replacement, seed);
        Self {
            config,
            array,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: CacheLineAddr) -> usize {
        (line.raw() as usize) & (self.config.num_sets - 1)
    }

    /// Performs a demand lookup; returns whether it hit. Misses do **not**
    /// allocate — the hierarchy decides where fills go.
    pub fn access(&mut self, line: CacheLineAddr) -> bool {
        self.lookup(line).is_ok()
    }

    /// [`Cache::access`] that on a miss returns where a fill of `line`
    /// goes, for [`Cache::fill_at`].
    pub(crate) fn lookup(&mut self, line: CacheLineAddr) -> Result<(), FillWay> {
        let set = self.set_of(line);
        let found = self.array.lookup_or_fill_way(set, &line).map(|_| ());
        self.stats.record(found.is_ok());
        found
    }

    /// Where a fill of `line` goes, without disturbing replacement state or
    /// stats.
    #[must_use]
    pub(crate) fn locate(&self, line: CacheLineAddr) -> FillWay {
        self.array.locate(self.set_of(line), &line)
    }

    /// Checks residency without disturbing replacement state or stats.
    #[must_use]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        self.locate(line).is_resident()
    }

    /// Installs a line, returning the evicted line if any.
    pub fn fill(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        self.fill_at(line, self.locate(line))
    }

    /// Installs a line at the way a [`Cache::lookup`] or [`Cache::locate`]
    /// of it returned, with no operation on this cache since.
    pub(crate) fn fill_at(&mut self, line: CacheLineAddr, at: FillWay) -> Option<CacheLineAddr> {
        let set = self.set_of(line);
        self.stats.fills += 1;
        self.array
            .fill_at(set, at, line, ())
            .map(|Eviction { key, .. }| {
                self.stats.evictions += 1;
                key
            })
    }

    /// Removes a line if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> bool {
        let set = self.set_of(line);
        self.array.invalidate(set, &line).is_some()
    }

    /// Empties the cache (stats are preserved).
    pub fn flush(&mut self) {
        self.array.flush();
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(
            CacheConfig {
                name: "t",
                num_sets: 2,
                ways: 2,
                latency: 4,
                replacement: crate::ReplacementKind::Lru,
            },
            0,
        )
    }

    #[test]
    fn miss_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.access(CacheLineAddr::new(0)));
        assert!(!c.access(CacheLineAddr::new(0)), "still absent after miss");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        let line = CacheLineAddr::new(5);
        c.fill(line);
        assert!(c.access(line));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        assert_eq!(c.fill(CacheLineAddr::new(0)), None);
        assert_eq!(c.fill(CacheLineAddr::new(2)), None);
        let evicted = c.fill(CacheLineAddr::new(4)).expect("set full");
        assert_eq!(evicted, CacheLineAddr::new(0));
        assert!(c.contains(CacheLineAddr::new(2)));
        assert!(c.contains(CacheLineAddr::new(4)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.fill(CacheLineAddr::new(0)); // set 0
        c.fill(CacheLineAddr::new(1)); // set 1
        c.fill(CacheLineAddr::new(2)); // set 0
        c.fill(CacheLineAddr::new(3)); // set 1
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        let line = CacheLineAddr::new(9);
        c.fill(line);
        assert!(c.invalidate(line));
        assert!(!c.invalidate(line));
        c.fill(line);
        c.flush();
        assert!(c.is_empty());
    }
}
