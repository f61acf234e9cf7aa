//! The three-level cache hierarchy plus DRAM.

use crate::{Cache, FillWay, HierarchyConfig, HierarchyStats, MshrFile, MshrOutcome, NumaConfig};
use asap_types::CacheLineAddr;

/// The hierarchy level that ultimately served an access — the per-request
/// attribution behind the paper's Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Served from the unified L2.
    L2,
    /// Served from the shared last-level cache.
    L3,
    /// Served from DRAM.
    Memory,
}

impl ServedBy {
    /// All variants, fastest first.
    pub const ALL: [ServedBy; 4] = [ServedBy::L1, ServedBy::L2, ServedBy::L3, ServedBy::Memory];
}

impl core::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServedBy::L1 => f.write_str("L1"),
            ServedBy::L2 => f.write_str("L2"),
            ServedBy::L3 => f.write_str("LLC"),
            ServedBy::Memory => f.write_str("Mem"),
        }
    }
}

/// The outcome of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles from issue to data return.
    pub latency: u64,
    /// Level that served the request.
    pub served_by: ServedBy,
    /// Whether the request merged with an in-flight prefetch MSHR; when
    /// true, `latency` is the *residual* wait, not a full fetch.
    pub merged: bool,
}

/// The NUMA topology of a hierarchy: the physical windows with their home
/// nodes, kept sorted and disjoint for binary search.
#[derive(Debug, Clone)]
struct NumaState {
    config: NumaConfig,
    /// `(start_line, end_line, home_node)`, sorted by start.
    windows: Vec<(u64, u64, usize)>,
}

impl NumaState {
    /// The home node of `line`, if it falls inside a registered window.
    fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        let addr = line.raw();
        let idx = self
            .windows
            .partition_point(|&(start, _, _)| start <= addr)
            .checked_sub(1)?;
        let (_, end, node) = self.windows[idx];
        (addr < end).then_some(node)
    }
}

/// A three-level cache hierarchy with DRAM backing, an L1-D MSHR file for
/// in-flight ASAP prefetches and an optional NUMA topology — the one memory
/// system of a simulated machine, shared by its cores through
/// [`SharedFabric`](crate::SharedFabric) handles.
///
/// Timing model: a hit at level *n* costs that level's configured total
/// latency (Table 5 latencies are load-to-use, not incremental); a full miss
/// costs the memory latency, plus the interconnect hop when the line is
/// homed on another NUMA node. Fills install the line in every level (the
/// paper routes ASAP prefetches "into the L1-D", and walker/demand misses
/// likewise allocate up the hierarchy).
///
/// Requests are explicitly timed ([`CacheHierarchy::access_at`]);
/// [`CacheHierarchy::access`] is the single-requester shorthand that keeps
/// a private clock and serializes its accesses.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    memory_latency: u64,
    mshrs: MshrFile,
    /// `None` until [`CacheHierarchy::configure_numa`] — the uniform-memory
    /// fast path.
    numa: Option<NumaState>,
    stats: HierarchyStats,
    /// The clock of [`CacheHierarchy::access`].
    now: u64,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy from `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        let seed = config.seed;
        Self {
            l1: Cache::new(config.l1, seed ^ 1),
            l2: Cache::new(config.l2, seed ^ 2),
            l3: Cache::new(config.l3, seed ^ 3),
            memory_latency: config.memory_latency,
            mshrs: MshrFile::new(config.mshr_entries),
            numa: None,
            stats: HierarchyStats::default(),
            now: 0,
        }
    }

    /// Spreads DRAM over `config.nodes` memory nodes and registers the
    /// physical windows `(start_line, lines)` on them round-robin: window k
    /// is homed on node `k % config.nodes`. Models default
    /// first-touch-free page placement at datacenter scale: allocation
    /// classes spread across sockets, so every core ends up with a
    /// deterministic mix of local and remote windows.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes — a one-node "topology" is uniform
    /// memory and must stay on the unconfigured fast path — or when two
    /// windows overlap.
    pub fn configure_numa(
        &mut self,
        config: NumaConfig,
        windows: impl IntoIterator<Item = (CacheLineAddr, u64)>,
    ) {
        assert!(config.nodes >= 2, "a NUMA topology needs at least 2 nodes");
        let mut homed: Vec<(u64, u64, usize)> = windows
            .into_iter()
            .enumerate()
            .map(|(k, (start, lines))| (start.raw(), start.raw() + lines, k % config.nodes))
            .collect();
        homed.sort_unstable();
        assert!(
            homed.windows(2).all(|w| w[0].1 <= w[1].0),
            "NUMA windows must be disjoint"
        );
        self.numa = Some(NumaState {
            config,
            windows: homed,
        });
    }

    /// The home node of `line`, when NUMA is configured and the line falls
    /// in a registered window.
    #[must_use]
    pub fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        self.numa.as_ref().and_then(|n| n.home_node(line))
    }

    /// Demand access from node 0 at the internal clock; the clock then
    /// advances past the access (serialized execution, which is how a page
    /// walk behaves).
    pub fn access(&mut self, line: CacheLineAddr) -> AccessResult {
        let result = self.access_at(line, self.now, 0);
        self.now += result.latency;
        result
    }

    /// Demand access issued at cycle `now` by a core on `node` (does not
    /// move the internal clock). When the line is served by DRAM and homed
    /// on a different node, the interconnect hop is added to the latency;
    /// merged accesses ride the fill already in flight and pay nothing
    /// extra.
    // asap-lint: hot-path
    pub fn access_at(&mut self, line: CacheLineAddr, now: u64, node: usize) -> AccessResult {
        // An in-flight prefetch to the same line absorbs the demand miss.
        if let Some((completion, source)) = self.mshrs.in_flight(line, now) {
            self.stats.mshr_merges += 1;
            let latency = completion.saturating_sub(now).max(self.l1.latency());
            return AccessResult {
                latency,
                served_by: source,
                merged: true,
            };
        }
        let (latency, served_by) = self.lookup_and_fill(line, node);
        AccessResult {
            latency,
            served_by,
            merged: false,
        }
    }

    /// Issues a best-effort prefetch for `line` at cycle `now`.
    ///
    /// Returns the completion cycle, or `None` if the prefetch was dropped
    /// because no MSHR was available. A prefetch to a line already resident
    /// in L1 is a no-op completing immediately; a prefetch to a line already
    /// in flight merges with the existing entry. The reported completion
    /// never includes an interconnect hop: a prefetch that lands hides the
    /// remote latency entirely (that is the point of prefetching); a demand
    /// access that misses it still pays the hop through
    /// [`CacheHierarchy::access_at`].
    pub fn prefetch_at(&mut self, line: CacheLineAddr, now: u64) -> Option<u64> {
        // In-flight entries are checked before residency: fills are installed
        // optimistically at issue time, so an in-flight line already appears
        // in L1 even though its data has not arrived yet.
        if let Some((completion, _)) = self.mshrs.in_flight(line, now) {
            return Some(completion);
        }
        let l1 = self.l1.locate(line);
        if l1.is_resident() {
            return Some(now);
        }
        // Determine where the line would come from, then move it into L1
        // (and the outer levels) with an MSHR covering the flight time.
        let ways = [l1, self.l2.locate(line), self.l3.locate(line)];
        let (latency, served_by) = self.source(ways.map(FillWay::is_resident));
        match self.mshrs.allocate(line, now, now + latency, served_by) {
            MshrOutcome::Issued { completion } | MshrOutcome::Merged { completion } => {
                self.fill_all(line, ways);
                self.stats.prefetch_fills += 1;
                Some(completion)
            }
            MshrOutcome::Full => {
                self.stats.prefetches_dropped += 1;
                None
            }
        }
    }

    /// The latency and level of the first level marked resident.
    fn source(&self, resident: [bool; 3]) -> (u64, ServedBy) {
        match resident {
            [true, ..] => (self.l1.latency(), ServedBy::L1),
            [_, true, _] => (self.l2.latency(), ServedBy::L2),
            [.., true] => (self.l3.latency(), ServedBy::L3),
            _ => (self.memory_latency, ServedBy::Memory),
        }
    }

    /// Looks `line` up level by level and, on a miss, fills each missed
    /// level at the way its lookup found.
    fn lookup_and_fill(&mut self, line: CacheLineAddr, node: usize) -> (u64, ServedBy) {
        let Err(l1) = self.l1.lookup(line) else {
            self.stats.levels[0].record(true);
            return (self.l1.latency(), ServedBy::L1);
        };
        self.stats.levels[0].record(false);
        let Err(l2) = self.l2.lookup(line) else {
            self.stats.levels[1].record(true);
            self.fill(0, line, l1);
            return (self.l2.latency(), ServedBy::L2);
        };
        self.stats.levels[1].record(false);
        let Err(l3) = self.l3.lookup(line) else {
            self.stats.levels[2].record(true);
            self.fill(0, line, l1);
            self.fill(1, line, l2);
            return (self.l3.latency(), ServedBy::L3);
        };
        self.stats.levels[2].record(false);
        self.stats.memory_accesses += 1;
        self.fill_all(line, [l1, l2, l3]);
        (
            self.memory_latency + self.numa_hop(line, node),
            ServedBy::Memory,
        )
    }

    /// The interconnect hop a DRAM serve of `line` to `node` pays, counting
    /// the serve as local or remote when the line is homed.
    fn numa_hop(&mut self, line: CacheLineAddr, node: usize) -> u64 {
        let Some(numa) = &self.numa else {
            return 0;
        };
        match numa.home_node(line) {
            Some(home) if home == node => {
                self.stats.numa.local_dram += 1;
                0
            }
            Some(_) => {
                self.stats.numa.remote_dram += 1;
                numa.config.hop_cycles
            }
            None => 0,
        }
    }

    fn fill_all(&mut self, line: CacheLineAddr, ways: [FillWay; 3]) {
        for (level, at) in ways.into_iter().enumerate() {
            self.fill(level, line, at);
        }
    }

    /// Installs `line` into `level` (0 = L1) at the way `at` a lookup or
    /// locate of it returned, counting the fill and any eviction.
    fn fill(&mut self, level: usize, line: CacheLineAddr, at: FillWay) {
        let cache = match level {
            0 => &mut self.l1,
            1 => &mut self.l2,
            _ => &mut self.l3,
        };
        let stats = &mut self.stats.levels[level];
        stats.fills += 1;
        if cache.fill_at(line, at).is_some() {
            stats.evictions += 1;
        }
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.l2.latency()
    }

    /// Installs `line` into the L2 **only** — the insertion path of a
    /// Victima-style backend, which parks evicted TLB entries as TLB blocks
    /// in the L2 without polluting the L1 or LLC. The block then competes
    /// for L2 ways with ordinary data, so cache pressure naturally evicts
    /// stale translations.
    pub fn l2_install(&mut self, line: CacheLineAddr) {
        let at = self.l2.locate(line);
        self.fill(1, line, at);
    }

    /// Probes the L2 for `line`, updating recency on a hit (a real lookup,
    /// as a TLB-block probe performs). Does not fill other levels and does
    /// not touch the hierarchy-level hit/miss statistics — block probes are
    /// accounted by the backend that issues them.
    pub fn l2_lookup(&mut self, line: CacheLineAddr) -> bool {
        self.l2.access(line)
    }

    /// Whether the L2 currently holds `line` (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.l2.contains(line)
    }

    /// DRAM latency.
    #[must_use]
    pub fn memory_latency(&self) -> u64 {
        self.memory_latency
    }

    /// Accumulated statistics, machine-wide across all cores.
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny_for_tests())
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x99);
        let r = h.access(line);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.latency, 191);
        let r2 = h.access(line);
        assert_eq!(r2.served_by, ServedBy::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = tiny();
        let line = CacheLineAddr::new(1);
        h.access(line);
        // Thrash L1 (64 lines, 16 sets x 4 ways in tiny config) with lines
        // that conflict on the same set as `line`.
        for i in 1..=8u64 {
            h.access(CacheLineAddr::new(1 + i * 16));
        }
        let r = h.access(line);
        assert_eq!(r.served_by, ServedBy::L2);
        assert_eq!(r.latency, 12);
    }

    #[test]
    fn prefetch_then_demand_is_l1_hit_after_completion() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x40);
        let completion = h.prefetch_at(line, 0).expect("mshr available");
        assert_eq!(completion, 191);
        // Demand access after completion: plain L1 hit.
        let r = h.access_at(line, 200, 0);
        assert_eq!(r.served_by, ServedBy::L1);
        assert_eq!(r.latency, 4);
        assert!(!r.merged);
    }

    #[test]
    fn demand_merges_with_inflight_prefetch() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x41);
        let completion = h.prefetch_at(line, 0).unwrap();
        // Walker arrives at cycle 100 < 191: waits only the residual.
        let r = h.access_at(line, 100, 0);
        assert!(r.merged);
        assert_eq!(r.latency, completion - 100);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(h.stats().mshr_merges, 1);
    }

    #[test]
    fn merge_latency_floor_is_l1_hit() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x42);
        let completion = h.prefetch_at(line, 0).unwrap();
        // Demand lands 1 cycle before completion: cannot beat an L1 hit.
        let r = h.access_at(line, completion - 1, 0);
        assert!(r.merged);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn prefetch_to_resident_line_is_free() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x43);
        h.access(line); // now resident
        let now = 1_000;
        assert_eq!(h.prefetch_at(line, now), Some(now));
        assert_eq!(h.stats().prefetch_fills, 0);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let mut cfg = HierarchyConfig::tiny_for_tests();
        cfg.mshr_entries = 2;
        let mut h = CacheHierarchy::new(cfg);
        assert!(h.prefetch_at(CacheLineAddr::new(1), 0).is_some());
        assert!(h.prefetch_at(CacheLineAddr::new(2), 0).is_some());
        assert!(h.prefetch_at(CacheLineAddr::new(3), 0).is_none());
        assert_eq!(h.stats().prefetches_dropped, 1);
        // After the first two complete, capacity frees up.
        assert!(h.prefetch_at(CacheLineAddr::new(3), 200).is_some());
    }

    #[test]
    fn duplicate_prefetch_merges() {
        let mut h = tiny();
        let line = CacheLineAddr::new(9);
        let c1 = h.prefetch_at(line, 0).unwrap();
        let c2 = h.prefetch_at(line, 10).unwrap();
        assert_eq!(c1, c2, "second prefetch rides the first");
    }

    #[test]
    fn internal_clock_advances_with_access() {
        let mut h = tiny();
        // A DRAM miss then an L1 hit: the private clock ends at 191 + 4.
        assert_eq!(h.access(CacheLineAddr::new(1)).latency, 191);
        assert_eq!(h.access(CacheLineAddr::new(1)).latency, 4);
        // A prefetch issued at that cycle completes 191 cycles later, so a
        // demand access at the private clock waits the whole flight...
        let line = CacheLineAddr::new(2);
        assert_eq!(h.prefetch_at(line, 195), Some(195 + 191));
        let r = h.access(line);
        assert!(r.merged);
        assert_eq!(r.latency, 191);
        // ...which moves the clock to the completion: the next access hits.
        let r = h.access(line);
        assert!(!r.merged);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn fills_and_evictions_are_counted_per_level() {
        let mut h = tiny();
        // Nine lines on one L1 set (16 sets x 4 ways): every level fills
        // each of them, and the L1 set evicts all but its last four.
        for i in 0..9u64 {
            h.access(CacheLineAddr::new(1 + i * 16));
        }
        let levels = h.stats().levels;
        assert_eq!(levels.map(|l| l.fills), [9, 9, 9]);
        assert_eq!(levels.map(|l| l.evictions), [5, 0, 0]);
        // An L2-only install is one more L2 fill and nothing else.
        h.l2_install(CacheLineAddr::new(1 << 62));
        let after = h.stats().levels;
        assert_eq!(after.map(|l| l.fills), [9, 10, 9]);
        assert_eq!(after.map(|l| l.evictions), [5, 0, 0]);
        assert_eq!(after[1].accesses(), levels[1].accesses());
    }
}
