//! Cache statistics counters.

use asap_telemetry::{Collect, MetricSet};

/// Hit/miss/fill counters for a single cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
}

impl CacheStats {
    pub(crate) fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total demand lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; zero when no accesses were made.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// DRAM-service counters split by locality (managed windows only; lines
/// outside every registered window — e.g. the legacy co-runner stream or
/// Victima's synthetic block lines — are treated as node-local). Both stay
/// zero until NUMA is configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// DRAM serves whose home node matched the requester's.
    pub local_dram: u64,
    /// DRAM serves that paid the interconnect hop.
    pub remote_dram: u64,
}

/// Statistics for the whole hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-level stats: L1, L2, L3. Hits and misses count demand lookups
    /// only; fills and evictions count every install, including prefetch
    /// fills and L2-only TLB-block installs.
    pub levels: [CacheStats; 3],
    /// Accesses ultimately served by DRAM.
    pub memory_accesses: u64,
    /// Prefetch fills requested.
    pub prefetch_fills: u64,
    /// Prefetches dropped for lack of a free MSHR (§3.4: best-effort).
    pub prefetches_dropped: u64,
    /// Demand accesses that merged with an in-flight prefetch MSHR.
    pub mshr_merges: u64,
    /// DRAM locality counters.
    pub numa: NumaStats,
}

impl Collect for CacheStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.counter(
            format!("{prefix}hits_total"),
            "demand lookups that hit",
            self.hits,
        );
        out.counter(
            format!("{prefix}misses_total"),
            "demand lookups that missed",
            self.misses,
        );
        out.counter(
            format!("{prefix}fills_total"),
            "lines installed",
            self.fills,
        );
        out.counter(
            format!("{prefix}evictions_total"),
            "lines evicted by fills",
            self.evictions,
        );
    }
}

impl Collect for NumaStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.counter(
            format!("{prefix}local_dram_total"),
            "DRAM serves whose home node matched the requester's",
            self.local_dram,
        );
        out.counter(
            format!("{prefix}remote_dram_total"),
            "DRAM serves that paid the interconnect hop",
            self.remote_dram,
        );
    }
}

impl Collect for HierarchyStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        for (stats, level) in self.levels.iter().zip(["l1", "l2", "l3"]) {
            stats.collect(&format!("{prefix}{level}_"), out);
        }
        out.counter(
            format!("{prefix}memory_accesses_total"),
            "accesses ultimately served by DRAM",
            self.memory_accesses,
        );
        out.counter(
            format!("{prefix}prefetch_fills_total"),
            "prefetch fills requested",
            self.prefetch_fills,
        );
        out.counter(
            format!("{prefix}prefetches_dropped_total"),
            "prefetches dropped for lack of a free MSHR",
            self.prefetches_dropped,
        );
        out.counter(
            format!("{prefix}mshr_merges_total"),
            "demand accesses merged with an in-flight prefetch MSHR",
            self.mshr_merges,
        );
        self.numa.collect(&format!("{prefix}numa_"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s.accesses(), 3);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
