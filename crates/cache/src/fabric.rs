//! The shared memory system of a (possibly multi-core) simulated machine.
//!
//! There is one memory-system type, [`CacheHierarchy`]: caches, DRAM, the
//! MSHR file, any synthetic lines a backend installs (e.g. Victima TLB
//! blocks) and the optional NUMA topology. Its demand entry point
//! [`CacheHierarchy::access_at`] is **explicitly timed** — every request
//! carries the issuing core's local cycle count and node — so N cores,
//! each with its own notion of time, can contend for it.
//!
//! [`SharedFabric`] is the handle cores actually hold: a cheaply clonable
//! reference (`Rc<RefCell<_>>`) to one hierarchy plus the requester's
//! node. A run is simulated on a single host thread with deterministic
//! core arbitration, so the shared mutable state needs no locking — the
//! interior mutability only expresses that N per-core engines reference
//! one memory system.
//!
//! The hierarchy can further be split into **NUMA nodes**
//! ([`CacheHierarchy::configure_numa`]): physical windows are homed on the
//! nodes round-robin, each core's handle carries its node
//! ([`SharedFabric::for_node`]), and a DRAM-served access whose home
//! differs from the requester's pays an interconnect hop on top of the
//! memory latency. Unconfigured (the default), nothing changes — the
//! uniform-memory timing is bit-identical to a machine without NUMA.
//!
//! # Examples
//!
//! ```
//! use asap_cache::{HierarchyConfig, ServedBy, SharedFabric};
//! use asap_types::CacheLineAddr;
//!
//! let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
//! let core0 = fabric.clone(); // a second core's handle to the SAME caches
//! let line = CacheLineAddr::new(0x40);
//! assert_eq!(fabric.access_at(line, 0).served_by, ServedBy::Memory);
//! // Core 0 finds the line core 1's miss just filled.
//! assert_eq!(core0.access_at(line, 500).served_by, ServedBy::L1);
//! assert_eq!(fabric.ports(), 2);
//! // Everything else goes through the hierarchy itself.
//! assert_eq!(fabric.borrow().stats().memory_accesses, 1);
//! ```

use crate::{AccessResult, CacheHierarchy, HierarchyConfig};
use asap_types::CacheLineAddr;
use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// Interconnect-hop latency in cycles a DRAM access pays when the line's
/// home node differs from the requesting core's: remote DRAM at
/// `191 + 120 = 311` cycles against 191 local, the ~1.6× remote/local
/// ratio of a two-socket machine.
pub const NUMA_HOP_CYCLES: u64 = 120;

/// NUMA topology parameters for a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaConfig {
    /// Number of memory nodes (>= 2; a single node is simply uniform
    /// memory, i.e. no topology at all).
    pub nodes: usize,
    /// Extra cycles a DRAM-served access pays when the line's home node
    /// differs from the requester's.
    pub hop_cycles: u64,
}

impl NumaConfig {
    /// A symmetric topology of `nodes` nodes at the default hop latency.
    #[must_use]
    pub fn symmetric(nodes: usize) -> Self {
        Self {
            nodes,
            hop_cycles: NUMA_HOP_CYCLES,
        }
    }
}

/// A core's handle to the one [`CacheHierarchy`] of its machine.
///
/// Clone one handle per core; all clones reference the same caches. The
/// handle is single-threaded by design (`Rc`): a simulated machine lives
/// on one host thread, and determinism comes from the driver's fixed
/// arbitration order, not from locks.
///
/// Each handle also carries the NUMA node its core sits on (node 0 until
/// [`SharedFabric::for_node`]), so engines stay topology-oblivious: they
/// call [`SharedFabric::access_at`] as always, and the handle stamps the
/// requester's node onto the request. Every other operation goes through
/// [`SharedFabric::borrow`] / [`SharedFabric::borrow_mut`]. Keep each
/// guard a temporary inside one expression: holding one across another
/// call on a handle to the same hierarchy panics at run time.
#[derive(Debug, Clone)]
pub struct SharedFabric {
    hierarchy: Rc<RefCell<CacheHierarchy>>,
    node: usize,
}

impl SharedFabric {
    /// Builds a fresh hierarchy from `config` and returns the first handle.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            hierarchy: Rc::new(RefCell::new(CacheHierarchy::new(config))),
            node: 0,
        }
    }

    /// How many handles (≈ attached cores) reference this hierarchy.
    #[must_use]
    pub fn ports(&self) -> usize {
        Rc::strong_count(&self.hierarchy)
    }

    /// A handle to the same hierarchy for a core on `node` — what the SMP
    /// assembly passes to each engine constructor on a NUMA machine.
    #[must_use]
    pub fn for_node(&self, node: usize) -> Self {
        Self {
            hierarchy: Rc::clone(&self.hierarchy),
            node,
        }
    }

    /// The NUMA node this handle's requests are stamped with.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// A demand access issued at the caller's local cycle `now`, stamped
    /// with this handle's node.
    // asap-lint: hot-path
    pub fn access_at(&self, line: CacheLineAddr, now: u64) -> AccessResult {
        self.hierarchy.borrow_mut().access_at(line, now, self.node)
    }

    /// Shared access to the hierarchy (statistics, residency probes).
    #[must_use]
    pub fn borrow(&self) -> Ref<'_, CacheHierarchy> {
        self.hierarchy.borrow()
    }

    /// Exclusive access to the hierarchy (prefetches, L2 installs, NUMA
    /// set-up, statistics resets).
    #[must_use]
    pub fn borrow_mut(&self) -> RefMut<'_, CacheHierarchy> {
        self.hierarchy.borrow_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NumaStats, ServedBy};

    /// Two adjacent 2^20-line windows, homed on nodes 0 and 1.
    fn two_windows() -> [(CacheLineAddr, u64); 2] {
        [
            (CacheLineAddr::new(0), 1 << 20),
            (CacheLineAddr::new(1 << 20), 1 << 20),
        ]
    }

    /// A tiny-geometry fabric split over two nodes by [`two_windows`].
    fn two_node_fabric() -> SharedFabric {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        // Two windows: round-robin puts the first on node 0, second on 1.
        f.borrow_mut()
            .configure_numa(NumaConfig::symmetric(2), two_windows());
        f
    }

    #[test]
    fn handles_share_one_hierarchy() {
        let a = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let b = a.clone();
        assert_eq!(a.ports(), 2);
        let line = CacheLineAddr::new(0x7);
        assert_eq!(a.access_at(line, 0).served_by, ServedBy::Memory);
        assert_eq!(b.access_at(line, 300).served_by, ServedBy::L1);
        assert_eq!(b.borrow().stats().levels[0].hits, 1);
    }

    #[test]
    fn fabric_is_explicitly_timed() {
        // Two "cores" at different local times merge on the same MSHR.
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let line = CacheLineAddr::new(0x9);
        let completion = f.borrow_mut().prefetch_at(line, 0).expect("mshr available");
        let r = f.access_at(line, completion / 2);
        assert!(r.merged);
        assert_eq!(r.latency, completion - completion / 2);
    }

    #[test]
    fn remote_dram_pays_the_interconnect_hop() {
        let f = two_node_fabric();
        let core1 = f.for_node(1);
        assert_eq!(core1.node(), 1);
        assert_eq!(f.node(), 0);
        let memory = f.borrow().memory_latency();

        let local = CacheLineAddr::new(0x40); // homed on node 0
        let remote = CacheLineAddr::new((1 << 20) + 0x40); // homed on node 1
        assert_eq!(f.borrow().home_node(local), Some(0));
        assert_eq!(f.borrow().home_node(remote), Some(1));
        // Node 0 touching its own window: plain DRAM latency.
        let r = f.access_at(local, 0);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.latency, memory);
        // Node 0 touching node 1's window: DRAM + hop.
        let r = f.access_at(remote, 0);
        assert_eq!(r.latency, memory + NUMA_HOP_CYCLES);
        // Node 1 touching its own window's next line: local again.
        let r = core1.access_at(CacheLineAddr::new((1 << 20) + 0x80), 0);
        assert_eq!(r.latency, memory);
        assert_eq!(
            f.borrow().stats().numa,
            NumaStats {
                local_dram: 2,
                remote_dram: 1
            }
        );
        // Cache hits never pay the hop, wherever the line is homed.
        let r = f.access_at(remote, 10_000);
        assert_ne!(r.served_by, ServedBy::Memory);
        assert_eq!(f.borrow().stats().numa.remote_dram, 1);
        // Unregistered lines (co-runner traffic, synthetic blocks) are
        // node-local by definition.
        assert_eq!(f.borrow().home_node(CacheLineAddr::new(1 << 40)), None);
        f.borrow_mut().reset_stats();
        assert_eq!(f.borrow().stats().numa, NumaStats::default());
    }

    #[test]
    fn merged_accesses_ride_the_inflight_fill_without_a_hop() {
        let f = two_node_fabric();
        let remote = CacheLineAddr::new((1 << 20) + 0x40);
        let completion = f
            .borrow_mut()
            .prefetch_at(remote, 0)
            .expect("mshr available");
        let r = f.access_at(remote, completion / 2);
        assert!(r.merged);
        assert_eq!(r.latency, completion - completion / 2);
        assert_eq!(f.borrow().stats().numa, NumaStats::default());
    }

    #[test]
    fn cross_node_merge_charges_neither_dram_counter() {
        // Core 1 prefetches a line homed on node 0; core 0 — for which
        // that line is LOCAL — demand-accesses it mid-flight and merges
        // on the MSHR. Only one DRAM transaction ever happens, and it is
        // a prefetch fill, so the merged demand must increment neither
        // local_dram nor remote_dram and pay no hop. A later genuinely
        // remote demand still counts, proving the counters are armed.
        let f = two_node_fabric();
        let core1 = f.for_node(1);
        let local = CacheLineAddr::new(0x40); // homed on node 0

        let completion = core1
            .borrow_mut()
            .prefetch_at(local, 0)
            .expect("mshr available");
        let merged = f.access_at(local, completion / 2);
        assert!(merged.merged);
        assert_eq!(merged.latency, completion - completion / 2);
        assert_eq!(
            f.borrow().stats().numa,
            NumaStats::default(),
            "merged demand over a prefetch fill counts no DRAM locality"
        );

        let remote = CacheLineAddr::new((1 << 20) + 0x40); // homed on node 1
        let demand = f.access_at(remote, 0);
        assert_eq!(demand.served_by, ServedBy::Memory);
        assert_eq!(
            demand.latency,
            f.borrow().memory_latency() + NUMA_HOP_CYCLES
        );
        assert_eq!(
            f.borrow().stats().numa,
            NumaStats {
                local_dram: 0,
                remote_dram: 1
            }
        );
    }

    #[test]
    fn unconfigured_topology_ignores_the_node_stamp() {
        // Without a topology a node-3 handle is served exactly like node 0,
        // and neither locality counter moves.
        let node0 = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let node3 = SharedFabric::new(HierarchyConfig::tiny_for_tests()).for_node(3);
        for (i, raw) in [0x40u64, (1 << 20) + 0x40, 0x40, 1 << 40]
            .into_iter()
            .enumerate()
        {
            let line = CacheLineAddr::new(raw);
            let now = 1_000 * i as u64;
            assert_eq!(node3.access_at(line, now), node0.access_at(line, now));
        }
        assert_eq!(node3.borrow().home_node(CacheLineAddr::new(0x40)), None);
        assert_eq!(*node3.borrow().stats(), *node0.borrow().stats());
        assert_eq!(node3.borrow().stats().numa, NumaStats::default());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_numa_windows_are_rejected() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        f.borrow_mut().configure_numa(
            NumaConfig::symmetric(2),
            [
                (CacheLineAddr::new(0), 1 << 20),
                (CacheLineAddr::new(1 << 10), 1 << 20),
            ],
        );
    }

    #[test]
    fn block_line_api_reaches_the_l2() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let line = CacheLineAddr::new(1 << 62);
        assert!(!f.borrow().l2_contains(line));
        f.borrow_mut().l2_install(line);
        assert!(f.borrow().l2_contains(line));
        assert!(f.borrow_mut().l2_lookup(line));
        // The block competes for real L2 ways: four more installs on its
        // set (64 sets x 4 ways, LRU) evict it.
        for i in 1..=4u64 {
            f.borrow_mut().l2_install(CacheLineAddr::new(i << 6));
        }
        assert!(!f.borrow().l2_contains(line));
        let l2 = f.borrow().stats().levels[1];
        assert_eq!((l2.fills, l2.evictions), (5, 1));
    }
}
