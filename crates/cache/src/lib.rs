//! Cache-hierarchy simulation for the ASAP reproduction.
//!
//! The paper's evaluation metric — page-walk latency — is determined entirely
//! by *which level of the memory hierarchy serves each page-table-node
//! access* (§4, "Measuring page walk latency"). This crate provides that
//! machinery:
//!
//! * a generic set-associative container ([`SetAssoc`]) with pluggable
//!   replacement ([`ReplacementKind`]: LRU, tree-PLRU, random), reused by the
//!   TLBs and page-walk caches in `asap-tlb`;
//! * a physical-line cache model ([`Cache`]);
//! * a miss-status-holding-register file ([`MshrFile`]) that merges demand
//!   accesses with in-flight ASAP prefetches — the paper's §3.4 mechanism
//!   ("ASAP leverages existing machinery for buffering the outstanding
//!   prefetch requests in L1-D's MSHRs");
//! * a three-level hierarchy plus DRAM ([`CacheHierarchy`]) with the paper's
//!   Table 5 latencies, attributing every access to the level that served it
//!   ([`ServedBy`], the raw material of the paper's Figure 9)
//!   — the machine's one memory system, explicitly timed so N per-core
//!   translation engines can contend for it, with an optional NUMA
//!   topology ([`NumaConfig`]) charging an interconnect hop on remote DRAM;
//! * [`SharedFabric`], the thin per-core handle (`Rc<RefCell<_>>` plus the
//!   core's NUMA node) through which the cores of an SMP machine reach
//!   that one hierarchy.
//!
//! # Examples
//!
//! ```
//! use asap_cache::{CacheHierarchy, HierarchyConfig, ServedBy};
//! use asap_types::CacheLineAddr;
//!
//! let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
//! let line = CacheLineAddr::new(0x40);
//! let first = hier.access(line);
//! assert_eq!(first.served_by, ServedBy::Memory);
//! let second = hier.access(line);
//! assert_eq!(second.served_by, ServedBy::L1);
//! assert!(second.latency < first.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
mod cache;
mod config;
mod fabric;
mod hierarchy;
mod mshr;
mod replacement;
mod stats;

pub use assoc::{Eviction, FillWay, SetAssoc};
pub use cache::Cache;
pub use config::{CacheConfig, HierarchyConfig};
pub use fabric::{NumaConfig, SharedFabric, NUMA_HOP_CYCLES};
pub use hierarchy::{AccessResult, CacheHierarchy, ServedBy};
pub use mshr::{MshrFile, MshrOutcome};
pub use replacement::ReplacementKind;
pub use stats::{CacheStats, HierarchyStats, NumaStats};
