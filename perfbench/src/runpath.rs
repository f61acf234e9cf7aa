//! The run path under measurement: set-up, passes over a workload's specs
//! through the result cache, and the correctness gate every run passes.
//!
//! A pass schedules the workload's specs the way the program's cached
//! scenario runner does: `parallel_map_prioritized` over the costs the
//! cache's profile holds (unknown costs first, in enumeration order), and
//! the observed costs saved back afterwards. Cold workloads give every
//! pass a fresh, empty cache directory, so every cost is unknown;
//! `warm_replay` reads one cache its set-up populated. Untraced passes
//! call `RunSpec::run_split_cached` itself. Traced passes make the same
//! public calls one by one (key, get, decode, or run, encode, put), each
//! inside a span, and run the simulation with the metrics registry on.

pub use crate::digest::Expected;
use crate::digest::{result_digest, spec_id};
use crate::suite::{simulated_accesses, Workload};
use crate::trace::{Recorder, Span};
use asap_sim::{
    decode_payload, encode_payload, parallel_map_prioritized, CacheHandle, CostProfile,
    DriverError, RunOutput, RunSpec, TelemetryConfig,
};
use asap_telemetry::{MetricSet, MetricValue};
use std::path::{Path, PathBuf};
use std::thread::ThreadId;
use std::time::Instant;

/// One spec of the workload.
#[derive(Debug)]
pub struct Case {
    /// The spec, telemetry off.
    pub spec: RunSpec,
    /// The same spec with the metrics registry on (traced passes).
    live: RunSpec,
    /// The spec's identity in the reference table.
    pub id: u128,
    /// The spec's key in the cache's cost profile.
    label: String,
    /// Simulated accesses a run delivers.
    pub accesses: u64,
}

/// One executed spec.
struct Run {
    case: usize,
    wall_ns: u64,
    output: Result<RunOutput, DriverError>,
    spans: Vec<Span>,
    payload_bytes: u64,
    thread: ThreadId,
}

/// Counters the simulator's metrics registry reports, summed over runs.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Runs whose counters were read.
    pub runs: u64,
    /// Simulated accesses in those runs' measurement windows.
    pub measured_accesses: u64,
    /// Simulated accesses in those runs, warmup included.
    pub accesses: u64,
    /// L2 S-TLB misses.
    pub l2_tlb_misses: u64,
    /// L2 S-TLB accesses.
    pub l2_tlb_accesses: u64,
    /// Page walks.
    pub walks: u64,
    /// ASAP prefetches issued.
    pub prefetches_issued: u64,
    /// ASAP prefetches dropped for lack of an MSHR.
    pub prefetches_dropped: u64,
    /// Victima TLB-block hits.
    pub victima_block_hits: u64,
    /// Victima TLB-block misses.
    pub victima_block_misses: u64,
    /// Revelator speculations verified correct.
    pub revelator_correct: u64,
    /// Revelator speculations mispredicted.
    pub revelator_mispredicted: u64,
    /// L1 lookups (hits + misses).
    pub l1_lookups: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Requests merged into an outstanding MSHR.
    pub mshr_merges: u64,
    /// DRAM accesses homed on the requesting core's node.
    pub numa_local: u64,
    /// DRAM accesses homed on another node.
    pub numa_remote: u64,
}

fn counter(set: &MetricSet, name: &str) -> u64 {
    match set.get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

impl Counters {
    /// Adds `o`'s counts to these.
    pub fn absorb(&mut self, o: &Counters) {
        self.runs += o.runs;
        self.measured_accesses += o.measured_accesses;
        self.accesses += o.accesses;
        self.l2_tlb_misses += o.l2_tlb_misses;
        self.l2_tlb_accesses += o.l2_tlb_accesses;
        self.walks += o.walks;
        self.prefetches_issued += o.prefetches_issued;
        self.prefetches_dropped += o.prefetches_dropped;
        self.victima_block_hits += o.victima_block_hits;
        self.victima_block_misses += o.victima_block_misses;
        self.revelator_correct += o.revelator_correct;
        self.revelator_mispredicted += o.revelator_mispredicted;
        self.l1_lookups += o.l1_lookups;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.mshr_merges += o.mshr_merges;
        self.numa_local += o.numa_local;
        self.numa_remote += o.numa_remote;
    }

    fn add(&mut self, spec: &RunSpec, out: &RunOutput) {
        let Some(telemetry) = &out.telemetry else {
            return;
        };
        let set = &telemetry.metrics;
        let cores = spec.cores;
        // Engine counters are per core; the fabric is one shared object
        // every core reports identically, so it is read once.
        let per_core = |suffix: &str| -> u64 {
            if cores == 1 {
                counter(set, suffix)
            } else {
                (0..cores)
                    .map(|i| counter(set, &format!("core{i}_{suffix}")))
                    .sum()
            }
        };
        let fabric = |suffix: &str| -> u64 {
            if cores == 1 {
                counter(set, suffix)
            } else {
                counter(set, &format!("core0_{suffix}"))
            }
        };
        let a = &out.aggregate;
        self.runs += 1;
        self.measured_accesses += cores as u64 * spec.sim.measure_accesses;
        self.accesses += simulated_accesses(spec);
        self.l2_tlb_misses += a.l2_tlb_misses;
        self.l2_tlb_accesses += a.l2_tlb_accesses;
        self.walks += a.walks.count();
        self.prefetches_issued += a.prefetches_issued;
        self.prefetches_dropped += a.prefetches_dropped;
        self.victima_block_hits += per_core("victima_block_hits_total");
        self.victima_block_misses += per_core("victima_block_misses_total");
        self.revelator_correct += per_core("revelator_verified_correct_total");
        self.revelator_mispredicted += per_core("revelator_mispredicted_total");
        self.l1_lookups += fabric("l1_hits_total") + fabric("l1_misses_total");
        self.llc_hits += fabric("l3_hits_total");
        self.llc_misses += fabric("l3_misses_total");
        self.mshr_merges += fabric("mshr_merges_total");
        self.numa_local += fabric("numa_local_dram_total");
        self.numa_remote += fabric("numa_remote_dram_total");
    }
}

/// What one pass measured. On a shared host the speed of the machine
/// drifts from one pass to the next; the end-to-end figures are medians
/// over passes, which a slow stretch moves less than a pooled total.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassFigures {
    /// Delivered simulated accesses per wall second.
    pub accesses_per_s: f64,
    /// Host CPU nanoseconds per delivered access.
    pub cpu_ns_per_access: f64,
    /// Wall time of the pass's median run, in milliseconds.
    pub median_run_ms: f64,
}

/// What one or more passes measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Passes run.
    pub passes: u64,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed the correctness gate.
    pub failed: u64,
    /// Simulated accesses of the runs that passed it.
    pub delivered_accesses: u64,
    /// Wall time of the passes.
    pub wall_ns: u64,
    /// Host CPU time (user + sys) of the passes.
    pub cpu_ns: u64,
    /// Σ per-run wall time (busy time of the fan-out workers).
    pub busy_ns: u64,
    /// Wall time of every run, in milliseconds.
    pub run_ms: Vec<f64>,
    /// Per pass: the pass's rate, CPU time per access and median run.
    pub per_pass: Vec<PassFigures>,
    /// Peak resident memory once set-up and the first pass have run.
    pub first_pass_peak_rss_mib: f64,
    /// Recorded spans (traced passes only).
    pub spans: Vec<Span>,
    /// Metrics-registry counters (traced passes only).
    pub counters: Counters,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups.
    pub cache_lookups: u64,
    /// Payload bytes the runs moved through the store.
    pub payload_bytes: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.passes += other.passes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.delivered_accesses += other.delivered_accesses;
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
        self.busy_ns += other.busy_ns;
        self.run_ms.extend(other.run_ms);
        self.per_pass.extend(other.per_pass);
        self.spans.extend(other.spans);
        self.counters.absorb(&other.counters);
        self.cache_hits += other.cache_hits;
        self.cache_lookups += other.cache_lookups;
        self.payload_bytes += other.payload_bytes;
    }
}

/// A workload, set up and ready for timed passes.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Its specs, in enumeration order.
    pub cases: Vec<Case>,
    expected: Expected,
    root: PathBuf,
    /// The populated cache (`warm_replay`) or the last pass's cache.
    cache: Option<CacheHandle>,
    passes: u64,
    /// Time zero of every span this workload records.
    epoch: Instant,
    /// What the set-up's populate pass measured (`warm_replay` only).
    pub populate: Tally,
}

/// Where `warm_replay`'s set-up simulates the specs that fill its cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Populate {
    /// In this process, traced or not.
    Here {
        /// Whether the populate pass records spans and counters.
        traced: bool,
    },
    /// In a child process of this binary (`populate`), so the simulator's
    /// memory never counts in the peak RSS of the replay that follows.
    Child,
}

impl Bench {
    /// Enumerates and validates the workload's specs and creates its cache
    /// directory under `root`. On `warm_replay` it then fills the cache at
    /// `root/warm` with one pass, run where `populate` says and checked
    /// against `expected`.
    ///
    /// # Errors
    ///
    /// A spec that fails `RunSpec::validate`, a cache directory that
    /// cannot be created, or a populate child that fails.
    pub fn setup(
        workload: Workload,
        seed: u64,
        root: &Path,
        populate: Populate,
        expected: Expected,
    ) -> Result<Self, String> {
        let mut cases = Vec::new();
        for spec in workload.specs(seed) {
            spec.validate()
                .map_err(|e| format!("{} {}: {e}", spec.workload.name, spec.label()))?;
            let live = spec.clone().with_telemetry(TelemetryConfig {
                metrics: true,
                ..TelemetryConfig::off()
            });
            cases.push(Case {
                id: spec_id(&spec),
                label: spec.cost_label(),
                accesses: simulated_accesses(&spec),
                spec,
                live,
            });
        }
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut bench = Self {
            workload,
            cases,
            expected,
            root: root.to_path_buf(),
            cache: None,
            passes: 0,
            epoch: Instant::now(),
            populate: Tally::default(),
        };
        if !workload.is_cold() {
            let dir = root.join("warm");
            let cache = match populate {
                Populate::Here { traced } => {
                    let cache =
                        CacheHandle::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                    bench.populate = bench.run_pass(&cache, traced, false);
                    cache
                }
                Populate::Child => {
                    bench.populate = bench.populate_in_child(seed)?;
                    CacheHandle::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?
                }
            };
            bench.cache = Some(cache);
        }
        Ok(bench)
    }

    /// Runs `<this binary> populate` on this workload's root and takes its
    /// report: the runs it attempted and failed, and at a seed without a
    /// committed reference the digests it learned, which the warm-decoded
    /// copies must then match.
    fn populate_in_child(&mut self, seed: u64) -> Result<Tally, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = std::process::Command::new(exe)
            .arg("populate")
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--dir")
            .arg(&self.root)
            .output()
            .map_err(|e| format!("populate child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "populate child failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let mut tally = Tally::default();
        let mut mismatches = 0;
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["digest", id, digest] => {
                    let parse = |hex: &str| u128::from_str_radix(hex, 16).ok();
                    match (parse(id), parse(digest)) {
                        (Some(id), Some(digest)) if self.expected.check(id, digest) => {}
                        _ => mismatches += 1,
                    }
                }
                ["populated", attempted, failed] => {
                    tally.attempted = attempted.parse().unwrap_or(0);
                    tally.failed = failed.parse().unwrap_or(0);
                }
                _ => {}
            }
        }
        if tally.attempted == 0 {
            return Err("populate child reported no runs".into());
        }
        tally.passes = 1;
        tally.failed = (tally.failed + mismatches).min(tally.attempted);
        Ok(tally)
    }

    /// The populate report `populate_in_child` reads: one `digest` line
    /// per digest learned (none at the default seed) and a `populated`
    /// line with the populate pass's attempted and failed runs.
    #[must_use]
    pub fn populate_report(&self) -> String {
        let mut out = String::new();
        for (id, digest) in self.expected.learned() {
            out.push_str(&format!("digest {id:032x} {digest:032x}\n"));
        }
        out.push_str(&format!(
            "populated {} {}\n",
            self.populate.attempted, self.populate.failed
        ));
        out
    }

    /// One pass over every spec, recording spans when `traced`.
    pub fn pass(&mut self, traced: bool) -> Tally {
        if self.workload.is_cold() {
            let dir = self.root.join(format!("pass-{}", self.passes));
            let cache =
                CacheHandle::open(&dir).expect("the benchmark's work directory is writable");
            let tally = self.run_pass(&cache, traced, false);
            if let Some(old) = self.cache.replace(cache) {
                let _ = std::fs::remove_dir_all(old.root());
            }
            tally
        } else {
            let cache = self
                .cache
                .take()
                .expect("warm_replay set-up populated a cache");
            let tally = self.run_pass(&cache, traced, true);
            self.cache = Some(cache);
            tally
        }
    }

    /// One fan-out over every spec. `must_hit` marks a warm pass, where
    /// every lookup has to be served from the cache.
    fn run_pass(&mut self, cache: &CacheHandle, traced: bool, must_hit: bool) -> Tally {
        let trace = traced.then_some(self.epoch);
        let first_run = self.passes * self.cases.len() as u64;
        self.passes += 1;
        let (hits0, lookups0) = (cache.stats().hits(), cache.stats().lookups());
        let cpu0 = crate::host::cpu_ns();
        let t0 = Instant::now();
        let profile = cache.load_costs();
        let costs: Vec<u64> = self
            .cases
            .iter()
            .map(|c| profile.get(&c.label).unwrap_or(u64::MAX))
            .collect();
        let runs = parallel_map_prioritized((0..self.cases.len()).collect(), &costs, |i| {
            self.run_one(i, cache, trace.map(|epoch| (epoch, first_run + i as u64)))
        });
        // Live (traced) runs feed no cost profile, as in the program.
        if !traced {
            let mut observed = CostProfile::new();
            for run in runs.iter().filter(|r| r.output.is_ok()) {
                observed.record(&self.cases[run.case].label, run.wall_ns);
            }
            if !observed.is_empty() {
                let _ = cache.save_costs(&observed);
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = crate::host::cpu_ns() - cpu0;
        let hits = cache.stats().hits() - hits0;
        let lookups = cache.stats().lookups() - lookups0;
        let mut tally = Tally {
            passes: 1,
            wall_ns,
            cpu_ns,
            cache_hits: hits,
            cache_lookups: lookups,
            ..Tally::default()
        };
        let mut workers: Vec<ThreadId> = Vec::new();
        for mut run in runs {
            let case = &self.cases[run.case];
            tally.attempted += 1;
            tally.busy_ns += run.wall_ns;
            tally.run_ms.push(run.wall_ns as f64 / 1e6);
            tally.payload_bytes += run.payload_bytes;
            let ok = match &run.output {
                Ok(out) => {
                    tally.counters.add(&case.live, out);
                    out.aggregate.faults == 0 && self.expected.check(case.id, result_digest(out))
                }
                Err(_) => false,
            };
            if ok {
                tally.delivered_accesses += case.accesses;
            } else {
                tally.failed += 1;
            }
            let worker = match workers.iter().position(|t| *t == run.thread) {
                Some(w) => w,
                None => {
                    workers.push(run.thread);
                    workers.len() - 1
                }
            };
            for span in &mut run.spans {
                span.worker = worker as u32;
            }
            tally.spans.append(&mut run.spans);
        }
        let mut run_ms = tally.run_ms.clone();
        run_ms.sort_by(f64::total_cmp);
        tally.per_pass.push(PassFigures {
            accesses_per_s: crate::stats::ratio(
                tally.delivered_accesses as f64,
                tally.wall_ns as f64 / 1e9,
            ),
            cpu_ns_per_access: crate::stats::ratio(
                tally.cpu_ns as f64,
                tally.delivered_accesses as f64,
            ),
            median_run_ms: crate::stats::percentile(&run_ms, 50.0),
        });
        // A warm pass must be served entirely from the cache: every miss
        // is a run that simulated instead, and counts as failed.
        if must_hit {
            let misses = lookups - hits;
            tally.failed = (tally.failed + misses).min(tally.attempted);
        }
        tally
    }

    fn run_one(&self, i: usize, cache: &CacheHandle, trace: Option<(Instant, u64)>) -> Run {
        let case = &self.cases[i];
        let start = Instant::now();
        let (output, spans, payload_bytes) = match trace {
            None => (case.spec.run_split_cached(cache), Vec::new(), 0),
            Some((epoch, run)) => traced_run(case, cache, epoch, run),
        };
        Run {
            case: i,
            wall_ns: start.elapsed().as_nanos() as u64,
            output,
            spans,
            payload_bytes,
            thread: std::thread::current().id(),
        }
    }

    /// Cold ≡ warm: decodes every spec from the last pass's cache and
    /// holds it to the expected digest. Returns the mismatches.
    pub fn verify_warm_copies(&mut self) -> u64 {
        let Some(cache) = &self.cache else {
            return 0;
        };
        let mut failed = 0;
        for case in &self.cases {
            let digest = cache
                .get(&case.spec.cache_key())
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|text| decode_payload(&text).ok())
                .map(|(out, _)| result_digest(&out));
            if !digest.is_some_and(|d| self.expected.check(case.id, d)) {
                failed += 1;
            }
        }
        failed
    }

    /// Removes the workload's cache directories.
    pub fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `run_split_cached`, one public call at a time, each in a span.
fn traced_run(
    case: &Case,
    cache: &CacheHandle,
    epoch: Instant,
    run: u64,
) -> (Result<RunOutput, DriverError>, Vec<Span>, u64) {
    let mut rec = Recorder::start(epoch, run);
    let key = rec.child("sim.cache_key", || case.spec.cache_key());
    if let Some(bytes) = rec.child("store.get", || cache.get(&key)) {
        let decoded = rec.child("sim.codec_decode", || {
            std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| decode_payload(text).ok())
        });
        if let Some((output, _)) = decoded {
            return (Ok(output), rec.finish(), bytes.len() as u64);
        }
    }
    let start = Instant::now();
    let output = match rec.child("sim.run_split", || case.live.run_split()) {
        Ok(output) => output,
        Err(e) => return (Err(e), rec.finish(), 0),
    };
    let elapsed = (start.elapsed().as_nanos() as u64).max(1);
    let payload = rec.child("sim.codec_encode", || encode_payload(&output, elapsed));
    let _ = rec.child("store.put", || cache.put(&key, payload.as_bytes()));
    (Ok(output), rec.finish(), payload.len() as u64)
}

/// Runs passes, with `between` after each one, until `seconds` of wall
/// time have gone, then checks the last pass's cache cold ≡ warm.
///
/// # Errors
///
/// The first error `between` returns.
pub fn timed_passes(
    bench: &mut Bench,
    seconds: f64,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    while tally.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        tally.merge(bench.pass(false));
        if tally.passes == 1 {
            tally.first_pass_peak_rss_mib = crate::host::peak_rss_mib();
        }
        between()?;
    }
    if bench.workload.is_cold() {
        tally.failed = (tally.failed + bench.verify_warm_copies()).min(tally.attempted);
    }
    Ok(tally)
}

/// Untraced and traced passes, alternating, until `seconds` have gone or
/// `max_spans` spans are held. Returns (untraced, traced).
pub fn traced_passes(bench: &mut Bench, seconds: f64, max_spans: usize) -> (Tally, Tally) {
    let start = Instant::now();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    while traced.passes == 0
        || (start.elapsed().as_secs_f64() < seconds && traced.spans.len() < max_spans)
    {
        plain.merge(bench.pass(false));
        traced.merge(bench.pass(true));
    }
    if bench.workload.is_cold() {
        traced.failed = (traced.failed + bench.verify_warm_copies()).min(traced.attempted);
    }
    (plain, traced)
}
