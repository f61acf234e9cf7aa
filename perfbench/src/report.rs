//! Metric definitions, their computation from what the passes measured,
//! and the result document.

use crate::host::Fingerprint;
use crate::layers::LayerCosts;
use crate::runpath::{PassFigures, Tally};
use crate::stats::{median, percentile, ratio, tail_percentile};
use asap_sim::{EngineSelect, MachineSelect, RunSpec};
use std::fmt::Write as _;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name as printed and as `BENCHMARK.json` names it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics: measured with tracing off.
pub const END_TO_END: [Def; 7] = [
    def("sim_accesses_per_s", "1/s", "higher"),
    def("host_cpu_ns_per_access", "ns", "lower"),
    def("run_ms_p50", "ms", "lower"),
    def("run_ms_tail", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("run_success_ratio", "ratio", "higher"),
];

/// Per-layer metrics: measured by the traced run.
pub const PER_LAYER: [Def; 37] = [
    def("workloads.next_va_ns", "ns", "lower"),
    def("os.build_process_ms", "ms", "lower"),
    def("pt.flat_translate_ns", "ns", "lower"),
    def("tlb.stlb_lookup_ns", "ns", "lower"),
    def("tlb.pwc_lookup_ns", "ns", "lower"),
    def("tlb.l2_miss_ratio", "ratio", "lower"),
    def("core.translate_access_ns.baseline", "ns", "lower"),
    def("core.translate_access_ns.asap", "ns", "lower"),
    def("core.walks", "count", "lower"),
    def("core.prefetch_drop_ratio", "ratio", "lower"),
    def("core.data_access_ns", "ns", "lower"),
    def("core.corunner_access_ns", "ns", "lower"),
    def("contenders.victima_translate_ns", "ns", "lower"),
    def("contenders.revelator_translate_ns", "ns", "lower"),
    def("contenders.victima_block_hit_ratio", "ratio", "higher"),
    def("contenders.revelator_accuracy", "ratio", "higher"),
    def("virt.nested_translate_ns", "ns", "lower"),
    def("cache.hierarchy_access_ns", "ns", "lower"),
    def("cache.fabric_access_ns", "ns", "lower"),
    def("cache.lookups_per_access", "count", "lower"),
    def("cache.llc_miss_ratio", "ratio", "lower"),
    def("cache.mshr_merges", "count", "higher"),
    def("cache.numa_remote_ratio", "ratio", "lower"),
    def("sim.sched_epoch_ns.4c", "ns", "lower"),
    def("sim.sched_epoch_ns.16c", "ns", "lower"),
    def("sim.parallel_busy_ratio", "ratio", "higher"),
    def("sim.run_split_ms", "ms", "lower"),
    def("sim.cache_key_us", "us", "lower"),
    def("sim.codec_decode_us", "us", "lower"),
    def("store.get_us", "us", "lower"),
    def("sim.codec_encode_us", "us", "lower"),
    def("store.put_us", "us", "lower"),
    def("run.self_us", "us", "lower"),
    def("store.payload_bytes", "bytes", "lower"),
    def("store.hit_ratio", "ratio", "higher"),
    def("sim.explained_share", "ratio", "higher"),
    def("telemetry.traced_overhead_ratio", "ratio", "lower"),
];

/// Metric values in definition order.
pub type Values = Vec<(Def, f64)>;

fn fill(defs: &[Def], get: impl Fn(&str) -> f64) -> Values {
    defs.iter().map(|d| (*d, get(d.name))).collect()
}

/// What the untraced run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// The timed passes.
    pub tally: Tally,
    /// Wall time of each set-up, in seconds.
    pub setups_s: Vec<f64>,
}

impl EndToEnd {
    /// The tail percentile `run_ms_tail` reads, for the runs measured.
    #[must_use]
    pub fn tail_percentile(&self) -> f64 {
        tail_percentile(self.tally.run_ms.len())
    }

    /// Every end-to-end metric.
    #[must_use]
    pub fn values(&self) -> Values {
        let t = &self.tally;
        let mut run_ms = t.run_ms.clone();
        run_ms.sort_by(f64::total_cmp);
        let pct = |p| {
            if run_ms.is_empty() {
                0.0
            } else {
                percentile(&run_ms, p)
            }
        };
        let pass_median = |f: fn(&PassFigures) -> f64| {
            let v: Vec<f64> = t.per_pass.iter().map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        fill(&END_TO_END, |name| match name {
            "sim_accesses_per_s" => pass_median(|p| p.accesses_per_s),
            "host_cpu_ns_per_access" => pass_median(|p| p.cpu_ns_per_access),
            // The median of per-pass medians: every pass runs each spec
            // once, so this is a middle spec's typical time, where a pooled
            // median of a two-cluster spec mix would sit on the gap.
            "run_ms_p50" => pass_median(|p| p.median_run_ms),
            "run_ms_tail" => pct(self.tail_percentile()),
            // A low percentile: noise only ever adds to a set-up's time.
            "setup_s" => {
                let mut setups = self.setups_s.clone();
                setups.sort_by(f64::total_cmp);
                if setups.is_empty() {
                    0.0
                } else {
                    percentile(&setups, 10.0)
                }
            }
            // Set-up plus one pass is what a user's single fan-out over
            // these specs holds; `warm_replay` simulates its set-up in a
            // child process, so its figure is the replay's alone. On a
            // shared 2-vCPU Xeon VM each further pass added allocator
            // fragmentation that varied by ±15% between runs.
            "peak_rss_mib" => t.first_pass_peak_rss_mib,
            "run_success_ratio" => 1.0 - ratio(t.failed as f64, t.attempted as f64),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
    }
}

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct Layered {
    /// The layer replay.
    pub costs: LayerCosts,
    /// Untraced passes, interleaved with the traced ones.
    pub plain: Tally,
    /// Traced passes.
    pub traced: Tally,
    /// The traced populate pass of `warm_replay`'s set-up: the only pass
    /// of that workload that simulates.
    pub populate: Tally,
    /// Fan-out threads.
    pub threads: usize,
    /// The workload's specs.
    pub specs: Vec<RunSpec>,
}

impl Layered {
    /// Every per-layer metric.
    #[must_use]
    pub fn values(&self) -> Values {
        let t = &self.traced;
        let mut counters = t.counters.clone();
        counters.absorb(&self.populate.counters);
        let c = &counters;
        let ns = |layer: &str| self.costs.ns_per_call(layer);
        let spans: Vec<_> = t
            .spans
            .iter()
            .chain(&self.populate.spans)
            .copied()
            .collect();
        let self_times = crate::trace::self_times(&spans);
        let self_ns = |span: &str| {
            self_times
                .get(span)
                .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64))
        };
        let run_split_total = self_times.get("sim.run_split").map_or(0, |&(ns, _)| ns);
        let sim_passes = ratio(
            self_times.get("sim.run_split").map_or(0, |&(_, n)| n) as f64,
            self.specs.len() as f64,
        );
        let per_pass =
            |count: u64| ratio(count as f64, ratio(c.runs as f64, self.specs.len() as f64));
        let modeled: f64 = self.specs.iter().map(|s| modeled_ns(s, &self.costs)).sum();
        let mean_pass = |tally: &Tally| ratio(tally.wall_ns as f64, tally.passes as f64);
        fill(&PER_LAYER, |name| match name {
            "workloads.next_va_ns" => ns("workloads.next_va"),
            "os.build_process_ms" => ns("os.build_process") / 1e6,
            "pt.flat_translate_ns" => ns("pt.flat_translate"),
            "tlb.stlb_lookup_ns" => ns("tlb.stlb_lookup"),
            "tlb.pwc_lookup_ns" => ns("tlb.pwc_lookup"),
            "tlb.l2_miss_ratio" => ratio(c.l2_tlb_misses as f64, c.l2_tlb_accesses as f64),
            "core.translate_access_ns.baseline" => ns("core.translate_access.baseline"),
            "core.translate_access_ns.asap" => ns("core.translate_access.asap"),
            "core.walks" => per_pass(c.walks),
            "core.prefetch_drop_ratio" => {
                ratio(c.prefetches_dropped as f64, c.prefetches_issued as f64)
            }
            "core.data_access_ns" => ns("core.data_access"),
            "core.corunner_access_ns" => ns("core.corunner_access"),
            "contenders.victima_translate_ns" => ns("contenders.victima_translate"),
            "contenders.revelator_translate_ns" => ns("contenders.revelator_translate"),
            "contenders.victima_block_hit_ratio" => ratio(
                c.victima_block_hits as f64,
                (c.victima_block_hits + c.victima_block_misses) as f64,
            ),
            "contenders.revelator_accuracy" => ratio(
                c.revelator_correct as f64,
                (c.revelator_correct + c.revelator_mispredicted) as f64,
            ),
            "virt.nested_translate_ns" => ns("virt.nested_translate"),
            "cache.hierarchy_access_ns" => ns("cache.hierarchy_access"),
            "cache.fabric_access_ns" => ns("cache.fabric_access"),
            "cache.lookups_per_access" => ratio(c.l1_lookups as f64, c.measured_accesses as f64),
            "cache.llc_miss_ratio" => {
                ratio(c.llc_misses as f64, (c.llc_hits + c.llc_misses) as f64)
            }
            "cache.mshr_merges" => per_pass(c.mshr_merges),
            "cache.numa_remote_ratio" => {
                ratio(c.numa_remote as f64, (c.numa_local + c.numa_remote) as f64)
            }
            "sim.sched_epoch_ns.4c" => ns("sim.sched_epoch.4c"),
            "sim.sched_epoch_ns.16c" => ns("sim.sched_epoch.16c"),
            "sim.parallel_busy_ratio" => {
                ratio(t.busy_ns as f64, t.wall_ns as f64 * self.threads as f64)
            }
            "sim.run_split_ms" => self_ns("sim.run_split") / 1e6,
            "sim.cache_key_us" => self_ns("sim.cache_key") / 1e3,
            "sim.codec_decode_us" => self_ns("sim.codec_decode") / 1e3,
            "store.get_us" => self_ns("store.get") / 1e3,
            "sim.codec_encode_us" => self_ns("sim.codec_encode") / 1e3,
            "store.put_us" => self_ns("store.put") / 1e3,
            "run.self_us" => self_ns("run") / 1e3,
            "store.payload_bytes" => ratio(t.payload_bytes as f64, t.attempted as f64),
            "store.hit_ratio" => ratio(t.cache_hits as f64, t.cache_lookups as f64),
            "sim.explained_share" => ratio(modeled * sim_passes, run_split_total as f64),
            "telemetry.traced_overhead_ratio" => ratio(mean_pass(t), mean_pass(&self.plain)),
            other => unreachable!("per-layer metric {other} has no definition"),
        })
    }
}

/// Host time the layer replay predicts for one run of `spec`: Σ over
/// the layers it calls of calls × ns per call.
#[must_use]
pub fn modeled_ns(spec: &RunSpec, costs: &LayerCosts) -> f64 {
    let ns = |layer: &str| costs.ns_per_call(layer);
    let accesses = crate::suite::simulated_accesses(spec) as f64;
    let translate = if spec.perfect_tlb {
        ns("pt.flat_translate")
    } else {
        match (&spec.machine, &spec.engine) {
            (MachineSelect::Virt { .. }, _) | (_, EngineSelect::NestedAsap(_)) => {
                ns("virt.nested_translate")
            }
            (_, EngineSelect::Baseline) => ns("core.translate_access.baseline"),
            (_, EngineSelect::Asap(_)) => ns("core.translate_access.asap"),
            (_, EngineSelect::Victima) => ns("contenders.victima_translate"),
            (_, EngineSelect::Revelator) => ns("contenders.revelator_translate"),
        }
    };
    let mut total = accesses * (ns("workloads.next_va") + translate + ns("core.data_access"));
    if spec.colocated && spec.cores == 1 {
        let burst = asap_workloads::CoRunner::memory_intensive(0).burst() as f64;
        total += accesses * burst * ns("core.corunner_access");
    }
    if spec.cores > 1 {
        let epoch = if spec.cores <= 4 {
            ns("sim.sched_epoch.4c")
        } else {
            ns("sim.sched_epoch.16c")
        };
        total += accesses * epoch;
    }
    total + spec.cores as f64 * ns("os.build_process")
}

/// Escapes `s` for a JSON string.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metrics_object(values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (d, v)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(d.name),
            number(*v),
            escape(d.unit)
        );
    }
    out.push('}');
    out
}

/// A finite JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The one-line summary the benchmark prints last.
#[must_use]
pub fn summary_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(values)
    )
}

/// Everything a result document records besides the metrics.
#[derive(Debug)]
pub struct Context<'a> {
    /// The benchmark workload.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// The host.
    pub host: &'a Fingerprint,
    /// Passes run.
    pub passes: u64,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// Percentile `run_ms_tail` reads (untraced runs only).
    pub tail_percentile: Option<f64>,
    /// The trace file written (traced runs only).
    pub trace_file: Option<String>,
}

/// States what the simulated numbers are: the benchmark times the
/// simulator; it makes no claim about the hardware the simulator models.
pub const MODEL_NOTE: &str = "The simulator's model is unvalidated: no measurement from real hardware backs it, so no error figure is given. Simulated statistics serve only as a correctness gate; every metric here is host time or host resources.";

/// The full result document.
#[must_use]
pub fn document(ctx: &Context<'_>, values: &Values) -> String {
    let h = ctx.host;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"asap-perfbench\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(ctx.workload));
    let _ = writeln!(out, "  \"seed\": {},", ctx.seed);
    let _ = writeln!(out, "  \"seconds\": {},", ctx.seconds);
    let _ = writeln!(out, "  \"trace\": {},", u8::from(ctx.trace));
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"threads\": {}}},",
        h.nproc,
        escape(&h.cpu_model),
        escape(&h.rustc),
        escape(&h.git_commit),
        h.threads
    );
    let _ = writeln!(out, "  \"model\": \"{}\",", escape(MODEL_NOTE));
    let _ = writeln!(out, "  \"passes\": {},", ctx.passes);
    let _ = writeln!(out, "  \"attempted\": {},", ctx.attempted);
    let _ = writeln!(out, "  \"failed\": {},", ctx.failed);
    let _ = writeln!(
        out,
        "  \"run_failure_ratio\": {},",
        number(ratio(ctx.failed as f64, ctx.attempted as f64))
    );
    match ctx.tail_percentile {
        Some(p) => {
            let _ = writeln!(out, "  \"run_ms_tail_percentile\": {},", number(p));
        }
        None => out.push_str("  \"run_ms_tail_percentile\": null,\n"),
    }
    match &ctx.trace_file {
        Some(path) => {
            let _ = writeln!(out, "  \"trace_file\": \"{}\",", escape(path));
        }
        None => out.push_str("  \"trace_file\": null,\n"),
    }
    let _ = writeln!(out, "  \"metrics\": {}", metrics_object(values));
    out.push_str("}\n");
    out
}

/// A parsed JSON value: enough of JSON to read the documents back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` of an object.
    #[cfg(test)]
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// The byte offset and what was expected there.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.b.len() {
            Ok(v)
        } else {
            Err(p.err("end of document"))
        }
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: expected {what}", self.i)
    }

    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(self.err("':'"));
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("'\"'"));
        }
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("closing quote")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("UTF-8"));
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let code = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("\\uXXXX"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                            self.i += 4;
                        }
                        _ => return Err(self.err("an escape")),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Workload, DEFAULT_SEED};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> Vec<String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| match m.get("name") {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key} entry without a name: {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn every_name_is_well_formed() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let mut all: Vec<String> = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            all.extend(names(&doc, key));
        }
        all.extend(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|d| d.name.to_string()),
        );
        all.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in &all {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut unique: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "duplicate metric name"
        );
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let defined = |defs: &[Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), defined(&PER_LAYER));
        assert_eq!(
            names(&doc, "workloads"),
            Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>()
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                unreachable!()
            };
            for (item, d) in items.iter().zip(defs) {
                assert_eq!(
                    item.get("unit"),
                    Some(&Json::Str(d.unit.into())),
                    "{}",
                    d.name
                );
                assert_eq!(
                    item.get("better"),
                    Some(&Json::Str(d.better.into())),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        for w in Workload::ALL {
            let e2e = EndToEnd::default().values();
            let layered = Layered {
                specs: w.specs(DEFAULT_SEED),
                threads: 2,
                ..Layered::default()
            }
            .values();
            for (values, defs) in [(&e2e, &END_TO_END[..]), (&layered, &PER_LAYER[..])] {
                let line = Json::parse(&summary_line(true, 1, 0, values)).unwrap();
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object")
                };
                let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let wanted: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(emitted, wanted, "{}", w.name());
            }
        }
    }

    #[test]
    fn the_output_documents_parse_back() {
        let host = Fingerprint {
            nproc: 2,
            cpu_model: "Test \"CPU\"".into(),
            rustc: "rustc 1.0".into(),
            git_commit: "unknown".into(),
            threads: 2,
        };
        let values: Values = vec![(END_TO_END[0], 1234.5678), (END_TO_END[4], 0.25)];
        let ctx = Context {
            workload: "isolated_1c",
            seed: 42,
            seconds: 10,
            trace: false,
            host: &host,
            passes: 3,
            attempted: 126,
            failed: 0,
            tail_percentile: Some(98.0),
            trace_file: None,
        };
        let doc = Json::parse(&document(&ctx, &values)).unwrap();
        assert_eq!(doc.get("workload"), Some(&Json::Str("isolated_1c".into())));
        let host_obj = doc.get("host").unwrap();
        assert_eq!(
            host_obj.get("cpu_model"),
            Some(&Json::Str("Test \"CPU\"".into()))
        );
        assert_eq!(host_obj.get("threads"), Some(&Json::Num(2.0)));
        assert_eq!(doc.get("model"), Some(&Json::Str(MODEL_NOTE.into())));
        let line = Json::parse(&summary_line(true, 126, 0, &values)).unwrap();
        let Json::Obj(keys) = &line else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line
            .get("metrics")
            .unwrap()
            .get("sim_accesses_per_s")
            .unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(1234.5678)));
        assert_eq!(m.get("unit"), Some(&Json::Str("1/s".into())));
    }
}
