//! Spans of the traced run: recorded in memory around every public call
//! of the run path, exported through `asap_telemetry::chrome` at the end,
//! and folded into per-layer self time.
//!
//! Every `RunSpec` execution is one `run` span whose children are the
//! calls it made: `sim.cache_key`, `store.get`, then either
//! `sim.codec_decode` (a hit) or `sim.run_split`, `sim.codec_encode` and
//! `store.put` (a miss). All spans of one execution share its run id.

use asap_telemetry::chrome::{self, ArgValue, ChromeEvent, Ph};
use std::collections::BTreeMap;
use std::time::Instant;

/// The span names, parent first.
pub const SPAN_NAMES: [&str; 7] = [
    "run",
    "sim.cache_key",
    "store.get",
    "sim.codec_decode",
    "sim.run_split",
    "sim.codec_encode",
    "store.put",
];

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: usize,
    /// The execution this span belongs to.
    pub run: u64,
    /// Index of this span within its execution (the root is 0).
    pub index: u32,
    /// Index of the parent within the execution; `None` for the root.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The fan-out worker that ran it.
    pub worker: u32,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's id, unique across the trace.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.run * SPAN_NAMES.len() as u64 + u64::from(self.index)
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records the spans of one execution: its root `run` span opens on
/// creation and closes in [`Recorder::finish`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    root: Span,
    children: Vec<Span>,
}

impl Recorder {
    /// Opens the root span of execution `run`.
    #[must_use]
    pub fn start(epoch: Instant, run: u64) -> Self {
        let now = since(epoch);
        Self {
            epoch,
            root: Span {
                name: 0,
                run,
                index: 0,
                parent: None,
                start_ns: now,
                end_ns: now,
                worker: 0,
            },
            children: Vec::with_capacity(5),
        }
    }

    /// Runs `f` inside a child span named `name`.
    pub fn child<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let name = SPAN_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("child spans use a name from SPAN_NAMES");
        let start_ns = since(self.epoch);
        let out = f();
        let end_ns = since(self.epoch);
        self.children.push(Span {
            name,
            run: self.root.run,
            index: self.children.len() as u32 + 1,
            parent: Some(0),
            start_ns,
            end_ns,
            worker: 0,
        });
        out
    }

    /// Closes the root span and returns every span, root first.
    #[must_use]
    pub fn finish(mut self) -> Vec<Span> {
        self.root.end_ns = since(self.epoch);
        let mut spans = Vec::with_capacity(self.children.len() + 1);
        spans.push(self.root);
        spans.append(&mut self.children);
        spans
    }
}

/// Total self time and span count per span name. A span's self time is
/// its duration minus the part of it its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry((s.run, parent)).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let children = covered.get(&(s.run, s.index)).copied().unwrap_or(0);
        let e = out.entry(SPAN_NAMES[s.name]).or_default();
        e.0 += s.duration_ns().saturating_sub(children);
        e.1 += 1;
    }
    out
}

/// The spans as a canonical Chrome trace document: one track per
/// fan-out worker, timestamps and durations in microseconds.
#[must_use]
pub fn to_chrome(process: &str, spans: &[Span]) -> String {
    let mut events = vec![ChromeEvent::process_name(1, process)];
    let mut workers: Vec<u32> = spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        events.push(ChromeEvent::thread_name(1, w, &format!("worker {w}")));
    }
    for s in spans {
        let mut args = vec![
            ("run".to_string(), ArgValue::Num(s.run)),
            ("span".to_string(), ArgValue::Num(s.id())),
        ];
        if let Some(parent) = s.parent {
            let parent_id = s.run * SPAN_NAMES.len() as u64 + u64::from(parent);
            args.push(("parent".to_string(), ArgValue::Num(parent_id)));
        }
        events.push(ChromeEvent {
            ph: Ph::Complete,
            pid: 1,
            tid: s.worker,
            ts: Some(s.start_ns / 1_000),
            dur: Some(s.duration_ns() / 1_000),
            name: SPAN_NAMES[s.name].to_string(),
            args,
        });
    }
    chrome::to_json(&events)
}

/// Whether `doc` passes the same round trip `asap trace-check` applies:
/// it parses under the canonical grammar and re-emits byte-identically.
#[must_use]
pub fn round_trips(doc: &str) -> bool {
    chrome::parse(doc).is_ok_and(|events| chrome::to_json(&events) == doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: usize, run: u64, index: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            run,
            index,
            parent,
            start_ns: start,
            end_ns: end,
            worker: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 7, 0, None, 0, 100),
            span(1, 7, 1, Some(0), 10, 20),
            span(4, 7, 2, Some(0), 20, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st["run"], (20, 1));
        assert_eq!(st["sim.cache_key"], (10, 1));
        assert_eq!(st["sim.run_split"], (70, 1));
    }

    #[test]
    fn recorder_nests_children_under_the_run() {
        let epoch = Instant::now();
        let mut r = Recorder::start(epoch, 3);
        let v = r.child("sim.cache_key", || 5);
        assert_eq!(v, 5);
        r.child("store.get", || ());
        let spans = r.finish();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.run == 3));
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_export_passes_the_trace_check_round_trip() {
        let spans = [
            span(0, 1, 0, None, 1_000, 9_000),
            span(2, 1, 1, Some(0), 2_000, 3_000),
        ];
        let doc = to_chrome("perfbench \"test\"", &spans);
        assert!(round_trips(&doc));
        let events = chrome::parse(&doc).unwrap();
        assert_eq!(events.len(), 2 + spans.len());
    }
}
