//! Host-speed benchmark of the ASAP simulator.
//!
//! ```text
//! asap-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! asap-perfbench reference
//! ```
//!
//! `--trace 0` times passes of the workload's specs through the result
//! cache and prints the end-to-end metrics; `--trace 1` replays each
//! layer on the workload's own access streams, alternates traced and
//! untraced passes, writes the spans as a Chrome trace, and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `reference` regenerates the committed default-seed result digests in
//! `perfbench/reference/digests-seed42.tsv`. An untraced `warm_replay`
//! fills its cache by running this binary as `populate --seed N --dir D`,
//! which simulates every spec into `D/warm` and reports on standard
//! output.
//!
//! Work files live under `<target dir>/perfbench-work/` and are removed
//! on exit; result documents and trace files are kept under
//! `<target dir>/perfbench-out/`.

mod digest;
mod host;
mod layers;
mod report;
mod runpath;
mod stats;
mod suite;
mod trace;

use report::{Context, EndToEnd, Layered};
use runpath::{Bench, Expected, Populate};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use suite::{Workload, DEFAULT_SEED};

/// Set-ups per batch of an untraced run; `setup_s` is the 10th percentile
/// of all of them. A cold set-up takes tens of microseconds, and one
/// stretch of host contention can slow a whole batch of them, so the cold
/// workloads run one batch before the first pass and one more after every
/// pass, outside the passes' timing. Noise only adds to a set-up's time,
/// so a low percentile reads what the set-up itself costs.
const COLD_SETUPS: usize = 32;
/// A `warm_replay` set-up simulates the registry, about a second of work:
/// three of them, all before the first pass.
const WARM_SETUPS: usize = 3;

/// Accesses per preset in the layer replay: one cold-workload run's worth.
const REPLAY_ACCESSES: usize = 25_000;

/// Spans held in memory before the traced run stops adding traced passes.
const MAX_SPANS: usize = 250_000;

/// Spans written to the trace file (the first ones recorded).
const MAX_EXPORTED_SPANS: usize = 20_000;

const USAGE: &str = "usage: asap-perfbench --workload <isolated_1c|shared_fabric|warm_replay> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       asap-perfbench reference";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// The Cargo target directory this binary was built into.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("reference") if args.len() == 1 => return write_reference(),
        Some("populate") => return populate(&args[1..]),
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("asap-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target = target_dir();
    let work = target
        .join("perfbench-work")
        .join(std::process::id().to_string());
    let out_dir = target.join("perfbench-out");
    let result = std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("{}: {e}", out_dir.display()))
        .and_then(|()| run(&args, &work, &out_dir));
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the shared parent.
    let _ = std::fs::remove_dir(target.join("perfbench-work"));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asap-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one benchmark run measured, ready to report.
struct Outcome {
    values: report::Values,
    passes: u64,
    attempted: u64,
    failed: u64,
    /// Whether every check beyond the per-run gate passed.
    checks_passed: bool,
    /// Percentile and sample count `run_ms_tail` reads (untraced runs).
    tail: Option<(f64, usize)>,
    trace_file: Option<String>,
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> Result<(), String> {
    let host = host::Fingerprint::probe();
    let w = args.workload;
    println!(
        "# asap-perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={} cpu=\"{}\" {} commit={} threads={}",
        host.nproc, host.cpu_model, host.rustc, host.git_commit, host.threads
    );
    println!("# {}", report::MODEL_NOTE);
    let o = if args.trace {
        traced(args, work, out_dir)?
    } else {
        untraced(args, work)?
    };
    for (d, v) in &o.values {
        match (d.name, o.tail) {
            ("run_ms_tail", Some((p, n))) => {
                println!("{} = {v} {} (p{p} of {n} runs)", d.name, d.unit)
            }
            _ => println!("{} = {v} {}", d.name, d.unit),
        }
    }
    println!(
        "run_failure_ratio = {} ({} of {} runs failed the correctness gate)",
        stats::ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    let ctx = Context {
        workload: w.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: &host,
        passes: o.passes,
        attempted: o.attempted,
        failed: o.failed,
        tail_percentile: o.tail.map(|(p, _)| p),
        trace_file: o.trace_file.clone(),
    };
    let doc = report::document(&ctx, &o.values);
    // The documents must read back as JSON before they count as output.
    let parses = |correct| {
        let line = report::summary_line(correct, o.attempted.max(1), o.failed, &o.values);
        (report::Json::parse(&line).is_ok(), line)
    };
    let (line_parses, _) = parses(true);
    let correct =
        o.checks_passed && o.failed == 0 && line_parses && report::Json::parse(&doc).is_ok();
    let doc_path = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&doc_path, &doc).map_err(|e| format!("{}: {e}", doc_path.display()))?;
    println!("# result document: {}", doc_path.display());
    print!("{doc}");
    println!("{}", parses(correct).1);
    Ok(())
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut set_up = |k: usize| -> Result<Bench, String> {
        let expected = Expected::for_seed(args.seed);
        let start = Instant::now();
        let bench = Bench::setup(
            args.workload,
            args.seed,
            &work.join(format!("setup-{k}")),
            Populate::Child,
            expected,
        )?;
        setups_s.push(start.elapsed().as_secs_f64());
        Ok(bench)
    };
    let setups = if args.workload.is_cold() {
        COLD_SETUPS
    } else {
        WARM_SETUPS
    };
    let mut bench = set_up(0)?;
    for k in 1..setups {
        std::mem::replace(&mut bench, set_up(k)?).cleanup();
    }
    let mut k = setups;
    let tally = runpath::timed_passes(&mut bench, args.seconds as f64, || {
        if args.workload.is_cold() {
            for _ in 0..COLD_SETUPS {
                set_up(k)?.cleanup();
                k += 1;
            }
        }
        Ok(())
    })?;
    let populate = std::mem::take(&mut bench.populate);
    bench.cleanup();
    let e2e = EndToEnd { tally, setups_s };
    let t = &e2e.tally;
    Ok(Outcome {
        values: e2e.values(),
        passes: t.passes,
        attempted: t.attempted + populate.attempted,
        failed: t.failed + populate.failed,
        checks_passed: true,
        tail: Some((e2e.tail_percentile(), t.run_ms.len())),
        trace_file: None,
    })
}

fn traced(args: &Args, work: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let mut bench = Bench::setup(
        args.workload,
        args.seed,
        &work.join("setup-0"),
        Populate::Here { traced: true },
        Expected::for_seed(args.seed),
    )?;
    let specs: Vec<_> = bench.cases.iter().map(|c| c.spec.clone()).collect();
    let mut presets: Vec<asap_workloads::WorkloadSpec> = Vec::new();
    for s in &specs {
        if !presets.contains(&s.workload) {
            presets.push(s.workload.clone());
        }
    }
    println!(
        "# layer_replay: {} presets x {REPLAY_ACCESSES} accesses",
        presets.len()
    );
    let costs = layers::replay(&presets, REPLAY_ACCESSES, args.seed);
    let replayed = layers::LAYERS.iter().all(|layer| costs.calls(layer) > 0);
    let (plain, traced) = runpath::traced_passes(&mut bench, args.seconds as f64, MAX_SPANS);
    let populate = std::mem::take(&mut bench.populate);
    bench.cleanup();

    let mut spans: Vec<trace::Span> = populate
        .spans
        .iter()
        .chain(&traced.spans)
        .copied()
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.run, s.index));
    spans.truncate(MAX_EXPORTED_SPANS);
    let doc = trace::to_chrome(&format!("asap-perfbench {}", args.workload.name()), &spans);
    let trace_path = out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&trace_path, &doc).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "# trace file ({} spans): {}",
        spans.len(),
        trace_path.display()
    );

    let attempted = plain.attempted + traced.attempted + populate.attempted;
    let failed = plain.failed + traced.failed + populate.failed;
    let passes = plain.passes + traced.passes;
    let layered = Layered {
        costs,
        plain,
        traced,
        populate,
        threads: host::fanout_threads(),
        specs,
    };
    Ok(Outcome {
        values: layered.values(),
        passes,
        attempted,
        failed,
        checks_passed: replayed && trace::round_trips(&doc),
        tail: None,
        trace_file: Some(trace_path.display().to_string()),
    })
}

/// Where `reference` writes the digests, relative to the repository root.
const REFERENCE_PATH: &str = "perfbench/reference/digests-seed42.tsv";

/// The `populate` child of an untraced `warm_replay` set-up: simulates
/// every spec once into `<dir>/warm` and prints the report the parent
/// reads. The directory is left for the parent.
fn populate(args: &[String]) -> ExitCode {
    let (seed, dir) = match args {
        [s, seed, d, dir] if s == "--seed" && d == "--dir" => match seed.parse::<u64>() {
            Ok(seed) => (seed, Path::new(dir)),
            Err(e) => {
                eprintln!("asap-perfbench populate: --seed: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: asap-perfbench populate --seed N --dir D");
            return ExitCode::from(2);
        }
    };
    let populate = Populate::Here { traced: false };
    match Bench::setup(
        Workload::WarmReplay,
        seed,
        dir,
        populate,
        Expected::for_seed(seed),
    ) {
        Ok(bench) => {
            print!("{}", bench.populate_report());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("asap-perfbench populate: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every benchmark spec once at the default seed and writes the
/// reference digests.
fn write_reference() -> ExitCode {
    let path = Path::new(REFERENCE_PATH);
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let specs = w.specs(DEFAULT_SEED);
        let outputs = asap_sim::parallel_map(specs.clone(), |s| s.run_split());
        for (spec, out) in specs.into_iter().zip(outputs) {
            match out {
                Ok(out) if out.aggregate.faults == 0 => {
                    let d = digest::result_digest(&out);
                    rows.push((spec, d));
                }
                Ok(_) => {
                    eprintln!(
                        "asap-perfbench: {} {} faulted",
                        spec.workload.name,
                        spec.label()
                    );
                    return ExitCode::from(1);
                }
                Err(e) => {
                    eprintln!(
                        "asap-perfbench: {} {}: {e}",
                        spec.workload.name,
                        spec.label()
                    );
                    return ExitCode::from(1);
                }
            }
        }
    }
    match std::fs::write(path, digest::render(&rows)) {
        Ok(()) => {
            println!("wrote {} digests to {}", rows.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("asap-perfbench: {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}
