//! Host measurements: process CPU time through `getrusage`, peak memory
//! through `/proc/self/status`, and the fingerprint stamped into every
//! result document.
//!
//! The `struct rusage` layout below is 64-bit Linux's; on any other
//! target this module does not compile rather than misread it.

use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("asap-perfbench reads `struct rusage` with 64-bit Linux's layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and RUSAGE_SELF is a valid `who`; the call
    // only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    usage
}

/// User + system CPU time of the whole process so far, in nanoseconds.
#[must_use]
pub fn cpu_ns() -> u64 {
    let u = rusage();
    let micros = |t: TimeVal| t.sec as u64 * 1_000_000 + t.usec as u64;
    (micros(u.utime) + micros(u.stime)) * 1_000
}

/// Peak resident set size of the process so far, in MiB: `VmHWM`, the
/// high-water mark of this program's own address space. `getrusage`'s
/// `ru_maxrss` would not do: it survives `execve`, so under `cargo run`
/// it never reads below cargo's own peak.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads the fan-out runs on: `available_parallelism`, which never
/// exceeds the CPUs this process may use.
#[must_use]
pub fn fanout_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What host a result document was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// What `nproc` prints: the CPUs this process may run on.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// The checkout's git commit, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Threads of the parallel fan-out.
    pub threads: usize,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    #[must_use]
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, model)| model.trim().to_string());
        let nproc = command_line("nproc", &[])
            .parse()
            .unwrap_or_else(|_| fanout_threads());
        // Only ask git inside a checkout of its own: a benchmark copied
        // into a directory of some unrelated repository must not report
        // that repository's commit.
        let git_commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        };
        Self {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit,
            threads: fanout_threads(),
        }
    }
}

/// The first line a command prints, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
