//! The host-noise record every result file carries.

use pmobs::Json;
use std::process::Command;

/// `VmHWM` of this process in MB — the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `/proc/loadavg`, verbatim (empty where there is no procfs).
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// First line a command prints, or `unknown` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Who measured: core count, load when the run started, compiler and
/// commit. Collected after the timed region (`loadavg_at_start` is
/// read by the caller before it).
pub fn record(loadavg_at_start: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj()
        .field("nproc", nproc)
        .field("loadavg_at_start", loadavg_at_start)
        .field("rustc", first_line("rustc", &["--version"]))
        .field(
            "git_rev",
            first_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn a_command_that_cannot_run_is_unknown() {
        assert_eq!(first_line("no-such-program-here", &[]), "unknown");
    }
}
