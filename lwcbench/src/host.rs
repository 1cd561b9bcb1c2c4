//! Host and noise record: what the run ran on, and how much the machine
//! interfered while it measured, so a noisy set of runs can be told apart
//! from a slower program.

use std::fs;
use std::process::Command;

/// Counters sampled at the start and end of the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// This process's time spent runnable but waiting for a CPU, from each
    /// thread's `schedstat` (ns).
    runqueue_wait_ns: u64,
    /// This process's time on a CPU (ns).
    on_cpu_ns: u64,
    /// Host-wide steal time from `/proc/stat`, in clock ticks.
    steal_ticks: u64,
}

impl Noise {
    /// Samples the counters. The per-thread scheduler figures are summed
    /// over the threads alive at the moment of sampling, so a thread that
    /// starts and ends inside the timed phase is not counted.
    pub fn sample() -> Self {
        let (mut on_cpu_ns, mut runqueue_wait_ns) = (0, 0);
        for task in fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
            let schedstat = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            let mut fields = schedstat.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
            on_cpu_ns += fields.next().unwrap_or(0);
            runqueue_wait_ns += fields.next().unwrap_or(0);
        }
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        // "cpu  user nice system idle iowait irq softirq steal ..."
        let steal_ticks = stat
            .lines()
            .next()
            .and_then(|line| line.split_whitespace().nth(8))
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        Self { runqueue_wait_ns, on_cpu_ns, steal_ticks }
    }
}

/// `host.*` diagnostics for a run whose timed phase lay between `before`
/// and `after`.
pub fn diagnostics(before: Noise, after: Noise) -> Vec<(String, String)> {
    // USER_HZ is 100 on every Linux ABI this runs on.
    let tick_ms = 10.0;
    vec![
        ("host.cores".into(), cores().to_string()),
        ("host.cpu_model".into(), json_string(&cpu_model())),
        ("host.rustc".into(), json_string(&command_line("rustc", &["--version"]))),
        ("host.git_commit".into(), json_string(&command_line("git", &["rev-parse", "HEAD"]))),
        (
            "host.runqueue_wait_ms".into(),
            ms(after.runqueue_wait_ns.saturating_sub(before.runqueue_wait_ns)),
        ),
        ("host.on_cpu_ms".into(), ms(after.on_cpu_ns.saturating_sub(before.on_cpu_ns))),
        (
            "host.steal_ms".into(),
            format!("{}", after.steal_ticks.saturating_sub(before.steal_ticks) as f64 * tick_ms),
        ),
    ]
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, model)| model.trim().to_owned())
}

/// First line of a command's output, or "unknown" if it cannot run (the
/// benchmark's checkout is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn ms(ns: u64) -> String {
    format!("{}", ns as f64 / 1e6)
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn host_record_has_every_field() {
        let names: Vec<String> =
            diagnostics(Noise::sample(), Noise::sample()).into_iter().map(|(n, _)| n).collect();
        for field in ["cores", "cpu_model", "rustc", "git_commit", "runqueue_wait_ms", "steal_ms"] {
            assert!(names.contains(&format!("host.{field}")), "missing host.{field}");
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
