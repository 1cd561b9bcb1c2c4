//! What `reproduce perfjson` records besides the figures themselves: the
//! spread of each figure over its repetitions and the host it ran on, so a
//! `BENCH_throughput.json` from one run can be compared with another's.

use std::process::Command;
use std::time::Instant;

/// One timed figure over its repetitions: the median and the fastest run,
/// in seconds unless the caller keeps another unit. The median tracks the
/// code; the gap to the minimum shows how much the host interfered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median over the runs (the mean of the middle two for an even count).
    pub median: f64,
    /// Fastest run.
    pub min: f64,
}

impl Timing {
    /// Summarises one figure per repetition.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    #[must_use]
    pub fn from_runs(mut runs: Vec<f64>) -> Self {
        assert!(!runs.is_empty(), "a timing needs at least one repetition");
        runs.sort_by(f64::total_cmp);
        let mid = runs.len() / 2;
        let median =
            if runs.len() % 2 == 1 { runs[mid] } else { (runs[mid - 1] + runs[mid]) / 2.0 };
        Self { median, min: runs[0] }
    }

    /// Runs `run` `reps` times (at least once) and summarises the wall-clock
    /// seconds of each run.
    ///
    /// # Errors
    ///
    /// Returns the first error `run` returns.
    pub fn measure<E>(reps: u32, mut run: impl FnMut() -> Result<(), E>) -> Result<Self, E> {
        let mut seconds = Vec::with_capacity(reps.max(1) as usize);
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            run()?;
            seconds.push(start.elapsed().as_secs_f64());
        }
        Ok(Self::from_runs(seconds))
    }

    /// Scales both figures (e.g. by `1e3` for milliseconds, or by the
    /// reciprocal of an iteration count).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self { median: self.median * factor, min: self.min * factor }
    }

    /// `{"median": .., "min": ..}` with `decimals` places, in this timing's
    /// unit.
    #[must_use]
    pub fn json(&self, decimals: usize) -> String {
        format!("{{\"median\": {:.decimals$}, \"min\": {:.decimals$}}}", self.median, self.min)
    }

    /// `work` per second at the median time and at the fastest time, as
    /// `{"median": .., "max": ..}`.
    #[must_use]
    pub fn rate_json(&self, work: f64) -> String {
        format!("{{\"median\": {:.3}, \"max\": {:.3}}}", work / self.median, work / self.min)
    }
}

/// The `host` object of `BENCH_throughput.json`: cores, CPU model, compiler
/// and commit. The commit carries a `-dirty` suffix when the checkout has
/// uncommitted changes, since those were measured too. A field the process
/// cannot read is `"unknown"`: the CPU model off Linux, `rustc` and `git`
/// when they are not on the `PATH`, the commit outside a git checkout.
#[must_use]
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism()
        .map_or_else(|_| json_string("unknown"), |n| n.to_string());
    format!(
        "{{\"cores\": {cores}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_string(&cpu_model()),
        json_string(&command_line("rustc", &["--version"])),
        json_string(&command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"])),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, model)| model.trim().to_owned())
}

/// First line of a command's standard output, or `"unknown"` if it cannot
/// run or fails.
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

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
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
    fn timing_reports_the_median_and_the_minimum() {
        let odd = Timing::from_runs(vec![3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min), (2.0, 1.0));
        let even = Timing::from_runs(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!((even.median, even.min), (2.5, 1.0));
        assert_eq!(even.scaled(1e3).json(1), "{\"median\": 2500.0, \"min\": 1000.0}");
        assert_eq!(odd.rate_json(4.0), "{\"median\": 2.000, \"max\": 4.000}");
    }

    #[test]
    fn measure_runs_at_least_once_and_forwards_errors() {
        let mut runs = 0;
        let timing = Timing::measure::<()>(0, || {
            runs += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(runs, 1);
        assert!(timing.min <= timing.median);
        assert_eq!(Timing::measure(3, || Err::<(), _>("boom")), Err("boom"));
    }

    #[test]
    fn host_block_names_every_field_and_escapes_strings() {
        let host = host_json();
        for field in ["\"cores\": ", "\"cpu_model\": \"", "\"rustc\": \"", "\"commit\": \""] {
            assert!(host.contains(field), "{host} lacks {field}");
        }
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
