//! Metric names, op accounting, and the result line the benchmark prints.

use crate::host::{self, Noise};
use crate::inputs::Kind;
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::{or_zero, Profile, Tracer};
use crate::Res;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (tracing off), with units. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("encode_msamples_per_s", "Msamples/s"),
    ("decode_msamples_per_s", "Msamples/s"),
    ("compression_ratio", "ratio"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does not
/// run reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = [
        ("image.dicom_parse_ms", "ms"),
        ("lifting.forward_ms", "ms"),
        ("lifting.inverse_ms", "ms"),
        ("lifting.forward_z_ms", "ms"),
        ("lifting.inverse_z_ms", "ms"),
        ("lifting.transform_share_encode", "share"),
        ("lifting.transform_share_decode", "share"),
        ("coder.subband_copy_ms", "ms"),
        ("coder.quantize_ms", "ms"),
        ("coder.rice_encode_ms", "ms"),
        ("coder.rice_decode_ms", "ms"),
        ("coder.bits_per_sample", "bits"),
        ("coder.container_write_ms", "ms"),
        ("coder.container_parse_ms", "ms"),
        ("pipeline.part_ms", "ms"),
        ("pipeline.parts_per_op", "count"),
        ("pipeline.fanout_overhead_ms", "ms"),
        ("pipeline.parallel_efficiency", "share"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_owned(), unit))
    .collect();
    for prefix in ["server.direct_ms.", "server.overhead_ms."] {
        metrics.extend(Kind::ALL.iter().map(|k| (format!("{prefix}{}", k.name()), "ms")));
    }
    metrics.extend(
        [
            ("server.steals_per_request", "count"),
            ("server.active_workers", "count"),
            ("server.rejected_busy", "count"),
            ("server.error_replies", "count"),
            ("trace.overhead_pct", "%"),
            ("trace.unattributed_pct", "%"),
        ]
        .into_iter()
        .map(|(name, unit)| (name.to_owned(), unit)),
    );
    metrics
}

/// Operations attempted and failed; a failure is an error or any output
/// check that did not hold.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                false
            }
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// `Err(what())` unless `ok`.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
    pub diagnostics: Vec<(String, String)>,
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the set-up `reps` times, dropping each result before the next so
/// memory holds one copy, and returns the last result with the median set-up
/// time in seconds.
pub fn repeated_setup<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut last = None;
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(f()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

/// Whether the timed loop goes on: until `seconds` have passed and the tail
/// percentile has `need` samples, but never past three times the run length.
pub fn keep_going(start: Instant, seconds: f64, have: usize, need: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < seconds || (have < need && elapsed < 3.0 * seconds)
}

/// Msamples/s for `samples` per op at a median op time of `ms`.
pub fn msamples_per_s(samples: usize, ms: f64) -> f64 {
    samples as f64 / (ms * 1e3)
}

/// Completes a run's outcome with what every workload reports: the host and
/// noise record of a timed phase that began at `noise`, set-up time, ratio,
/// peak memory and, for an untraced run, `latency` — its samples in ms, tail
/// percentile and what one sample times. The run fails unless at least ten
/// samples lie beyond that percentile.
pub fn finish(
    tally: Tally,
    mut metrics: BTreeMap<String, f64>,
    noise: Noise,
    setup_s: f64,
    ratio: f64,
    latency: Option<(&[f64], f64, &str)>,
) -> Outcome {
    let mut diagnostics = host::diagnostics(noise, Noise::sample());
    metrics.insert("setup_s".into(), setup_s);
    metrics.insert("compression_ratio".into(), ratio);
    metrics.insert("peak_rss_mb".into(), host::peak_rss_mb());
    let mut outcome = Outcome { tally, metrics, diagnostics: Vec::new() };
    if let Some((samples, tail, what)) = latency {
        outcome.metrics.insert("latency_p50_ms".into(), median(samples));
        outcome.metrics.insert("latency_tail_ms".into(), percentile(samples, tail));
        diagnostics.push(("latency_op".into(), host::json_string(what)));
        diagnostics.push(("latency_tail_percentile".into(), tail.to_string()));
        diagnostics.push(("latency_samples".into(), samples.len().to_string()));
        let beyond = samples_beyond(samples.len(), tail);
        outcome.tally.record(check(beyond >= 10, || {
            format!("only {beyond} of {} latency samples lie beyond p{tail}", samples.len())
        }));
    }
    outcome.diagnostics = diagnostics;
    outcome
}

/// The per-layer figures every traced run derives from its spans. Op roots
/// are named `op.encode`, `op.decode` or `op.region`; `workers` is the
/// fan-out width of the engine that was traced.
pub fn layer_metrics(tracer: &Tracer, profile: &Profile, workers: usize) -> BTreeMap<String, f64> {
    let encode = |name: &str| name == "op.encode";
    let decode = |name: &str| name != "op.encode";
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("image.dicom_parse_ms", "image.dicom_parse"),
        ("lifting.forward_ms", "lifting.forward"),
        ("lifting.inverse_ms", "lifting.inverse"),
        ("lifting.forward_z_ms", "lifting.forward_z"),
        ("lifting.inverse_z_ms", "lifting.inverse_z"),
        ("coder.subband_copy_ms", "coder.subband_copy"),
        ("coder.quantize_ms", "coder.quantize"),
        ("coder.rice_encode_ms", "coder.rice_encode"),
        ("coder.rice_decode_ms", "coder.rice_decode"),
        ("coder.container_write_ms", "coder.container_write"),
        ("coder.container_parse_ms", "coder.container_parse"),
        ("pipeline.part_ms", "pipeline.part"),
    ] {
        m.insert(metric.to_owned(), profile.p50_ms(span));
    }
    m.insert(
        "lifting.transform_share_encode".into(),
        profile.share(&["lifting.forward", "lifting.forward_z"], encode),
    );
    m.insert(
        "lifting.transform_share_decode".into(),
        profile.share(&["lifting.inverse", "lifting.inverse_z"], decode),
    );
    let samples = tracer.counter("coder.rice_samples");
    m.insert(
        "coder.bits_per_sample".into(),
        if samples == 0 { 0.0 } else { tracer.counter("coder.rice_bits") as f64 / samples as f64 },
    );
    let (parts, overhead, efficiency) = profile.fanout(workers);
    m.insert("pipeline.parts_per_op".into(), parts);
    m.insert("pipeline.fanout_overhead_ms".into(), or_zero(overhead));
    m.insert("pipeline.parallel_efficiency".into(), efficiency);
    m.insert("trace.unattributed_pct".into(), profile.unattributed_pct());
    m
}

/// Most of an op's traced wall time must sit in layer spans; more than this
/// share outside them means the decomposition misses a blocking step.
pub const MAX_UNATTRIBUTED_PCT: f64 = 10.0;

/// The traced run's own checks on its decomposition.
pub fn check_attribution(metrics: &BTreeMap<String, f64>) -> Result<(), String> {
    let unattributed = metrics["trace.unattributed_pct"];
    check(unattributed <= MAX_UNATTRIBUTED_PCT, || {
        format!(
            "layer spans leave {unattributed:.1}% of the traced ops' wall time unattributed \
             (limit {MAX_UNATTRIBUTED_PCT}%)"
        )
    })
}

/// Formats the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, with every metric of the chosen set.
pub fn result_line(
    tally: &Tally,
    metrics: &BTreeMap<String, f64>,
    trace: bool,
) -> Result<String, String> {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match metrics.get(&name) {
            Some(&v) if v.is_finite() => v,
            Some(_) => return Err(format!("metric {name} is not a finite number")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else { return };
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + per_layer().len());
    }

    #[test]
    fn result_line_fills_absent_layers_and_refuses_missing_end_to_end_metrics() {
        let mut tally = Tally::default();
        assert!(tally.record(Ok(())));
        let mut metrics = BTreeMap::new();
        metrics.insert("lifting.forward_ms".to_owned(), 1.5);
        let line = result_line(&tally, &metrics, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"lifting.forward_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"server.rejected_busy\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(result_line(&tally, &metrics, false).is_err());
        assert!(!tally.record(Err("mismatch".into())));
        assert_eq!(tally.first_failure(), Some("mismatch"));
        for (name, _) in END_TO_END {
            metrics.insert(name.to_owned(), 2.0);
        }
        let line = result_line(&tally, &metrics, false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
    }
}
