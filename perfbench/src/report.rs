//! Metric names, the human-readable report and the closing JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of the untraced run, as named in `BENCHMARK.json`.
pub const END_TO_END: &[&str] = &[
    "frame_pairs_per_s",
    "sim_cycles_per_s",
    "setup_s",
    "peak_rss_mib",
    "modelled_speedup",
];

/// Per-layer metrics of the traced run, as named in `BENCHMARK.json`.
pub const PER_LAYER: &[&str] = &[
    "video.render_ms_per_frame",
    "core.intra_ns_per_px",
    "core.inter_ns_per_px",
    "core.calls",
    "core.pixels",
    "engine.analytic_overhead_us_per_call",
    "engine.call_ms_p50",
    "engine.call_ms_p95",
    "engine.call_samples",
    "engine.host_ns_per_sim_cycle",
    "engine.sim_cycles",
    "engine.pu.iim_stalls",
    "engine.pu.oim_stalls",
    "engine.pu.idle_cycles",
    "engine.zbt.access_words",
    "engine.zbt.bank0.access_words",
    "engine.zbt.bank1.access_words",
    "engine.zbt.bank2.access_words",
    "engine.zbt.bank3.access_words",
    "engine.zbt.bank4.access_words",
    "engine.zbt.bank5.access_words",
    "engine.calls.intra",
    "engine.calls.inter",
    "engine.modelled_busy_s",
    "gme.estimator_self_ms_per_pair",
    "gme.backend_share",
    "gme.iterations",
    "obs.events",
    "obs.export_ms",
    "obs.attrib_ms",
    "trace.overhead",
];

/// Whether `name` is a valid metric name: one or more of
/// `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`; `sim_s` marks simulated seconds.
    pub unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Informational lines printed before the metrics.
    pub notes: Vec<String>,
    /// Named metrics (end-to-end, exact counts and, when traced,
    /// per-layer).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted (frame pairs or engine calls, plus calls
    /// re-checked against `vip-core` in a traced run).
    pub attempted: u64,
    /// Operations that returned an error or whose output check failed.
    pub failed: u64,
    /// Problems that make the run incorrect beyond failed operations,
    /// such as exact counters that differ between repetitions.
    pub problems: Vec<String>,
    /// Chrome JSON of the traced run's host spans, to be written out.
    pub chrome_trace: Option<String>,
}

impl Report {
    /// Adds a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "malformed metric name `{name}`");
        self.metrics.insert(name, Metric { value, unit });
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output checked out and every exact count repeated.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The human-readable report followed by the closing JSON line that
    /// carries `names`.
    #[must_use]
    pub fn render(&self, names: &[&str]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "PROBLEM: {problem}");
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for (name, m) in &self.metrics {
            let _ = writeln!(out, "  {name:<40} {:>20} {}", fmt_value(m.value), m.unit);
        }
        out.push_str(&self.json_line(names));
        out.push('\n');
        out
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    /// over `names`. A name without a finite value makes the run
    /// incorrect and is left out.
    #[must_use]
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut correct = self.correct();
        let mut fields = Vec::new();
        for name in names {
            match self.metrics.get(name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    fmt_value(m.value),
                    m.unit
                )),
                _ => correct = false,
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Shortest round-trip decimal: every digit as measured.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_obs::json::JsonValue;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
        assert!(!valid_name("") && !valid_name("p95 ms") && !valid_name("a/b"));
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_program_emits() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.812_7, "s");
        r.set("extra", 1.0, "count");
        let line = r.json_line(&["setup_s"]);
        let v = JsonValue::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"correct\": true"));
        assert!(line.contains("{\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(!line.contains("extra"));
        assert!(r.json_line(&["missing"]).contains("\"correct\": false"));
    }
}
