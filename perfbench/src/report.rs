//! Statistics, the metric catalogue and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs; a layer a workload does
/// not exercise reads 0. Each entry names the end-to-end metric and
/// workload it should move (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.import_s", "s"),
    ("graph.import_medges_per_s", "Medges/s"),
    ("disk-engine.build_s", "s"),
    ("disk-engine.build_mb_written", "MB"),
    ("disk-engine.partitions", "count"),
    ("disk-engine.superstep_p50_ms", "ms"),
    ("disk-engine.superstep_p90_ms", "ms"),
    ("disk-engine.scatter_ms_per_query", "ms"),
    ("disk-engine.shuffle_ms_per_query", "ms"),
    ("disk-engine.gather_ms_per_query", "ms"),
    ("disk-engine.stream_wait_ms_per_query", "ms"),
    ("disk-engine.steady_allocs", "count"),
    ("disk-engine.io_retries", "count"),
    ("disk-engine.shuffle_capacity_mb", "MB"),
    ("storage.mb_read_per_query", "MB"),
    ("storage.mb_written_per_query", "MB"),
    ("storage.chunks_verified_per_query", "count"),
    ("storage.corruptions_detected", "count"),
    ("storage.stream_gbps", "GB/s"),
    ("storage.membw_ceiling_gbps", "GB/s"),
    ("core.frontier.skipped_frac", "1"),
    ("core.frontier.sparse_frac", "1"),
    ("core.frontier.medges_per_query", "Medges"),
    ("algorithms.supersteps_per_query", "count"),
    ("algorithms.useful_edge_frac", "1"),
    ("server.bfs_p50_ms", "ms"),
    ("server.sssp_p50_ms", "ms"),
    ("server.reach_p50_ms", "ms"),
    ("server.same-component_p50_ms", "ms"),
    ("server.pagerank_p50_ms", "ms"),
    ("server.ping_p50_ms", "ms"),
    ("server.repeat_p50_ms", "ms"),
    ("server.cache_hit_frac", "1"),
    ("server.batched_frac", "1"),
    ("server.engine_runs_per_query", "1"),
    ("server.medges_per_run", "Medges"),
    ("server.inflight_peak", "count"),
    ("server.rejected", "count"),
    ("server.timed_out", "count"),
    ("server.parse_errors", "count"),
    ("cli.serve_ready_s", "s"),
    ("cli.warm_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Nearest-rank `q`-quantile of `xs` (`0 < q < 1`) and the number of
/// samples strictly above it.
pub fn quantile(xs: &[f64], q: f64) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    let beyond = s.iter().filter(|&&x| x > s[idx]).count();
    Some((s[idx], beyond))
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Metric name → (value, samples behind it).
    pub values: BTreeMap<String, (f64, usize)>,
    /// Run metadata (not gated).
    pub meta: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and broken self-checks, in order found.
    pub errors: Vec<String>,
    /// Extra human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, samples));
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Sets `trace.overhead_pct`: how much slower the median traced
    /// query of a traced run was than the median query of the same run
    /// sent with tracing paused. Below the run-to-run noise this can
    /// read negative.
    pub fn overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        if traced_ms.is_empty() || untraced_ms.is_empty() {
            self.notes.push(format!(
                "trace.overhead_pct reads 0: {} traced and {} untraced queries",
                traced_ms.len(),
                untraced_ms.len()
            ));
            return;
        }
        self.set(
            "trace.overhead_pct",
            100.0 * (median(traced_ms) / median(untraced_ms) - 1.0),
            traced_ms.len() + untraced_ms.len(),
        );
    }

    /// Human summary on standard error: every metric measured, with
    /// its unit and sample count, then the run metadata.
    pub fn print_summary(&self, workload: &str) {
        let mut s = format!("== perfbench {workload}\n");
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        for (name, (value, n)) in &self.values {
            let _ = writeln!(s, "  {name:<40} {value:>14.4} {:<9} n={n}", unit_of(name));
        }
        for (k, v) in &self.meta {
            let _ = writeln!(s, "  meta {k} = {v}");
        }
        for line in &self.notes {
            let _ = writeln!(s, "  {line}");
        }
        let _ = writeln!(
            s,
            "  attempted {} failed {} ({} errors)",
            self.attempted,
            self.failed,
            self.errors.len()
        );
        for e in self.errors.iter().take(20) {
            let _ = writeln!(s, "  ERROR {e}");
        }
        eprint!("{s}");
    }

    /// The result line: the gated metrics of this run kind, as JSON.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.values.get(*name) {
                Some(&(v, _)) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The run metadata as one JSON object line.
    pub fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .chain(self.values.iter().map(|(k, (v, n))| {
                format!("{}: {{\"value\": {v}, \"samples\": {n}}}", json_str(k))
            }))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn quantiles_count_the_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), Some((90.0, 10)));
        assert_eq!(quantile(&xs, 0.99), Some((99.0, 1)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5, 3);
        }
        r.attempted = 4;
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r
            .result_line(true)
            .unwrap()
            .contains("\"trace.spans\": {\"value\": 0"));
        r.values.remove("setup_s");
        assert!(r.result_line(false).is_err());
    }
}
