//! The metric catalogue and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("model_s", "s"),
    ("p50_ms", "ms"),
    ("capacity_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, from the traced pass. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sjdata.generate_s", "s"),
    ("epsgrid.build_s", "s"),
    ("epsgrid.cells_per_point", "ratio"),
    ("epsgrid.mutate_ms_p50", "ms"),
    ("epsgrid.mutate_ms_p99", "ms"),
    ("epsgrid.requantified_cells", "count"),
    ("epsgrid.full_rebuilds", "count"),
    ("kernels.resolve_s", "s"),
    ("kernels.probe_hit_frac", "ratio"),
    ("workload.profile_s", "s"),
    ("batching.plan_s", "s"),
    ("batching.batches", "count"),
    ("batching.estimate_ratio", "ratio"),
    ("prepass.model_s", "s"),
    ("prepass.launches", "count"),
    ("warpsim.construct_s", "s"),
    ("warpsim.exec_s", "s"),
    ("warpsim.ns_per_lane_op", "ns"),
    ("warpsim.distance_calcs", "count"),
    ("warpsim.cell_lookups", "count"),
    ("warpsim.wee", "ratio"),
    ("warpsim.warp_cv", "ratio"),
    ("warpsim.kernel_model_s", "s"),
    ("warpsim.transfer_model_s", "s"),
    ("executor.gather_s", "s"),
    ("executor.run_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.makespan_model_s", "s"),
    ("fleet.reshard_rounds", "count"),
    ("fleet.reassigned_units", "count"),
    ("fleet.imbalance", "ratio"),
    ("hybrid.run_s", "s"),
    ("hybrid.gpu_kept_frac", "ratio"),
    ("hybrid.cpu_model_s", "s"),
    ("hybrid.makespan_model_s", "s"),
    ("serve.launch_ms_p50", "ms"),
    ("serve.launch_ms_p99", "ms"),
    ("serve.requests_per_launch", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.rejected", "count"),
    ("serve.model_p99_s", "s"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("superego.wall_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.covered_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("host.minor_faults", "count"),
    ("host.peak_rss_mb", "MB"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: joins, SUPER-EGO runs, fleet and hybrid runs,
    /// serve requests, and the checks that compare whole passes.
    pub attempted: u64,
    /// Attempted operations that errored, were refused, or answered wrong.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one attempted operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds to a metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones. A metric the run did not produce is a bug in the
    /// benchmark, not a measurement of 0, except for a layer the workload
    /// does not exercise.
    pub fn result_line(&self, trace: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of `v`. JSON has no infinity: a
/// latency of a failed request prints as `1e308`.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "null".into()
    } else if v.is_infinite() {
        if v > 0.0 { "1e308" } else { "-1e308" }.into()
    } else {
        format!("{v:?}")
    }
}

/// Minor page faults of this process so far (`minflt` in
/// `/proc/self/stat`), or 0 where that file cannot be read. A fresh page
/// of a large allocation costs one, so their count shows allocation churn.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name, field 2, is in parentheses and may hold spaces;
    // `minflt` is field 10, the 8th after it.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

/// Host memory high-water mark of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("p50_ms", f64::INFINITY);
        o.check(true, String::new);
        o.check(false, || "wrong".into());
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1e308, \"unit\": \"ms\"}"));
        assert!(sj_telemetry::json::parse(&line).is_ok());
        let layers = o.result_line(true);
        for (name, unit) in PER_LAYER {
            assert!(layers.contains(&format!(
                "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn minor_faults_count_first_touches() {
        let before = minor_faults();
        let mut block = vec![0u8; 64 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        assert!(minor_faults() > before, "{before}");
        drop(block);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
