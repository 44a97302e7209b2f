//! The metric catalog and the result line.
//!
//! Every metric has a name and a unit. A workload fills in what it
//! measures; the result line carries the end-to-end metrics (untraced run)
//! or the per-layer metrics (traced run). A per-layer metric a workload
//! does not exercise reads 0: that layer did no work in it.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, all lower-is-better.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("count_s", "s"), ("answer_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of the per-layer metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("graph.degree_stats_s", "s"),
    ("graph.order_s", "s"),
    ("core.index_s", "s"),
    ("core.plan_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_gpsi", "ns"),
    ("core.generated", "count"),
    ("core.results", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.pruned_per_result", "ratio"),
    ("core.cmap_hit_rate", "ratio"),
    ("core.gallop_share", "ratio"),
    ("core.index_probes", "count"),
    ("bsp.compute_s", "s"),
    ("bsp.exchange_s", "s"),
    ("bsp.supersteps", "count"),
    ("bsp.cost_imbalance", "ratio"),
    ("bsp.messages", "count"),
    ("bsp.remote_ratio", "ratio"),
    ("bsp.bytes_per_remote_message", "B"),
    ("bsp.chunks_live_peak", "count"),
    ("bsp.spill_chunks", "count"),
    ("bsp.spill_bytes", "B"),
    ("bsp.spill_stall_s", "s"),
    ("service.health_ms", "ms"),
    ("service.reply_gap_ms", "ms"),
    ("service.engine_ms", "ms"),
    ("service.load_s", "s"),
    ("service.cache_hit_rate", "ratio"),
    ("service.plan_cache_hit_rate", "ratio"),
    ("service.slices", "count"),
    ("service.preemptions", "count"),
    ("service.rejected_overloaded", "count"),
    ("delta.mutate_ms", "ms"),
    ("delta.views_patched", "count"),
    ("delta.views_dropped", "count"),
    ("delta.compactions", "count"),
    ("cluster.run_s", "s"),
    ("cluster.startup_s", "s"),
    ("cluster.barrier_wait_s", "s"),
    ("cluster.frames_sent", "count"),
    ("cluster.wire_bytes_per_message", "B"),
    ("cluster.attempts", "count"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_tail_ms", "ms"),
    ("job_s", "s"),
    ("error_rate", "ratio"),
    ("loadgen.late_tail_ms", "ms"),
    ("self.bench_s", "s"),
    ("self.graph_s", "s"),
    ("self.core_s", "s"),
    ("self.service_s", "s"),
    ("self.delta_s", "s"),
    ("self.cluster_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
];

/// Metric values measured by one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` (which must be in the catalog) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalog");
        self.0.insert(name, value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// One `name = value unit` line per measured metric, in catalog order.
    pub fn lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|&(name, unit)| self.get(name).map(|v| format!("{name} = {v} {unit}")))
            .collect()
    }
}

/// Unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The result line: every end-to-end metric (`traced == false`) or every
/// per-layer metric (`traced == true`). A missing end-to-end metric or a
/// value that is not a finite number is an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> Result<String, String> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in list {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgl_service::Json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_and_a_unit() {
        let mut seen = BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        m.set("core.generated", 12.0);
        for traced in [false, true] {
            let line = result_line(true, 3, 0, &m, traced).unwrap();
            let json = Json::parse(&line).unwrap();
            let metrics = json.get("metrics").unwrap();
            let list = if traced { PER_LAYER } else { END_TO_END };
            for &(name, unit) in list {
                let entry = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        }
        assert!(m.lines().iter().any(|l| l == "core.generated = 12 count"));
    }

    #[test]
    fn missing_or_non_finite_end_to_end_metrics_are_errors() {
        let mut m = Metrics::default();
        assert!(result_line(true, 1, 0, &m, false).is_err());
        for &(name, _) in END_TO_END {
            m.set(name, f64::NAN);
        }
        assert!(result_line(true, 1, 0, &m, false).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists the same metrics with
    /// the same units as this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = json.get(key).and_then(Json::as_arr).expect(key);
            let listed: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |k| e.get(k).and_then(Json::as_str).expect(k);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, list.to_vec(), "{key} differs from the catalog");
        }
    }
}
