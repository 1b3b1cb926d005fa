//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`)
//! and the per-run sheet that collects values with their sample counts.

use crate::host::json_str;
use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off, with whether higher
/// values are better. Every workload reports every one; the note beside
/// the benchmark says what each means per workload.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("pr_edges_per_s", "edges/s", true),
    ("wcc_s", "s", false),
    ("bfs_s", "s", false),
    ("job_latency_p50_ms", "ms", false),
    ("job_latency_p95_ms", "ms", false),
    ("jobs_per_s", "jobs/s", true),
    ("peak_rss_mb", "MiB", false),
];

/// Layers that spans are recorded for; each gets a `self.<layer>_s`.
pub const SPAN_LAYERS: &[&str] = &[
    "bench",
    "load",
    "graph",
    "core",
    "tcp",
    "algorithms",
    "sched",
    "query",
];

/// Per-layer metrics of the traced run, `<layer>.<metric>`. Self time per
/// layer and tracing overhead per end-to-end metric are appended by
/// [`per_layer`].
const PER_LAYER_BASE: &[(&str, &str)] = &[
    ("graph.csr_build_s", "s"),
    ("core.engine_build_s", "s"),
    ("core.edge_scan_edges_per_s", "edges/s"),
    ("core.compute_s", "s"),
    ("core.comm_s", "s"),
    ("core.drain_s", "s"),
    ("core.engine_jobs", "count"),
    ("core.barrier_us", "us"),
    ("runtime.msgs_sent", "count"),
    ("runtime.bytes_sent", "bytes"),
    ("runtime.bytes_per_edge", "bytes"),
    ("runtime.read_entries", "count"),
    ("runtime.combined_read_hits", "count"),
    ("runtime.read_combine_ratio", "ratio"),
    ("runtime.write_entries", "count"),
    ("runtime.ghost_entries", "count"),
    ("runtime.local_reads", "count"),
    ("runtime.pool_exhausted", "count"),
    ("runtime.read_rtt_p50_us", "us"),
    ("runtime.read_rtt_p99_us", "us"),
    ("runtime.flush_fill_p50", "%"),
    ("runtime.copier_service_p50_us", "us"),
    ("runtime.retransmits", "count"),
    ("tcp.bootstrap_s", "s"),
    ("tcp.reconnects", "count"),
    ("tcp.reader_eofs", "count"),
    ("algorithms.pr_iter_ms", "ms"),
    ("algorithms.wcc_iterations", "count"),
    ("algorithms.bfs_levels", "count"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_p95_ms", "ms"),
    ("sched.run_p50_ms", "ms"),
    ("sched.dispatch_overhead_ms", "ms"),
    ("sched.submit_us", "us"),
    ("sched.refused", "count"),
    ("query.compile_us", "us"),
    ("query.run_vs_native", "ratio"),
    ("load.lag_p95_ms", "ms"),
    ("ref.sa_edge_scan_edges_per_s", "edges/s"),
    ("ref.seq_pr_s", "s"),
    ("failed_frac", "ratio"),
];

/// The full per-layer catalogue: base metrics, self time per span layer,
/// and tracing overhead per end-to-end metric: how much worse the traced
/// run read than the untraced one, as a fraction (negative: better).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_BASE
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(SPAN_LAYERS.iter().map(|l| (format!("self.{l}_s"), "s")));
    out.extend(
        END_TO_END
            .iter()
            .map(|(n, _, _)| (format!("trace.overhead.{n}"), "ratio")),
    );
    out
}

/// Values measured in one run, each with the number of samples it
/// summarizes (1 for a single measurement or a count).
#[derive(Default, Clone)]
pub struct Sheet {
    values: BTreeMap<String, (f64, usize)>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), (v, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn samples(&self, name: &str) -> usize {
        self.values.get(name).map_or(0, |&(_, n)| n)
    }

    /// The `metrics` object of the result line for `catalogue`. A metric
    /// this workload does not exercise reads 0.
    pub fn to_json(&self, catalogue: &[(String, &str)]) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    self.get(name).unwrap_or(0.0),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_metric_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    /// `BENCHMARK.json` lists exactly the metrics of this catalogue, with
    /// the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut listed = Vec::new();
        for chunk in spec.split("\"name\": \"").skip(1) {
            let name = chunk.split('"').next().unwrap();
            let unit = chunk
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next());
            if let Some(unit) = unit.filter(|_| chunk.find("\"unit\"") < chunk.find('}')) {
                listed.push((name.to_string(), unit.to_string()));
            }
        }
        let mut ours: Vec<(String, String)> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        ours.sort();
        listed.sort();
        assert_eq!(listed, ours);
    }
}
