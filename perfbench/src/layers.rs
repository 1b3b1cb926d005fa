//! Folds the engine's own per-job accounting (`JobExec`, available while
//! engine telemetry is on) into the `core.*` and `runtime.*` per-layer
//! metrics, and hangs its phase spans under the benchmark's spans.

use crate::metrics::Sheet;
use crate::trace::Recorder;
use pgxd::serve::JobExec;
use pgxd::StatsSnapshot;
use std::time::Instant;

/// Per-layer metrics from the execution records of the measured calls.
/// `units` is what the metrics are "per" (batch trials or served jobs);
/// `ranks` divides the time breakdown when every rank of a multi-process
/// cluster reported its own record for the same call. `edges` is the
/// graph's edge count for `runtime.bytes_per_edge`.
pub fn fold_execs(sheet: &mut Sheet, execs: &[JobExec], units: usize, ranks: usize, edges: usize) {
    let n = execs.len();
    let per = units.max(1) as f64;
    let time_per = per * ranks.max(1) as f64;
    let sum = |f: fn(&JobExec) -> f64| execs.iter().map(f).sum::<f64>();
    sheet.set("core.compute_s", sum(|e| e.compute_s) / time_per, n);
    sheet.set("core.comm_s", sum(|e| e.comm_s) / time_per, n);
    sheet.set("core.drain_s", sum(|e| e.drain_s) / time_per, n);
    sheet.set(
        "core.engine_jobs",
        sum(|e| e.engine_jobs as f64) / time_per,
        n,
    );
    let barriers: Vec<f64> = execs
        .iter()
        .flat_map(|e| e.phases.iter().map(|p| p.barrier_ns as f64 / 1e3))
        .collect();
    sheet.set(
        "core.barrier_us",
        barriers.iter().sum::<f64>() / barriers.len().max(1) as f64,
        barriers.len(),
    );

    let t: StatsSnapshot = execs
        .iter()
        .fold(StatsSnapshot::default(), |a, e| a + e.traffic);
    let counts = [
        ("runtime.msgs_sent", t.msgs_sent),
        ("runtime.bytes_sent", t.bytes_sent),
        ("runtime.read_entries", t.read_entries),
        ("runtime.combined_read_hits", t.combined_read_hits),
        ("runtime.write_entries", t.write_entries),
        ("runtime.ghost_entries", t.ghost_entries),
        ("runtime.local_reads", t.local_reads),
        ("runtime.pool_exhausted", t.pool_exhausted),
        ("runtime.retransmits", t.retransmits),
    ];
    for (name, v) in counts {
        sheet.set(name, v as f64 / per, n);
    }
    sheet.set(
        "runtime.bytes_per_edge",
        t.bytes_sent as f64 / (per * edges.max(1) as f64),
        n,
    );
    let lookups = t.combined_read_hits + t.read_entries;
    sheet.set(
        "runtime.read_combine_ratio",
        if lookups == 0 {
            0.0
        } else {
            t.combined_read_hits as f64 / lookups as f64
        },
        lookups as usize,
    );

    // Histograms merge across calls; quantiles are bucket lower bounds.
    macro_rules! quantile {
        ($field:ident, $q:expr) => {{
            let h = execs.iter().map(|e| e.$field).reduce(|a, b| a + b);
            h.map_or((0.0, 0), |h| {
                (h.quantile_lower_bound($q) as f64, h.count() as usize)
            })
        }};
    }
    let (v, c) = quantile!(read_rtt, 0.5);
    sheet.set("runtime.read_rtt_p50_us", v / 1e3, c);
    let (v, c) = quantile!(read_rtt, 0.99);
    sheet.set("runtime.read_rtt_p99_us", v / 1e3, c);
    let (v, c) = quantile!(flush_fill, 0.5);
    sheet.set("runtime.flush_fill_p50", v, c);
    let (v, c) = quantile!(copier_service, 0.5);
    sheet.set("runtime.copier_service_p50_us", v / 1e3, c);
}

/// Records the engine's phase spans of `exec` as `core.<phase>` children of
/// `parent`, placing the engine's clock on the benchmark's by anchoring the
/// job's dispatch timestamp at `dispatched`.
pub fn phase_spans(
    rec: &Recorder,
    exec: &JobExec,
    dispatched: Instant,
    parent: Option<usize>,
    job: u64,
) {
    let anchor = rec.ns(dispatched);
    for p in &exec.phases {
        let start = anchor + p.start_ns.saturating_sub(exec.dispatch_ns);
        let end = anchor + p.end_ns.saturating_sub(exec.dispatch_ns);
        rec.span_ns(&format!("core.phase_{}", p.label), start, end, parent, job);
    }
}
