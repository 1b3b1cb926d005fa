//! Host fingerprint, process memory, and calibration rungs that do not run
//! the program under test (the SA edge scan and the sequential PageRank).

use crate::stats::median;
use pgxd_graph::Graph;
use std::time::Instant;

/// What a result depends on besides the code: results with different
/// fingerprints are not comparable (see `compare.py`).
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has taken from this VM since boot, summed over
/// its CPUs, seconds: the `steal` column of `/proc/stat` (in 1/100 s
/// ticks); 0 where it is not reported. It tells a run slowed by other
/// tenants of a shared host from one slowed by the program.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Host calibration on `g`: the L0 rung (a bare parallel edge scan with no
/// engine) and a single-threaded PageRank. Medians of `reps` runs; the
/// last PageRank result doubles as the reference for output checks.
pub struct Calibration {
    pub sa_edge_scan_edges_per_s: f64,
    pub seq_pr_s: f64,
    pub seq_pr: Vec<f64>,
}

pub fn calibrate(g: &Graph, threads: usize, pr_iters: usize, reps: usize) -> Calibration {
    let mut scan = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(pgxd_baselines::sa::edge_iteration(
            std::hint::black_box(g),
            threads,
        ));
        scan.push(g.num_edges() as f64 / t.elapsed().as_secs_f64());
    }
    let mut pr_s = Vec::new();
    let mut seq_pr = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        seq_pr = pgxd_baselines::seq::pagerank(std::hint::black_box(g), DAMPING, pr_iters);
        pr_s.push(t.elapsed().as_secs_f64());
    }
    Calibration {
        sa_edge_scan_edges_per_s: median(&scan).unwrap_or(0.0),
        seq_pr_s: median(&pr_s).unwrap_or(0.0),
        seq_pr,
    }
}

/// PageRank damping factor used by every PageRank this benchmark runs.
pub const DAMPING: f64 = 0.85;

/// Largest absolute difference between two score vectors (∞ on a length
/// mismatch).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Tolerance of every PageRank output check.
pub const PR_TOL: f64 = 1e-12;
