//! Layer-ladder benchmark of the PGX.D reproduction.
//!
//! ```text
//! perfbench --workload <batch-local|batch-dist|batch-tcp|served-mix>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and sample count, a report
//! line with the host fingerprint, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with engine telemetry off.
//! With `--trace 1` the workload runs twice — untraced, then with engine
//! telemetry and the benchmark's spans on — and the metrics are the
//! per-layer ones, self time per layer, and the tracing overhead. The
//! process exits non-zero when any output was wrong. See `README.md`
//! beside this crate for why each workload exists.

mod batch;
mod host;
mod input;
mod layers;
mod metrics;
mod served;
mod stats;
mod trace;

use metrics::Sheet;
use stats::Tally;
use trace::Recorder;

/// A seed reserved for checking a performance claim on inputs not used
/// while the claimed change was developed.
const HOLDOUT_SEED: u64 = 917_000_003;

const WORKLOADS: &[&str] = &["batch-local", "batch-dist", "batch-tcp", "served-mix"];

/// What one pass over a workload measured.
pub struct Pass {
    pub e2e: Sheet,
    pub layer: Sheet,
    pub tally: Tally,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn run_pass(args: &Args, traced: bool, rec: &Recorder) -> Pass {
    let shape = match args.workload.as_str() {
        "batch-local" => batch::Shape::Local,
        "batch-dist" => batch::Shape::Dist,
        "batch-tcp" => batch::Shape::Tcp,
        _ => return served::run(args.seed, args.seconds, traced, rec),
    };
    batch::run(shape, args.seed, args.seconds, traced, rec)
}

/// The quantile a metric reports, from its `_pNN` tag; tracing-overhead
/// ratios of percentile metrics are not percentiles themselves.
fn percentile_of(name: &str) -> Option<f64> {
    if name.starts_with("trace.") {
        return None;
    }
    [("_p50", 0.5), ("_p95", 0.95), ("_p99", 0.99)]
        .iter()
        .find(|(tag, _)| name.contains(tag))
        .map(|&(_, q)| q)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let fingerprint = host::Fingerprint::probe();

    let steal_before = host::steal_s();
    let untraced = run_pass(&args, false, &Recorder::new(false));
    let stolen_s = host::steal_s() - steal_before;
    let mut e2e = untraced.e2e;
    e2e.set("peak_rss_mb", host::peak_rss_mb(), 1);
    let mut tally = untraced.tally;
    let calibration = format!(
        "{{\"ref.sa_edge_scan_edges_per_s\": {}, \"ref.seq_pr_s\": {}}}",
        untraced
            .layer
            .get("ref.sa_edge_scan_edges_per_s")
            .unwrap_or(0.0),
        untraced.layer.get("ref.seq_pr_s").unwrap_or(0.0)
    );

    let mut spans_file = None;
    let (catalogue, sheet) = if args.trace {
        let rec = Recorder::new(true);
        let traced = run_pass(&args, true, &rec);
        tally.merge(traced.tally);
        let mut layer = traced.layer;
        let mut traced_e2e = traced.e2e;
        traced_e2e.set("peak_rss_mb", host::peak_rss_mb(), 1);
        for &(name, _, higher_better) in metrics::END_TO_END {
            if let (Some(t), Some(u)) = (traced_e2e.get(name), e2e.get(name)) {
                let (worse, base) = if higher_better { (u, t) } else { (t, u) };
                let cost = if base != 0.0 { worse / base - 1.0 } else { 0.0 };
                layer.set(&format!("trace.overhead.{name}"), cost, 1);
            }
        }
        let spans = rec.take();
        for (l, secs) in trace::self_time_by_layer(&spans) {
            layer.set(&format!("self.{l}_s"), secs, spans.len());
        }
        layer.set("failed_frac", tally.failed_frac(), tally.attempted as usize);
        let path = format!(".bench_out/spans-{}-{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans)))
        {
            Ok(()) => spans_file = Some(path),
            Err(e) => eprintln!("[perfbench] could not write spans: {e}"),
        }
        (metrics::per_layer(), layer)
    } else {
        (metrics::end_to_end(), e2e)
    };

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, unit) in &catalogue {
        assert!(stats::valid_metric_name(name), "bad metric name {name}");
        let n = sheet.samples(name);
        let beyond = percentile_of(name).map_or(String::new(), |q| {
            let k = stats::beyond(n, q);
            let verdict = if k < stats::MIN_BEYOND {
                ": unresolved"
            } else {
                ""
            };
            format!(", {k} beyond{verdict}")
        });
        println!(
            "{name} = {} {unit} (n={n}{beyond})",
            sheet.get(name).unwrap_or(0.0)
        );
    }
    println!(
        "attempted = {}, failed = {} (errors {}, refused {}, wrong {}), failed_frac = {}",
        tally.attempted,
        tally.failed(),
        tally.errors,
        tally.refused,
        tally.wrong,
        tally.failed_frac()
    );
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"holdout_seed\": {HOLDOUT_SEED}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \"calibration\": {calibration}, \"host_steal_s\": {stolen_s}, \"spans\": {}}}}}",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        fingerprint.to_json(),
        spans_file.map_or("null".into(), |p| host::json_str(&p)),
    );
    let correct = tally.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed(),
        sheet.to_json(&catalogue)
    );
    if !correct {
        std::process::exit(1);
    }
}
