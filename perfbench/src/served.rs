//! `served-mix`: TWT-Quick behind `Engine::into_server()` on 2 machines ×
//! 1 worker. Small jobs arrive open loop at a fixed rate from one
//! generator thread; one reply thread collects and checks them. Then a
//! saturation phase keeps the queue non-empty to measure capacity.

use crate::host::{self, max_abs_diff, DAMPING, PR_TOL};
use crate::input::{self, Rng, STREAM_ORDER};
use crate::layers;
use crate::metrics::Sheet;
use crate::stats::{ceil_rank, median, Outcome, Tally};
use crate::trace::Recorder;
use crate::Pass;
use pgxd::query::{QueryResult, QuerySessionExt, QuerySubmitError};
use pgxd::serve::{JobExec, JobHandle, JobServer, Lane, Session};
use pgxd::{CancelToken, Config, Engine, EngineBuilder, JobError, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// TWT-Quick: 2^13 nodes, 16 edges per node before self-loop removal.
const SCALE: u32 = 13;
const EDGE_FACTOR: usize = 16;
/// PageRank iterations of every interactive job, query or native.
const PR_ITERS: usize = 3;
/// Open-loop arrival rate, jobs/s: about 30% of the saturation capacity
/// of this mix (~60 jobs/s measured on a 2-core Xeon VM). At half the
/// capacity, host stalls on a shared VM queued jobs up and p95 varied
/// by 40% from run to run.
const OPEN_RATE: f64 = 18.0;
/// Open-loop jobs per run at least: ≥ 10 samples then lie beyond p95.
const MIN_OPEN_JOBS: usize = 200;
/// Share of `--seconds` spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Jobs kept outstanding during saturation (well under the queue depth).
const SAT_WINDOW: usize = 16;
const SETUP_REPS: usize = 15;
const ROOTS: usize = 16;
/// Timed compilations of the PageRank query per traced run.
const COMPILE_REPS: usize = 200;

/// PageRank as a query: the same fixed iteration count as the native job.
fn pr_query() -> String {
    format!(
        "prop rank: f64 = 1.0 / N;
prop tmp: f64 = 0.0;
prop nxt: f64 = 0.0;
prop diff: f64 = 0.0;
iterate max {PR_ITERS} {{
  foreach v {{ v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }}
  foreach v {{ v.nxt = sum(u in v.in_nbrs) u.tmp; }}
  foreach v {{ v.diff = abs((1.0 - {DAMPING}) / N + {DAMPING} * v.nxt - v.rank);
              v.rank = (1.0 - {DAMPING}) / N + {DAMPING} * v.nxt; }}
  until sum(v) v.diff < 0.0;
}}
return rank;
"
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    NativePr,
    QueryPr,
    HopDist(usize),
    Wcc,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::NativePr => "algorithms.pagerank_pull",
            Kind::QueryPr => "query.execute",
            Kind::HopDist(_) => "algorithms.hopdist",
            Kind::Wcc => "algorithms.wcc",
        }
    }
}

/// The seeded job order: blocks of four slots, each holding one native
/// PageRank and one query PageRank (interactive session), one hop
/// distance from a seeded root and one WCC (batch session), in a seeded
/// order within the block. Every seed thus runs the same mix.
fn job_order(seed: u64, count: usize) -> Vec<Kind> {
    let mut rng = Rng::stream(seed, STREAM_ORDER);
    let mut out = Vec::with_capacity(count + 4);
    while out.len() < count {
        let mut block = [
            Kind::NativePr,
            Kind::QueryPr,
            Kind::HopDist(rng.below(ROOTS as u64) as usize),
            Kind::Wcc,
        ];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(block);
    }
    out.truncate(count);
    out
}

enum Answer {
    Scores(Vec<f64>),
    Labels(Vec<u32>, usize),
    Hops(Vec<i64>, usize),
}

/// A native job's answer with its algorithm call, timed inside the job
/// closure from outside the algorithms layer.
type Timed = (Answer, Instant, Instant);

enum Handle {
    Native(JobHandle<Timed>),
    Query(JobHandle<QueryResult>),
}

/// A submitted (or refused) job on its way to the reply thread.
struct Pending {
    slot: usize,
    kind: Kind,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: Result<Handle, Outcome>,
}

struct JobRec {
    slot: usize,
    kind: Kind,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    queue_wait: Duration,
    run: Duration,
    call: Option<(Instant, Instant)>,
    iterations: usize,
    exec: Option<JobExec>,
    outcome: Outcome,
}

impl JobRec {
    fn dispatched(&self) -> Instant {
        self.submit_end + self.queue_wait
    }

    /// Completion as the server accounts it: enqueue plus queue wait plus
    /// run. Joins happen in submission order, so the reply thread's own
    /// clock would charge a fast job for a slow predecessor.
    fn done(&self) -> Instant {
        self.dispatched() + self.run
    }

    /// Due time to completion; failed and refused jobs count as missing
    /// every latency limit.
    fn latency_ms(&self) -> f64 {
        if self.outcome == Outcome::Ok {
            (self.done() - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    fn call_s(&self) -> Option<f64> {
        self.call.map(|(a, b)| (b - a).as_secs_f64())
    }
}

fn refusal(e: &JobError) -> Outcome {
    match e {
        JobError::QueueFull { .. }
        | JobError::AdmissionDenied { .. }
        | JobError::Overloaded { .. } => Outcome::Refused,
        _ => Outcome::Error,
    }
}

struct Sessions<'a> {
    interactive: Session<Engine>,
    batch: Session<Engine>,
    roots: &'a [NodeId],
    query: String,
}

impl Sessions<'_> {
    fn submit(&self, slot: usize, kind: Kind, due: Instant) -> Pending {
        let submit_start = Instant::now();
        let handle = match kind {
            Kind::QueryPr => self
                .interactive
                .query(&self.query)
                .map(Handle::Query)
                .map_err(|e| match e {
                    QuerySubmitError::Submit(e) => refusal(&e),
                    QuerySubmitError::Compile(_) => Outcome::Error,
                }),
            Kind::NativePr => native(&self.interactive, Lane::Interactive, 4, |e, c| {
                algos::try_pagerank_pull_with(e, DAMPING, PR_ITERS, 0.0, c)
                    .map(|r| Answer::Scores(r.scores))
            }),
            Kind::HopDist(i) => {
                let root = self.roots[i];
                native(&self.batch, Lane::Batch, 3, move |e, _| {
                    algos::try_hopdist(e, root).map(|r| Answer::Hops(r.hops, r.iterations))
                })
            }
            Kind::Wcc => native(&self.batch, Lane::Batch, 4, |e, c| {
                algos::try_wcc_with(e, c).map(|r| Answer::Labels(r.component, r.iterations))
            }),
        };
        Pending {
            slot,
            kind,
            due,
            submit_start,
            submit_end: Instant::now(),
            handle,
        }
    }
}

fn native(
    session: &Session<Engine>,
    lane: Lane,
    props: usize,
    f: impl FnOnce(&mut Engine, &CancelToken) -> Result<Answer, JobError> + Send + 'static,
) -> Result<Handle, Outcome> {
    session
        .submit(lane, props, move |e: &mut Engine, c: &CancelToken| {
            let start = Instant::now();
            let answer = f(e, c)?;
            Ok((answer, start, Instant::now()))
        })
        .map(Handle::Native)
        .map_err(|e| refusal(&e))
}

/// Output references for the served graph.
struct Refs {
    pr: Vec<f64>,
    wcc: Vec<u32>,
    bfs: Vec<Vec<i64>>,
}

/// Waits for a job and checks its output: native PageRank within
/// [`PR_TOL`] of the sequential baseline, query PageRank within it of the
/// first native result, WCC and hop distances exact.
fn complete(p: Pending, refs: &Refs, native_pr: &mut Option<Vec<f64>>) -> JobRec {
    let mut rec = JobRec {
        slot: p.slot,
        kind: p.kind,
        due: p.due,
        submit_start: p.submit_start,
        submit_end: p.submit_end,
        queue_wait: Duration::ZERO,
        run: Duration::ZERO,
        call: None,
        iterations: 0,
        exec: None,
        outcome: Outcome::Error,
    };
    let handle = match p.handle {
        Ok(h) => h,
        Err(outcome) => {
            rec.outcome = outcome;
            return rec;
        }
    };
    let (good, report) = match handle {
        Handle::Native(h) => {
            let (res, report) = h.join_with_report();
            let good = res.ok().map(|(answer, a, b)| {
                rec.call = Some((a, b));
                match answer {
                    Answer::Scores(s) => {
                        let ok = max_abs_diff(&s, &refs.pr) <= PR_TOL;
                        native_pr.get_or_insert(s);
                        ok
                    }
                    Answer::Labels(l, it) => {
                        rec.iterations = it;
                        l == refs.wcc
                    }
                    Answer::Hops(h, it) => {
                        rec.iterations = it;
                        matches!(p.kind, Kind::HopDist(i) if h == refs.bfs[i])
                    }
                }
            });
            (good, report)
        }
        Handle::Query(h) => {
            let (res, report) = h.join_with_report();
            let good = res.ok().map(|q| {
                let col = q.as_column().and_then(|(_, c)| c.as_f64());
                let want = native_pr.as_deref().unwrap_or(&refs.pr);
                col.is_some_and(|c| max_abs_diff(c, want) <= PR_TOL)
            });
            (good, report)
        }
    };
    if let Some(r) = report {
        rec.queue_wait = r.queue_wait;
        rec.run = r.run;
        rec.exec = r.exec;
    }
    rec.outcome = match good {
        None => Outcome::Error,
        Some(false) => Outcome::Wrong,
        Some(true) => Outcome::Ok,
    };
    rec
}

fn reply_loop(rx: Receiver<Pending>, refs: &Refs, rec: &Recorder) -> Vec<JobRec> {
    let mut native_pr = None;
    let mut out = Vec::new();
    for p in rx {
        let r = complete(p, refs, &mut native_pr);
        job_spans(rec, &r);
        out.push(r);
    }
    out
}

/// One served job's spans: due → completion, split into generator lag,
/// submission, queueing and the run, with the algorithm call and the
/// engine's phases inside the run.
fn job_spans(rec: &Recorder, r: &JobRec) {
    if !rec.on() || r.outcome != Outcome::Ok {
        return;
    }
    let job = r.slot as u64;
    let root = rec.span("bench.job", r.due, r.done(), None, job);
    rec.span("load.lag", r.due, r.submit_start, root, job);
    let submit = if r.kind == Kind::QueryPr {
        "query.compile_submit"
    } else {
        "sched.submit"
    };
    rec.span(submit, r.submit_start, r.submit_end, root, job);
    rec.span("sched.queue", r.submit_end, r.dispatched(), root, job);
    let run = rec.span("sched.run", r.dispatched(), r.done(), root, job);
    let (a, b) = r.call.unwrap_or((r.dispatched(), r.done()));
    let call = rec.span(r.kind.span(), a, b, run, job);
    if let Some(exec) = &r.exec {
        layers::phase_spans(rec, exec, r.dispatched(), call, job);
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, rec: &Recorder) -> Pass {
    eprintln!("[perfbench] generating TWT-Quick inputs (seed {seed})");
    let nodes = 1usize << SCALE;
    let edges = input::rmat_edges(SCALE, EDGE_FACTOR, seed);
    let ref_graph = input::build_graph(nodes, &edges);
    let roots = input::roots(&ref_graph, seed, ROOTS);
    let calib = host::calibrate(&ref_graph, 2, PR_ITERS, 3);
    let refs = Refs {
        pr: calib.seq_pr.clone(),
        wcc: pgxd_baselines::seq::wcc(&ref_graph),
        bfs: roots
            .iter()
            .map(|&r| pgxd_baselines::seq::bfs(&ref_graph, r))
            .collect(),
    };
    let num_edges = ref_graph.num_edges();
    let open_jobs = MIN_OPEN_JOBS.max((OPEN_RATE * seconds as f64 * OPEN_SHARE) as usize);
    let order = job_order(seed, open_jobs + 100_000);

    let mut e2e = Sheet::default();
    let mut layer = Sheet::default();
    let mut tally = Tally::default();
    let config = Config::builder()
        .machines(2)
        .workers(1)
        .telemetry(if traced {
            TelemetryConfig::on()
        } else {
            TelemetryConfig::off()
        })
        .build()
        .expect("benchmark engine config is valid");

    // Set-up: CSR build, engine build, server start — repeated, median.
    let (mut total, mut csr, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut server: Option<JobServer<Engine>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            drop(old.shutdown());
        }
        let t0 = Instant::now();
        let graph: Graph = input::build_graph(nodes, &edges);
        let t1 = Instant::now();
        let engine = match EngineBuilder::from_config(config.clone()).build(&graph) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("[perfbench] engine build failed: {e}");
                tally.record(Outcome::Error);
                break;
            }
        };
        let t2 = Instant::now();
        server = Some(engine.into_server());
        let t3 = Instant::now();
        total.push((t3 - t0).as_secs_f64());
        csr.push((t1 - t0).as_secs_f64());
        build.push((t2 - t1).as_secs_f64());
        let p = rec.span("bench.setup", t0, t3, None, 0);
        rec.span("graph.csr_build", t0, t1, p, 0);
        rec.span("core.engine_build", t1, t2, p, 0);
        rec.span("sched.server_start", t2, t3, p, 0);
    }
    e2e.set("setup_s", median(&total).unwrap_or(0.0), total.len());
    layer.set("graph.csr_build_s", median(&csr).unwrap_or(0.0), csr.len());
    layer.set(
        "core.engine_build_s",
        median(&build).unwrap_or(0.0),
        build.len(),
    );
    layer.set(
        "ref.sa_edge_scan_edges_per_s",
        calib.sa_edge_scan_edges_per_s,
        3,
    );
    layer.set("ref.seq_pr_s", calib.seq_pr_s, 3);
    let Some(server) = server else {
        layer.set("failed_frac", tally.failed_frac(), tally.attempted as usize);
        return Pass { e2e, layer, tally };
    };

    if traced {
        let mut us = Vec::new();
        let text = pr_query();
        for _ in 0..COMPILE_REPS {
            let t = Instant::now();
            let ok = pgxd::query::compile(std::hint::black_box(&text), nodes as u64).is_ok();
            us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.record(if ok { Outcome::Ok } else { Outcome::Error });
        }
        layer.set("query.compile_us", median(&us).unwrap_or(0.0), us.len());
    }

    let sessions = Sessions {
        interactive: server.session("interactive"),
        batch: server.session("batch"),
        roots: &roots,
        query: pr_query(),
    };

    // Open loop: job k is due at start + k / rate, whatever happened
    // before it.
    eprintln!("[perfbench] open loop: {open_jobs} jobs at {OPEN_RATE} jobs/s");
    let (open, lag_ms) = std::thread::scope(|s| {
        let (tx, rx) = channel::<Pending>();
        let replies = s.spawn(|| reply_loop(rx, &refs, rec));
        let start = Instant::now() + Duration::from_millis(5);
        let mut lag_ms = Vec::with_capacity(open_jobs);
        for (k, &kind) in order[..open_jobs].iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / OPEN_RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let p = sessions.submit(k, kind, due);
            lag_ms.push((p.submit_start - due).as_secs_f64() * 1e3);
            tx.send(p).expect("reply thread alive");
        }
        drop(tx);
        (replies.join().expect("reply thread panicked"), lag_ms)
    });

    // Saturation: keep SAT_WINDOW jobs outstanding for the rest of the
    // run; capacity is the completion rate inside the window.
    let sat_s = (seconds as f64 * (1.0 - OPEN_SHARE)).max(1.0);
    eprintln!("[perfbench] saturation for {sat_s:.1} s");
    let mut sat = Vec::new();
    let mut pending = VecDeque::new();
    let mut native_pr = None;
    let sat_start = Instant::now();
    let sat_end = sat_start + Duration::from_secs_f64(sat_s);
    let mut next = open_jobs;
    loop {
        while pending.len() < SAT_WINDOW && Instant::now() < sat_end && next < order.len() {
            pending.push_back(sessions.submit(next, order[next], Instant::now()));
            next += 1;
        }
        let Some(p) = pending.pop_front() else { break };
        let r = complete(p, &refs, &mut native_pr);
        job_spans(rec, &r);
        sat.push(r);
    }
    drop(sessions);
    drop(server.shutdown());

    for r in open.iter().chain(&sat) {
        tally.record(r.outcome);
    }
    summarize(
        &open, &sat, &lag_ms, sat_end, num_edges, &mut e2e, &mut layer,
    );
    layer.set("failed_frac", tally.failed_frac(), tally.attempted as usize);
    Pass { e2e, layer, tally }
}

fn summarize(
    open: &[JobRec],
    sat: &[JobRec],
    lag_ms: &[f64],
    sat_end: Instant,
    edges: usize,
    e2e: &mut Sheet,
    layer: &mut Sheet,
) {
    let lat: Vec<f64> = open.iter().map(JobRec::latency_ms).collect();
    let pct = |v: &[f64], q: f64| ceil_rank(v, q).map_or(0.0, |x| x.min(f64::MAX));
    e2e.set("job_latency_p50_ms", pct(&lat, 0.5), lat.len());
    e2e.set("job_latency_p95_ms", pct(&lat, 0.95), lat.len());

    let mut done: Vec<Instant> = sat
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .map(JobRec::done)
        .filter(|&d| d <= sat_end)
        .collect();
    done.sort();
    let rate = match (done.first(), done.last()) {
        (Some(a), Some(b)) if b > a => (done.len() - 1) as f64 / (*b - *a).as_secs_f64(),
        _ => 0.0,
    };
    e2e.set("jobs_per_s", rate, done.len());

    let ok: Vec<&JobRec> = open
        .iter()
        .chain(sat)
        .filter(|r| r.outcome == Outcome::Ok)
        .collect();
    let calls = |k: fn(Kind) -> bool| -> Vec<f64> {
        ok.iter()
            .filter(|r| k(r.kind))
            .filter_map(|r| r.call_s())
            .collect()
    };
    let pr = calls(|k| k == Kind::NativePr);
    let rates: Vec<f64> = pr.iter().map(|s| (edges * PR_ITERS) as f64 / s).collect();
    e2e.set("pr_edges_per_s", median(&rates).unwrap_or(0.0), rates.len());
    let wcc = calls(|k| k == Kind::Wcc);
    e2e.set("wcc_s", median(&wcc).unwrap_or(0.0), wcc.len());
    let bfs = calls(|k| matches!(k, Kind::HopDist(_)));
    e2e.set("bfs_s", median(&bfs).unwrap_or(0.0), bfs.len());

    layer.set(
        "algorithms.pr_iter_ms",
        median(&pr).unwrap_or(0.0) / PR_ITERS as f64 * 1e3,
        pr.len(),
    );
    let mean_iters = |k: fn(Kind) -> bool| {
        let v: Vec<f64> = ok
            .iter()
            .filter(|r| k(r.kind))
            .map(|r| r.iterations as f64)
            .collect();
        (v.iter().sum::<f64>() / v.len().max(1) as f64, v.len())
    };
    let (v, n) = mean_iters(|k| k == Kind::Wcc);
    layer.set("algorithms.wcc_iterations", v, n);
    let (v, n) = mean_iters(|k| matches!(k, Kind::HopDist(_)));
    layer.set("algorithms.bfs_levels", v, n);

    let open_ok: Vec<&JobRec> = open.iter().filter(|r| r.outcome == Outcome::Ok).collect();
    let ms = |f: fn(&JobRec) -> f64| open_ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let qw = ms(|r| r.queue_wait.as_secs_f64() * 1e3);
    layer.set("sched.queue_wait_p50_ms", pct(&qw, 0.5), qw.len());
    layer.set("sched.queue_wait_p95_ms", pct(&qw, 0.95), qw.len());
    let run = ms(|r| r.run.as_secs_f64() * 1e3);
    layer.set("sched.run_p50_ms", pct(&run, 0.5), run.len());
    let overhead: Vec<f64> = open_ok
        .iter()
        .filter_map(|r| {
            r.exec.as_ref().map(|e| {
                (r.run.as_secs_f64() - e.compute_s - e.comm_s - e.drain_s - e.checkpoint_s) * 1e3
            })
        })
        .collect();
    layer.set(
        "sched.dispatch_overhead_ms",
        pct(&overhead, 0.5),
        overhead.len(),
    );
    let submit_us: Vec<f64> = open
        .iter()
        .filter(|r| r.kind != Kind::QueryPr && r.outcome != Outcome::Refused)
        .map(|r| (r.submit_end - r.submit_start).as_secs_f64() * 1e6)
        .collect();
    layer.set("sched.submit_us", pct(&submit_us, 0.5), submit_us.len());
    let refused = open
        .iter()
        .chain(sat)
        .filter(|r| r.outcome == Outcome::Refused);
    layer.set(
        "sched.refused",
        refused.count() as f64,
        open.len() + sat.len(),
    );
    let runs = |k: Kind| {
        ok.iter()
            .filter(|r| r.kind == k)
            .map(|r| r.run.as_secs_f64())
            .collect::<Vec<f64>>()
    };
    let (q, n) = (runs(Kind::QueryPr), runs(Kind::NativePr));
    if let (Some(q_med), Some(n_med)) = (median(&q), median(&n)) {
        layer.set("query.run_vs_native", q_med / n_med, q.len().min(n.len()));
    }
    layer.set("load.lag_p95_ms", pct(lag_ms, 0.95), lag_ms.len());

    let execs: Vec<JobExec> = ok.iter().filter_map(|r| r.exec.clone()).collect();
    layers::fold_execs(layer, &execs, ok.len(), 1, edges);
}
