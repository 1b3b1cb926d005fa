//! The batch rungs of the ladder: one fixed trial — PageRank-pull, then
//! WCC, then hop distance from a seeded root — on one seeded TWT-Full
//! graph, with only the machine layout and transport changing:
//!
//! * `batch-local`: 1 machine × 2 workers, no messaging at all;
//! * `batch-dist`: 2 in-memory machines × 1 worker;
//! * `batch-tcp`: 2 node-mode ranks over loopback TCP, one thread each.

use crate::host::{self, max_abs_diff, DAMPING, PR_TOL};
use crate::input;
use crate::layers;
use crate::metrics::Sheet;
use crate::stats::{ceil_rank, median, Outcome, Tally};
use crate::trace::Recorder;
use crate::Pass;
use pgxd::serve::{JobCtx, JobExec, JobOutcome};
use pgxd::transport::{bind_coordinator, bootstrap, Membership};
use pgxd::TransportConfig;
use pgxd::{Config, Dir, Engine, EngineBuilder, JobError, JobSpec, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::{Graph, NodeId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// TWT-Full: 2^16 nodes, 16 edges per node before self-loop removal.
const SCALE: u32 = 16;
const EDGE_FACTOR: usize = 16;
/// PageRank iterations per trial (tolerance 0, so exactly this many).
const PR_ITERS: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Seeded BFS roots, used round-robin by successive trials.
const ROOTS: usize = 8;
/// No-op edge scans per traced run (the L1 rung).
const SCAN_REPS: usize = 5;
/// Trials measured even when `--seconds` runs out first.
const MIN_TRIALS: usize = 3;
/// Bound on every TCP bootstrap wait.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Local,
    Dist,
    Tcp,
}

impl Shape {
    fn machines(self) -> usize {
        match self {
            Shape::Local => 1,
            _ => 2,
        }
    }

    /// Worker threads per machine: the cluster's worker threads equal the
    /// host's two cores in every shape.
    fn workers(self) -> usize {
        match self {
            Shape::Local => 2,
            _ => 1,
        }
    }
}

fn config(shape: Shape, traced: bool, tcp: Option<(&str, u16)>) -> Config {
    let mut b = Config::builder()
        .machines(shape.machines())
        .workers(shape.workers())
        .telemetry(if traced {
            TelemetryConfig::on()
        } else {
            TelemetryConfig::off()
        });
    if let Some((coord, rank)) = tcp {
        b = b.transport(TransportConfig::tcp(coord, rank));
    }
    b.build().expect("benchmark engine config is valid")
}

/// One call into the algorithms layer, timed from outside it.
struct Call {
    start: Instant,
    end: Instant,
    exec: Option<JobExec>,
}

impl Call {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// What one rank returns for one trial.
struct TrialOut {
    pr: Vec<f64>,
    wcc: Vec<u32>,
    wcc_iters: usize,
    hops: Vec<i64>,
    bfs_levels: usize,
    calls: [Call; 3],
}

const CALL_NAMES: [&str; 3] = [
    "algorithms.pagerank_pull",
    "algorithms.wcc",
    "algorithms.hopdist",
];

/// Runs `f` as one timed call; when traced, inside an engine job window so
/// the engine's own accounting is attributed to it.
fn timed<T>(
    engine: &mut Engine,
    traced: bool,
    job: u64,
    f: impl FnOnce(&mut Engine) -> Result<T, JobError>,
) -> Result<(T, Call), JobError> {
    if traced {
        engine.begin_job_window(
            JobCtx {
                job,
                session: 1,
                lane: 1,
            },
            0,
        );
    }
    let start = Instant::now();
    let r = f(engine);
    let end = Instant::now();
    let exec = if traced {
        engine.end_job_window(if r.is_ok() {
            JobOutcome::Done
        } else {
            JobOutcome::Failed
        })
    } else {
        None
    };
    r.map(|v| (v, Call { start, end, exec }))
}

fn trial(engine: &mut Engine, root: NodeId, traced: bool, job: u64) -> Result<TrialOut, JobError> {
    let (pr, c0) = timed(engine, traced, job, |e| {
        algos::try_pagerank_pull(e, DAMPING, PR_ITERS, 0.0)
    })?;
    let (wcc, c1) = timed(engine, traced, job + 1, algos::try_wcc)?;
    let (bfs, c2) = timed(engine, traced, job + 2, |e| algos::try_hopdist(e, root))?;
    Ok(TrialOut {
        pr: pr.scores,
        wcc: wcc.component,
        wcc_iters: wcc.iterations,
        hops: bfs.hops,
        bfs_levels: bfs.iterations,
        calls: [c0, c1, c2],
    })
}

/// A bare no-op edge job over every out-edge: the engine's floor cost of
/// one edge pass.
fn edge_scan(engine: &mut Engine) -> Result<f64, JobError> {
    let t = Instant::now();
    engine.try_run_edge_job(Dir::Out, &JobSpec::new(), pgxd::tasks::on_edge(|_ctx| {}))?;
    Ok(t.elapsed().as_secs_f64())
}

#[derive(Clone, Copy)]
enum Cmd {
    Trial(NodeId, u64),
    Scan,
    Stop,
}

enum Reply {
    Trial(Result<Box<TrialOut>, JobError>),
    Scan(Result<f64, JobError>),
    /// Wire repairs seen by the transport: (reconnects, reader EOFs).
    Stopped(u64, u64),
}

fn execute(engine: &mut Engine, cmd: Cmd, traced: bool) -> Reply {
    match cmd {
        Cmd::Trial(root, job) => Reply::Trial(trial(engine, root, traced, job).map(Box::new)),
        Cmd::Scan => Reply::Scan(edge_scan(engine)),
        Cmd::Stop => {
            let w = engine.wire_counters().unwrap_or_default();
            Reply::Stopped(w.reconnects_dialed + w.reconnects_accepted, w.reader_eofs)
        }
    }
}

/// A TCP rank's driver loop: runs each command in SPMD lockstep with the
/// other rank, and tears the rank down after `Stop`.
fn rank_loop(mut engine: Engine, traced: bool, rx: Receiver<Cmd>, tx: Sender<Reply>) {
    while let Ok(cmd) = rx.recv() {
        let stop = matches!(cmd, Cmd::Stop);
        let reply = execute(&mut engine, cmd, traced);
        if stop {
            // Both ranks leave together, so neither sees the other's
            // teardown as a peer failure.
            let _ = engine.cluster().node_barrier();
        }
        if tx.send(reply).is_err() || stop {
            break;
        }
    }
}

/// Inputs and output references of one batch run.
struct Fixture {
    nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    graph: Graph,
    roots: Vec<NodeId>,
    ref_wcc: Vec<u32>,
    ref_bfs: Vec<Vec<i64>>,
    calib: host::Calibration,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let nodes = 1usize << SCALE;
        let edges = input::rmat_edges(SCALE, EDGE_FACTOR, seed);
        let graph = input::build_graph(nodes, &edges);
        let roots = input::roots(&graph, seed, ROOTS);
        let calib = host::calibrate(&graph, 2, PR_ITERS, 3);
        Fixture {
            ref_wcc: pgxd_baselines::seq::wcc(&graph),
            ref_bfs: roots
                .iter()
                .map(|&r| pgxd_baselines::seq::bfs(&graph, r))
                .collect(),
            nodes,
            edges,
            graph,
            roots,
            calib,
        }
    }
}

/// Set-up timings of one repetition.
#[derive(Default)]
struct Setup {
    total_s: f64,
    csr_s: f64,
    build_s: f64,
    boot_s: f64,
}

pub fn run(shape: Shape, seed: u64, seconds: u64, traced: bool, rec: &Recorder) -> Pass {
    eprintln!("[perfbench] generating TWT-Full inputs (seed {seed})");
    let fx = Fixture::new(seed);
    let mut setups = Vec::new();
    let mut measured = None;
    let mut tally = Tally::default();
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let t0 = Instant::now();
        let graph = input::build_graph(fx.nodes, &fx.edges);
        let csr_s = t0.elapsed().as_secs_f64();
        let result = match shape {
            Shape::Tcp => tcp_rep(&fx, &graph, t0, csr_s, traced, last, seconds, rec),
            _ => mem_rep(&fx, graph, shape, t0, csr_s, traced, last, seconds, rec),
        };
        match result {
            Ok((setup, m)) => {
                let at = |s: f64| t0 + Duration::from_secs_f64(s);
                let p = rec.span("bench.setup", t0, at(setup.total_s), None, 0);
                rec.span("graph.csr_build", t0, at(csr_s), p, 0);
                if shape == Shape::Tcp {
                    rec.span("tcp.bootstrap", at(csr_s), at(csr_s + setup.boot_s), p, 0);
                }
                let built = at(csr_s + setup.boot_s);
                rec.span("core.engine_build", built, at(setup.total_s), p, 0);
                setups.push(setup);
                measured = measured.or(m);
            }
            Err(e) => {
                eprintln!("[perfbench] setup failed: {e}");
                tally.record(Outcome::Error);
                break;
            }
        }
    }

    let mut e2e = Sheet::default();
    let mut layer = Sheet::default();
    let pick =
        |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    e2e.set("setup_s", pick(|s| s.total_s), setups.len());
    layer.set("graph.csr_build_s", pick(|s| s.csr_s), setups.len());
    layer.set("core.engine_build_s", pick(|s| s.build_s), setups.len());
    layer.set("tcp.bootstrap_s", pick(|s| s.boot_s), setups.len());
    layer.set(
        "ref.sa_edge_scan_edges_per_s",
        fx.calib.sa_edge_scan_edges_per_s,
        3,
    );
    layer.set("ref.seq_pr_s", fx.calib.seq_pr_s, 3);

    if let Some(m) = measured {
        tally.merge(m.tally);
        summarize(&fx, &m, &mut e2e, &mut layer);
    }
    layer.set("failed_frac", tally.failed_frac(), tally.attempted as usize);
    Pass { e2e, layer, tally }
}

/// One in-memory set-up; on the last repetition, the measured trials.
#[allow(clippy::too_many_arguments)]
fn mem_rep(
    fx: &Fixture,
    graph: Graph,
    shape: Shape,
    t0: Instant,
    csr_s: f64,
    traced: bool,
    last: bool,
    seconds: u64,
    rec: &Recorder,
) -> Result<(Setup, Option<Measured>), String> {
    let t = Instant::now();
    let mut engine = EngineBuilder::from_config(config(shape, traced, None)).build(&graph)?;
    let setup = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        csr_s,
        build_s: t.elapsed().as_secs_f64(),
        boot_s: 0.0,
    };
    drop(graph);
    let m = last.then(|| {
        measure(
            fx,
            &mut |cmd| vec![execute(&mut engine, cmd, traced)],
            traced,
            seconds,
            rec,
        )
    });
    Ok((setup, m))
}

/// One TCP set-up: bootstraps two ranks on their own threads, and on the
/// last repetition drives the measured trials through them.
#[allow(clippy::too_many_arguments)]
fn tcp_rep(
    fx: &Fixture,
    graph: &Graph,
    t0: Instant,
    csr_s: f64,
    traced: bool,
    last: bool,
    seconds: u64,
    rec: &Recorder,
) -> Result<(Setup, Option<Measured>), String> {
    std::thread::scope(|s| {
        let (addr_tx, addr_rx) = channel::<String>();
        let (ready_tx, ready_rx) = channel::<Result<(f64, f64), String>>();
        let (cmd0_tx, cmd0_rx) = channel::<Cmd>();
        let (cmd1_tx, cmd1_rx) = channel::<Cmd>();
        let (rep0_tx, rep0_rx) = channel::<Reply>();
        let (rep1_tx, rep1_rx) = channel::<Reply>();
        let ready0 = ready_tx.clone();
        s.spawn(move || {
            let t = Instant::now();
            let boot = bind_coordinator("127.0.0.1:0").and_then(|(handle, addr)| {
                let coord = addr.to_string();
                let _ = addr_tx.send(coord.clone());
                let cfg = config(Shape::Tcp, traced, Some((&coord, 0)));
                handle
                    .wait_cluster(2, &cfg.transport.listen_addr, BOOT_TIMEOUT)
                    .map(|m| (cfg, m))
            });
            start_rank(boot, t, graph, traced, ready0, cmd0_rx, rep0_tx);
        });
        s.spawn(move || {
            let t = Instant::now();
            let boot = match addr_rx.recv_timeout(BOOT_TIMEOUT) {
                Ok(coord) => {
                    let cfg = config(Shape::Tcp, traced, Some((&coord, 1)));
                    bootstrap(&cfg).map(|m| (cfg, m))
                }
                Err(_) => Err(JobError::Protocol(
                    "rank 0 never announced its coordinator".into(),
                )),
            };
            start_rank(boot, t, graph, traced, ready_tx, cmd1_rx, rep1_tx);
        });

        let mut setup = Setup {
            csr_s,
            ..Setup::default()
        };
        let mut failure = None;
        for _ in 0..2 {
            match ready_rx.recv() {
                Ok(Ok((boot_s, build_s))) => {
                    setup.boot_s = setup.boot_s.max(boot_s);
                    setup.build_s = setup.build_s.max(build_s);
                }
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some("rank thread exited during set-up".into()),
            }
        }
        setup.total_s = t0.elapsed().as_secs_f64();
        if let Some(e) = failure {
            // Dropping the command channels ends any rank that did start.
            return Err(e);
        }

        let mut run_cmd = |cmd: Cmd| -> Vec<Reply> {
            let _ = cmd0_tx.send(cmd);
            let _ = cmd1_tx.send(cmd);
            [&rep0_rx, &rep1_rx]
                .iter()
                .map(|rx| {
                    rx.recv().unwrap_or_else(|_| {
                        Reply::Trial(Err(JobError::Protocol("rank thread exited".into())))
                    })
                })
                .collect()
        };
        let m = if last {
            Some(measure(fx, &mut run_cmd, traced, seconds, rec))
        } else {
            run_cmd(Cmd::Stop);
            None
        };
        Ok((setup, m))
    })
}

/// Finishes a rank's set-up (engine load on top of the bootstrapped
/// membership), reports its timings, and serves commands until `Stop`.
fn start_rank(
    boot: Result<(Config, Membership), JobError>,
    t: Instant,
    graph: &Graph,
    traced: bool,
    ready: Sender<Result<(f64, f64), String>>,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    let boot_s = t.elapsed().as_secs_f64();
    let built = boot.and_then(|(cfg, membership)| {
        let t = Instant::now();
        EngineBuilder::from_config(cfg)
            .build_node_with(graph, membership)
            .map(|e| (e, t.elapsed().as_secs_f64()))
            .map_err(JobError::Protocol)
    });
    match built {
        Ok((engine, build_s)) => {
            let _ = ready.send(Ok((boot_s, build_s)));
            rank_loop(engine, traced, rx, tx);
        }
        Err(e) => {
            let _ = ready.send(Err(e.to_string()));
        }
    }
}

/// Per-trial timings, seconds, of the three calls (slowest rank).
struct TrialRec {
    secs: [f64; 3],
    wcc_iters: usize,
    bfs_levels: usize,
}

struct Measured {
    trials: Vec<TrialRec>,
    scans: Vec<f64>,
    execs: Vec<JobExec>,
    ranks: usize,
    reconnects: u64,
    reader_eofs: u64,
    tally: Tally,
}

/// One warm-up trial, then trials until `seconds` have passed (at least
/// [`MIN_TRIALS`]), every output checked; then, when traced, the no-op
/// edge scans; then `Stop`.
fn measure(
    fx: &Fixture,
    run: &mut dyn FnMut(Cmd) -> Vec<Reply>,
    traced: bool,
    seconds: u64,
    rec: &Recorder,
) -> Measured {
    let mut m = Measured {
        trials: Vec::new(),
        scans: Vec::new(),
        execs: Vec::new(),
        ranks: 1,
        reconnects: 0,
        reader_eofs: 0,
        tally: Tally::default(),
    };
    let mut deadline: Option<Instant> = None;
    for k in 0.. {
        if deadline.is_some_and(|d| Instant::now() >= d) && m.trials.len() >= MIN_TRIALS {
            break;
        }
        let root_idx = k % ROOTS;
        let outs: Result<Vec<Box<TrialOut>>, JobError> =
            run(Cmd::Trial(fx.roots[root_idx], 3 * k as u64 + 1))
                .into_iter()
                .map(|r| match r {
                    Reply::Trial(t) => t,
                    _ => Err(JobError::Protocol("unexpected rank reply".into())),
                })
                .collect();
        let outs = match outs {
            Ok(outs) => outs,
            Err(e) => {
                eprintln!("[perfbench] trial failed: {e}");
                m.tally.record(Outcome::Error);
                break;
            }
        };
        for good in check(fx, &outs, root_idx) {
            m.tally
                .record(if good { Outcome::Ok } else { Outcome::Wrong });
        }
        if deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs(seconds));
            continue;
        }
        let slowest = |i: usize| outs.iter().map(|o| o.calls[i].secs()).fold(0.0, f64::max);
        m.trials.push(TrialRec {
            secs: [slowest(0), slowest(1), slowest(2)],
            wcc_iters: outs[0].wcc_iters,
            bfs_levels: outs[0].bfs_levels,
        });
        if rec.on() {
            let calls = &outs[0].calls;
            let p = rec.span("bench.trial", calls[0].start, calls[2].end, None, k as u64);
            for (c, name) in calls.iter().zip(CALL_NAMES) {
                let a = rec.span(name, c.start, c.end, p, k as u64);
                if let Some(exec) = &c.exec {
                    layers::phase_spans(rec, exec, c.start, a, k as u64);
                }
            }
        }
        m.ranks = outs.len();
        for o in outs {
            m.execs.extend(o.calls.into_iter().filter_map(|c| c.exec));
        }
    }
    if traced {
        for _ in 0..SCAN_REPS {
            let secs: Result<Vec<f64>, JobError> = run(Cmd::Scan)
                .into_iter()
                .map(|r| match r {
                    Reply::Scan(s) => s,
                    _ => Err(JobError::Protocol("unexpected rank reply".into())),
                })
                .collect();
            match secs {
                Ok(s) => m.scans.push(s.into_iter().fold(0.0, f64::max)),
                Err(e) => {
                    eprintln!("[perfbench] edge scan failed: {e}");
                    m.tally.record(Outcome::Error);
                    break;
                }
            }
        }
    }
    for r in run(Cmd::Stop) {
        if let Reply::Stopped(reconnects, eofs) = r {
            m.reconnects += reconnects;
            m.reader_eofs += eofs;
        }
    }
    m
}

/// Checks one trial's outputs on every rank: PageRank within [`PR_TOL`]
/// of the sequential baseline, WCC labels and hop distances exactly equal
/// to it, and every rank returning bit-identical vectors.
fn check(fx: &Fixture, outs: &[Box<TrialOut>], root_idx: usize) -> [bool; 3] {
    let first = &outs[0];
    let same_bits = |o: &TrialOut| {
        o.pr.iter()
            .map(|x| x.to_bits())
            .eq(first.pr.iter().map(|x| x.to_bits()))
    };
    [
        outs.iter()
            .all(|o| max_abs_diff(&o.pr, &fx.calib.seq_pr) <= PR_TOL && same_bits(o)),
        outs.iter().all(|o| o.wcc == fx.ref_wcc),
        outs.iter().all(|o| o.hops == fx.ref_bfs[root_idx]),
    ]
}

fn summarize(fx: &Fixture, m: &Measured, e2e: &mut Sheet, layer: &mut Sheet) {
    let n = m.trials.len();
    let edges = fx.graph.num_edges();
    let col = |i: usize| m.trials.iter().map(|t| t.secs[i]).collect::<Vec<f64>>();
    let pr_s = col(0);
    let rates: Vec<f64> = pr_s.iter().map(|s| (edges * PR_ITERS) as f64 / s).collect();
    e2e.set("pr_edges_per_s", median(&rates).unwrap_or(0.0), n);
    e2e.set("wcc_s", median(&col(1)).unwrap_or(0.0), n);
    e2e.set("bfs_s", median(&col(2)).unwrap_or(0.0), n);
    // Each algorithm call is one job, run closed loop, back to back.
    let calls: Vec<f64> = (0..3).flat_map(col).collect();
    let ms: Vec<f64> = calls.iter().map(|s| s * 1e3).collect();
    e2e.set(
        "job_latency_p50_ms",
        ceil_rank(&ms, 0.5).unwrap_or(0.0),
        ms.len(),
    );
    e2e.set(
        "job_latency_p95_ms",
        ceil_rank(&ms, 0.95).unwrap_or(0.0),
        ms.len(),
    );
    let busy: f64 = calls.iter().sum();
    e2e.set(
        "jobs_per_s",
        if busy > 0.0 {
            calls.len() as f64 / busy
        } else {
            0.0
        },
        calls.len(),
    );

    layer.set(
        "core.edge_scan_edges_per_s",
        median(&m.scans).map_or(0.0, |s| edges as f64 / s),
        m.scans.len(),
    );
    layer.set(
        "algorithms.pr_iter_ms",
        median(&pr_s).unwrap_or(0.0) / PR_ITERS as f64 * 1e3,
        n,
    );
    let mean = |f: fn(&TrialRec) -> usize| {
        m.trials.iter().map(|t| f(t) as f64).sum::<f64>() / n.max(1) as f64
    };
    layer.set("algorithms.wcc_iterations", mean(|t| t.wcc_iters), n);
    layer.set("algorithms.bfs_levels", mean(|t| t.bfs_levels), n);
    layer.set("tcp.reconnects", m.reconnects as f64, 1);
    layer.set("tcp.reader_eofs", m.reader_eofs as f64, 1);
    layers::fold_execs(layer, &m.execs, n, m.ranks, edges);
}
