//! `fig3-batch`: the paper's Figure 3 as researchers run it — feedback
//! (`fast`) and the DISC'11 sweep (`base`) on G(n, ½) for n = 100…1000,
//! 100 runs per point, through `RunPlan` with 2 jobs in the default
//! stream RNG mode. Thousands of short, dense runs: batch scheduling,
//! per-run setup and dense propagation dominate.

use std::sync::Mutex;
use std::thread::ThreadId;

use mis_beeping::{RunOutcome, SimConfig};
use mis_core::verify::check_mis;
use mis_core::{
    parallel_indexed_map, Algorithm, BatchReport, Engine, FeedbackFactory, GlobalScheduleFactory,
    RunPlan, RunRecord, SweepSchedule,
};
use mis_graph::{generators, Graph};
use rand::{rngs::SmallRng, SeedableRng};

use crate::harness::{derive_seed, insert_latencies, median, ms, ratio, Report};
use crate::layers::{scan, sim_metrics, stepped_run, RunStats};
use crate::trace::{now_ns, Span, Tracer};
use crate::{Args, Metrics, Outcome};

const SIZES: [usize; 10] = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];
const TRIALS: usize = 100;
const EDGE_PROBABILITY: f64 = 0.5;
const JOBS: usize = 2;
/// Builds of the graph set timed for `setup_s`.
const SETUPS: usize = 5;

const GRAPH_STREAM: u64 = 1;
const FEEDBACK_STREAM: u64 = 2;
const SWEEP_STREAM: u64 = 3;

/// One point of the figure: an algorithm's plan on one graph size.
struct Point {
    graph: usize,
    feedback: bool,
    plan: RunPlan,
}

/// Builds the graph set largest first, so the transient buffers of the
/// biggest build never stack on top of the rest of the resident set and
/// the peak RSS reflects the graphs, not the allocator's reuse pattern.
fn build_graphs(seed: u64) -> Vec<Graph> {
    let mut graphs: Vec<Graph> = (0..SIZES.len())
        .rev()
        .map(|i| build_graph(seed, i))
        .collect();
    graphs.reverse();
    graphs
}

fn build_graph(seed: u64, i: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, GRAPH_STREAM, i as u64, 0));
    generators::gnp(SIZES[i], EDGE_PROBABILITY, &mut rng)
}

fn points(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for graph in 0..SIZES.len() {
        for feedback in [true, false] {
            let (algorithm, stream) = if feedback {
                (Algorithm::feedback(), FEEDBACK_STREAM)
            } else {
                (Algorithm::sweep(), SWEEP_STREAM)
            };
            let plan = RunPlan::new(algorithm, TRIALS)
                .with_master_seed(derive_seed(seed, stream, graph as u64, 0))
                .with_jobs(JOBS);
            points.push(Point {
                graph,
                feedback,
                plan,
            });
        }
    }
    points
}

/// One executed batch and the worker completion log
/// `execute_observed` reported.
struct Batch {
    report: BatchReport<RunRecord>,
    start_ns: u64,
    /// (worker, completion time) per run, in completion order.
    done: Vec<(ThreadId, u64)>,
}

fn execute(plan: &RunPlan, g: &Graph, jobs: usize) -> Batch {
    let plan = plan.clone().with_jobs(jobs);
    let done = Mutex::new(Vec::with_capacity(plan.runs));
    let start_ns = now_ns();
    let report = plan.execute_observed(g, |_| {
        let t = now_ns();
        done.lock()
            .expect("completion log poisoned")
            .push((std::thread::current().id(), t));
    });
    Batch {
        report,
        start_ns,
        done: done.into_inner().expect("completion log poisoned"),
    }
}

/// Per-worker completion times, in order of first appearance.
fn by_worker(done: &[(ThreadId, u64)]) -> Vec<Vec<u64>> {
    let mut workers: Vec<(ThreadId, Vec<u64>)> = Vec::new();
    for &(id, t) in done {
        match workers.iter_mut().find(|(w, _)| *w == id) {
            Some((_, times)) => times.push(t),
            None => workers.push((id, vec![t])),
        }
    }
    workers
        .into_iter()
        .map(|(_, mut times)| {
            times.sort_unstable();
            times
        })
        .collect()
}

/// Each run's latency: the gap between consecutive completions on the
/// worker that ran it (the first run counts from the batch start).
fn run_latencies_ns(start_ns: u64, done: &[(ThreadId, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(done.len());
    for times in by_worker(done) {
        let mut prev = start_ns;
        for t in times {
            out.push(t - prev);
            prev = t;
        }
    }
    out
}

/// Worker time spent idle at the end of a batch: for each of `jobs`
/// workers, the gap between its last completion and the batch's last
/// (a worker that completed nothing idles the whole batch).
fn tail_idle_ns(start_ns: u64, done: &[(ThreadId, u64)], jobs: usize) -> u64 {
    let Some(last) = done.iter().map(|&(_, t)| t).max() else {
        return 0;
    };
    let workers = by_worker(done);
    let busy_tail: u64 = workers
        .iter()
        .map(|times| last - times[times.len() - 1])
        .sum();
    busy_tail + jobs.saturating_sub(workers.len()) as u64 * (last - start_ns)
}

/// The reference for one point: each run stepped through the simulator,
/// reduced to the plan's record, with its MIS checked.
struct Reference {
    records: Vec<RunRecord>,
    verified: Vec<bool>,
}

fn stepped(tr: &mut Tracer, g: &Graph, feedback: bool, seed: u64) -> (RunOutcome, RunStats) {
    let config = SimConfig::default();
    if feedback {
        stepped_run(tr, g, &FeedbackFactory::new(), seed, config)
    } else {
        let sweep = GlobalScheduleFactory::new(|_| SweepSchedule::new());
        stepped_run(tr, g, &sweep, seed, config)
    }
}

/// Reduces a stepped run to the point's record and verifies its MIS,
/// inside a `core.verify` span.
fn verify(
    tr: &mut Tracer,
    point: &Point,
    g: &Graph,
    seed: u64,
    o: &RunOutcome,
) -> (RunRecord, bool, u64) {
    let ((record, ok), ns) = tr.span("core.verify", || {
        let record = point.plan.engine.record(g, seed, o);
        let ok = o.terminated() && check_mis(g, &o.mis()).is_ok();
        (record, ok)
    });
    (record, ok, ns)
}

/// Untraced reference pass, spread over `JOBS` threads.
fn reference(points: &[Point], graphs: &[Graph]) -> Vec<Reference> {
    points
        .iter()
        .map(|p| {
            let g = &graphs[p.graph];
            let runs = parallel_indexed_map(TRIALS, JOBS, |i| {
                let seed = p.plan.run_seed(i);
                let mut off = Tracer::disabled();
                let (o, _) = stepped(&mut off, g, p.feedback, seed);
                let (record, ok, _) = verify(&mut off, p, g, seed, &o);
                (record, ok)
            });
            let (records, verified) = runs.into_iter().unzip();
            Reference { records, verified }
        })
        .collect()
}

/// Checks every record of `batch` against the point's reference, and the
/// point's mean rounds against the reference's.
fn check(report: &mut Report, batch: &BatchReport<RunRecord>, reference: &Reference) {
    let reference_mean = BatchReport::from_records(reference.records.clone())
        .rounds()
        .mean();
    let mean_ok = batch.rounds().mean() == reference_mean;
    for (i, record) in batch.records().iter().enumerate() {
        report.check(mean_ok && reference.verified[i] && reference.records.get(i) == Some(record));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut graphs)); // keep one graph set resident at a time
        let t = now_ns();
        graphs = build_graphs(args.seed);
        setup.push((now_ns() - t) as f64 / 1e9);
    }
    let points = points(args.seed);
    let mut out = Outcome::default();
    if args.trace {
        out.spans = traced(args, &points, &mut out.report, &mut out.metrics);
    } else {
        out.samples = untraced(args, &points, &graphs, &mut out.report, &mut out.metrics);
        out.metrics.insert("setup_s", median(&setup));
    }
    Ok(out)
}

fn untraced(
    args: &Args,
    points: &[Point],
    graphs: &[Graph],
    report: &mut Report,
    m: &mut Metrics,
) -> Vec<(&'static str, usize)> {
    let deadline = args.deadline_ns();
    let (mut fast, mut base) = (Vec::new(), Vec::new());
    let (mut runs, mut wall_ns) = (0, 0);
    let mut passes: Vec<Vec<BatchReport<RunRecord>>> = Vec::new();
    while passes.len() < 2 || now_ns() < deadline {
        let t = now_ns();
        let pass: Vec<Batch> = points
            .iter()
            .map(|p| execute(&p.plan, &graphs[p.graph], JOBS))
            .collect();
        wall_ns += now_ns() - t;
        for (p, batch) in points.iter().zip(&pass) {
            let latencies = run_latencies_ns(batch.start_ns, &batch.done);
            runs += latencies.len();
            let class = if p.feedback { &mut fast } else { &mut base };
            class.extend(latencies.into_iter().map(ms));
        }
        passes.push(pass.into_iter().map(|b| b.report).collect());
    }
    let reference = reference(points, graphs);
    for pass in &passes {
        for (batch, r) in pass.iter().zip(&reference) {
            check(report, batch, r);
        }
    }
    insert_latencies(m, &base, &fast);
    m.insert("work_per_s", ratio(runs as f64, wall_ns as f64 / 1e9));
    vec![
        ("base (sweep runs)", base.len()),
        ("fast (feedback runs)", fast.len()),
    ]
}

/// Untraced twins first (a 2-job plan pass and a stepper pass, after a
/// warm-up pass, for the tracing overhead), then the traced pass: `graph.build`/`graph.scan` per
/// size, `core.plan` per point at 2 jobs and at 1 job, and every run
/// stepped (`sim.*`) and checked (`core.verify`) as the reference.
fn traced(args: &Args, points: &[Point], report: &mut Report, m: &mut Metrics) -> Vec<Span> {
    let graphs = build_graphs(args.seed);
    // A warm-up plan pass, so the untraced twin is not charged cold-start
    // costs that the traced pass after it does not pay.
    for p in points {
        let _ = execute(&p.plan, &graphs[p.graph], JOBS);
    }
    let t = now_ns();
    for p in points {
        let _ = execute(&p.plan, &graphs[p.graph], JOBS);
    }
    let mut untraced_ns = now_ns() - t;
    let t = now_ns();
    let mut off = Tracer::disabled();
    for p in points {
        for i in 0..TRIALS {
            let _ = stepped(&mut off, &graphs[p.graph], p.feedback, p.plan.run_seed(i));
        }
    }
    untraced_ns += now_ns() - t;
    drop(graphs);

    let mut tr = Tracer::enabled();
    let root = tr.begin("bench.fig3");
    let (mut build_ns, mut scan_ns) = (0, 0);
    let mut graphs = Vec::new();
    for i in 0..SIZES.len() {
        tr.set_run(i as u64);
        let (g, ns) = tr.span("graph.build", || build_graph(args.seed, i));
        build_ns += ns;
        scan_ns += tr.span("graph.scan", || scan(&g)).1;
        graphs.push(g);
    }
    let mut plan_ns = [0u64; 2];
    let mut tail_idle = 0;
    let mut batches: [Vec<BatchReport<RunRecord>>; 2] = [Vec::new(), Vec::new()];
    let mut traced_ns = 0;
    for (j, jobs) in [JOBS, 1].into_iter().enumerate() {
        for (k, p) in points.iter().enumerate() {
            tr.set_run(k as u64);
            let (batch, ns) = tr.span("core.plan", || execute(&p.plan, &graphs[p.graph], jobs));
            plan_ns[j] += ns;
            if jobs == JOBS {
                traced_ns += ns;
                tail_idle += tail_idle_ns(batch.start_ns, &batch.done, jobs);
            }
            batches[j].push(batch.report);
        }
    }
    let (mut stats, mut verify_ms) = (Vec::new(), Vec::new());
    let mut references = Vec::new();
    for (k, p) in points.iter().enumerate() {
        let g = &graphs[p.graph];
        let mut r = Reference {
            records: Vec::new(),
            verified: Vec::new(),
        };
        for i in 0..TRIALS {
            tr.set_run((k * TRIALS + i) as u64);
            let seed = p.plan.run_seed(i);
            let run = tr.begin("bench.run");
            let (o, st) = stepped(&mut tr, g, p.feedback, seed);
            traced_ns += tr.end(run);
            let (record, ok, ns) = verify(&mut tr, p, g, seed, &o);
            r.records.push(record);
            r.verified.push(ok);
            stats.push(st);
            verify_ms.push(ms(ns));
        }
        references.push(r);
    }
    for pass in &batches {
        for (batch, r) in pass.iter().zip(&references) {
            check(report, batch, r);
        }
    }
    tr.end(root);

    m.insert("graph.build_ms", ms(build_ns));
    m.insert("graph.scan_ms", ms(scan_ns));
    sim_metrics(&stats, m);
    m.insert("core.verify_ms", median(&verify_ms));
    m.insert("core.plan_ms", ms(plan_ns[0]));
    m.insert("core.plan_tail_idle_ms", ms(tail_idle));
    m.insert(
        "core.plan_scaling_eff",
        ratio(plan_ns[1] as f64, plan_ns[0] as f64) / JOBS as f64,
    );
    m.insert("trace.overhead_ms", ms(traced_ns) - ms(untraced_ns));
    tr.into_spans()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_and_tail_idle_from_completion_times() {
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        // Worker a finishes runs at 10, 30, 60; worker b at 20, 90.
        let done = [(a, 10), (b, 20), (a, 30), (a, 60), (b, 90)];
        let mut lat = run_latencies_ns(0, &done);
        lat.sort_unstable();
        assert_eq!(lat, vec![10, 20, 20, 30, 70]);
        assert_eq!(tail_idle_ns(0, &done, 2), 90 - 60);
        // A third worker that never completed a run idles all 90 ns.
        assert_eq!(tail_idle_ns(0, &done, 3), 30 + 90);
        assert_eq!(tail_idle_ns(0, &[], 2), 0);
    }
}
