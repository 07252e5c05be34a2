//! `gnp64k-feedback`: the paper's algorithm run to a verified MIS on
//! G(2¹⁶, d≈16) — the large-graph path of one run (CSR, counter RNG,
//! bitset kernel) — for a sequence of run seeds, each once at 1 shard
//! (`base`) and once at 2 shards (`fast`).
//!
//! The graph is 2¹⁶ nodes rather than 2²⁰: at 2²⁰ the run is DRAM-bound
//! and on a shared host its timings spread 17–25% across seeds, wider
//! than any bound this benchmark can hold; at 2¹⁶ the working set stays in
//! cache and the spread is ~3%, with the same round structure (a long
//! sparse tail, per-node phases dominating).

use mis_beeping::{PropagationKernel, RngMode, RunOutcome, SimConfig};
use mis_core::verify::check_mis;
use mis_core::{run_algorithm, Algorithm, FeedbackFactory};
use mis_graph::{generators, Graph};
use rand::{rngs::SmallRng, SeedableRng};

use crate::harness::{derive_seed, insert_latencies, median, ms, ratio, Report};
use crate::layers::{scan, sim_metrics, stepped_run, RunStats};
use crate::trace::{now_ns, Tracer};
use crate::{Args, Metrics, Outcome};

const NODES: usize = 1 << 16;
const MEAN_DEGREE: f64 = 16.0;
/// Run seeds of the traced pass; the measured loop takes as many as
/// fit its time.
const TRACED_SEEDS: u64 = 10;
/// Graph builds timed for `setup_s`.
const SETUPS: usize = 5;
const SHARDS: [usize; 2] = [1, 2];

const GRAPH_STREAM: u64 = 1;
const RUN_STREAM: u64 = 2;

fn config(shards: usize) -> SimConfig {
    SimConfig::default()
        .with_rng_mode(RngMode::Counter)
        .with_kernel(PropagationKernel::Bitset)
        .with_shards(shards)
}

fn build(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, GRAPH_STREAM, 0, 0));
    generators::gnp(NODES, MEAN_DEGREE / (NODES - 1) as f64, &mut rng)
}

fn is_verified_mis(g: &Graph, o: &RunOutcome) -> bool {
    o.terminated() && check_mis(g, &o.mis()).is_ok()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut graph = None;
    for _ in 0..SETUPS {
        drop(graph.take()); // keep one graph resident at a time
        let t = now_ns();
        graph = Some(build(args.seed));
        setup.push((now_ns() - t) as f64 / 1e9);
    }
    let graph = graph.expect("at least one setup");
    let mut out = Outcome::default();
    if args.trace {
        out.spans = traced(args, graph, &mut out.report, &mut out.metrics);
    } else {
        out.samples = untraced(args, &graph, &mut out.report, &mut out.metrics);
        out.metrics.insert("setup_s", median(&setup));
    }
    Ok(out)
}

/// Times `run_algorithm` for one seed at both shard counts; checks both
/// outcomes (verified MIS, bit-identical across shard counts) after the
/// clock stops.
fn timed_pair(g: &Graph, seed: u64, report: &mut Report) -> [u64; 2] {
    let algorithm = Algorithm::feedback();
    let mut times = [0; 2];
    let mut outcomes = Vec::new();
    for (i, shards) in SHARDS.into_iter().enumerate() {
        let t = now_ns();
        outcomes.push(run_algorithm(g, &algorithm, seed, config(shards)));
        times[i] = now_ns() - t;
    }
    report.check(is_verified_mis(g, &outcomes[0]));
    report.check(is_verified_mis(g, &outcomes[1]) && outcomes[1] == outcomes[0]);
    times
}

/// The `i`-th run seed of the workload seed.
fn run_seed(args: &Args, i: u64) -> u64 {
    derive_seed(args.seed, RUN_STREAM, i, 0)
}

fn untraced(
    args: &Args,
    g: &Graph,
    report: &mut Report,
    m: &mut Metrics,
) -> Vec<(&'static str, usize)> {
    let deadline = args.deadline_ns();
    let (mut base, mut fast) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < 2 || now_ns() < deadline {
        let [b, f] = timed_pair(g, run_seed(args, i), report);
        base.push(ms(b));
        fast.push(ms(f));
        i += 1;
    }
    insert_latencies(m, &base, &fast);
    let total_s = (base.iter().sum::<f64>() + fast.iter().sum::<f64>()) / 1e3;
    m.insert(
        "work_per_s",
        ratio((base.len() + fast.len()) as f64, total_s),
    );
    vec![
        ("base (1 shard)", base.len()),
        ("fast (2 shards)", fast.len()),
    ]
}

/// Untraced `run_algorithm` over the first `TRACED_SEEDS` run seeds at
/// both shard counts, then the same runs traced through the stepper:
/// `graph.build`, `graph.scan`, and per run `sim.new`, one `sim.step` per
/// round, `sim.finish` and `core.verify`.
fn traced(
    args: &Args,
    graph: Graph,
    report: &mut Report,
    m: &mut Metrics,
) -> Vec<crate::trace::Span> {
    let seeds: Vec<u64> = (0..TRACED_SEEDS).map(|i| run_seed(args, i)).collect();
    // One warm-up pair, so the untraced twin is not charged cold-start
    // costs that the traced pass after it does not pay.
    timed_pair(&graph, seeds[0], report);
    let mut untraced_ns = 0;
    for &seed in &seeds {
        untraced_ns += timed_pair(&graph, seed, report).iter().sum::<u64>();
    }

    let mut tr = Tracer::enabled();
    let root = tr.begin("bench.gnp64k");
    drop(graph); // the traced pass times its own build
    let (g, build_ns) = tr.span("graph.build", || build(args.seed));
    let (_, scan_ns) = tr.span("graph.scan", || scan(&g));
    let factory = FeedbackFactory::new();
    let mut stats: [Vec<RunStats>; 2] = [Vec::new(), Vec::new()];
    let (mut verify, mut traced_ns) = (Vec::new(), 0);
    let mut reference = None;
    for (k, &seed) in seeds.iter().enumerate() {
        for (i, shards) in SHARDS.into_iter().enumerate() {
            tr.set_run((2 * k + i) as u64);
            let run = tr.begin("bench.run");
            let (outcome, st) = stepped_run(&mut tr, &g, &factory, seed, config(shards));
            traced_ns += tr.end(run);
            let (ok, verify_ns) = tr.span("core.verify", || is_verified_mis(&g, &outcome));
            verify.push(ms(verify_ns));
            if i == 0 {
                report.check(ok);
                reference = Some(outcome);
            } else {
                report.check(ok && reference.as_ref() == Some(&outcome));
            }
            stats[i].push(st);
        }
    }
    tr.end(root);

    m.insert("graph.build_ms", ms(build_ns));
    m.insert("graph.scan_ms", ms(scan_ns));
    sim_metrics(&stats[0], m);
    let step_ns = |runs: &[RunStats]| runs.iter().map(|r| r.step_ns).sum::<u64>() as f64;
    m.insert(
        "sim.shard_speedup",
        ratio(step_ns(&stats[0]), step_ns(&stats[1])),
    );
    m.insert("core.verify_ms", median(&verify));
    m.insert("trace.overhead_ms", ms(traced_ns) - ms(untraced_ns));
    tr.into_spans()
}
