//! `simbench` — simulation-engine throughput benchmark.
//!
//! Two suites, both driven through the unified engine batch path
//! (`mis_core::RunPlan`), each verifying that every timed configuration
//! produced identical per-run results before reporting any number:
//!
//! * **simulator** (default) — the beeping engine along the axes the
//!   workspace optimises: scalar reference vs bitset propagation kernel
//!   (single-threaded), 1 worker vs N workers through the batch runner,
//!   plus a **sharding point** (one counter-mode bitset run on a 1M+-node
//!   graph in full mode, sequential vs 4 intra-run shards, and a feedback
//!   run to termination on the same graph at 1 vs 2 shards, records gated
//!   bit-identical). Writes `BENCH_simulator.json`.
//! * **baselines** — the message-passing engine's inbox delivery: the
//!   pre-refactor fresh-`Vec` path vs the arena path on a Luby-priority
//!   gnp workload, plus 1 worker vs N workers, plus a **views point**
//!   (the same Luby-priority engine on the lazy `LineGraphView` vs on a
//!   materialised `L(G)`, records gated bit-identical). Writes
//!   `BENCH_baselines.json`.
//! * **apps** — the application reductions: maximal matching as MIS on a
//!   **materialised** line graph (the pre-view path) vs the lazy
//!   `LineGraphView`, on a ≥10k-node workload whose line graph dwarfs the
//!   base CSR, plus `AppEngine` batch determinism at 1 vs N workers, plus
//!   **colouring points** (Luby's product reduction on the lazy
//!   `ProductView` vs a materialised `G □ K_{Δ+1}`, and the iterated-MIS
//!   phase sweep on `InducedView`s vs per-phase materialised subgraphs,
//!   both gated bit-identical). Writes `BENCH_apps.json`.
//! * **scale** — the out-of-core tier: one counter-mode propagation run
//!   replayed bit-identically on all three adjacency backends (in-RAM CSR,
//!   delta-varint `CompressedGraph`, shard-paged `DiskGraph` fed by the
//!   streaming generators) at 1M nodes (quick) and 10M nodes (full),
//!   recording rounds/sec, adjacency bytes/node and a peak-RSS proxy.
//!   Writes `BENCH_scale.json`.
//!
//! ```text
//! simbench [--quick] [--suite simulator|baselines|apps|scale|all]
//!          [--out FILE] [--runs N] [--jobs N]
//! ```
//!
//! The machine-readable summaries record the repository's performance
//! trajectory per commit. (`--out` applies to a single suite; `--suite
//! all` writes every default file name.)

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mis_apps::coloring::is_proper_coloring;
use mis_apps::{iterated_mis_coloring, AppEngine};
use mis_baselines::{InboxStrategy, LubyPriorityFactory, MessageEngine};
use mis_beeping::rng::trial_seed;
use mis_beeping::{PropagationKernel, RngMode, SimConfig};
use mis_bench::{gnp_mean_degree, gnp_mean_degree_edges};
use mis_core::engine::Engine;
use mis_core::{solve_mis_with_config, Algorithm, BatchPlan, BatchReport, RunPlan};
use mis_graph::stream::{DEFAULT_CACHE_BLOCKS, DEFAULT_NODES_PER_SHARD};
use mis_graph::{
    generators, ops, CompressedGraph, DiskGraph, Graph, GraphView, LineGraphView, NodeId,
    ProductView, ShardWriter,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    Simulator,
    Baselines,
    Apps,
    Scale,
    All,
}

struct Options {
    quick: bool,
    suite: Suite,
    out: Option<String>,
    runs: Option<usize>,
    jobs: Option<usize>,
}

fn usage() -> &'static str {
    "usage: simbench [--quick] [--suite simulator|baselines|apps|scale|all] [--out FILE] [--runs N] [--jobs N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        suite: Suite::Simulator,
        out: None,
        runs: None,
        jobs: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--suite" => {
                let v = it.next().ok_or("--suite needs a value")?;
                opts.suite = match v.as_str() {
                    "simulator" => Suite::Simulator,
                    "baselines" => Suite::Baselines,
                    "apps" => Suite::Apps,
                    "scale" => Suite::Scale,
                    "all" => Suite::All,
                    other => return Err(format!("unknown suite {other:?}\n{}", usage())),
                };
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                let runs: usize = v.parse().map_err(|_| format!("bad run count {v:?}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
                opts.runs = Some(runs);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let jobs: usize = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(jobs);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if opts.suite == Suite::All && opts.out.is_some() {
        return Err("--out applies to a single suite; drop it with --suite all".to_owned());
    }
    Ok(opts)
}

/// Wall-clock milliseconds of one full batch execution (on any graph
/// representation the engine accepts).
fn time_plan<G, E>(plan: &RunPlan<E>, graph: &G) -> (f64, BatchReport<E::Record>)
where
    G: GraphView + ?Sized,
    E: Engine<G>,
{
    let started = Instant::now();
    let report = plan.execute(graph);
    (started.elapsed().as_secs_f64() * 1e3, report)
}

/// Minimum wall-clock milliseconds over several executions (the standard
/// noise-robust estimator on shared machines), plus the report of the
/// last execution. Callers interleave the configurations under comparison
/// so slow system phases hit them all equally.
fn time_plan_min<G, E>(plan: &RunPlan<E>, graph: &G, best: &mut f64) -> BatchReport<E::Record>
where
    G: GraphView + ?Sized,
    E: Engine<G>,
{
    let (ms, report) = time_plan(plan, graph);
    if ms < *best {
        *best = ms;
    }
    report
}

fn write_json(path: &str, json: &str) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .map_err(|e| format!("failed to write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The beeping-engine suite: scalar vs bitset kernel, 1 vs N workers.
fn run_simulator_suite(opts: &Options) -> Result<(), String> {
    // A 10k-node random graph, dense enough that beep propagation is a
    // real cost. Quick mode shrinks everything so CI can smoke-test the
    // pipeline in seconds.
    let (n, mean_degree, runs, capped_rounds) = if opts.quick {
        (2_000usize, 64.0, opts.runs.unwrap_or(2), 16u32)
    } else {
        (10_000usize, 256.0, opts.runs.unwrap_or(8), 48u32)
    };
    let jobs = opts.jobs.unwrap_or_else(mis_core::auto_jobs);
    let out = opts.out.as_deref().unwrap_or("BENCH_simulator.json");

    eprintln!("simbench[simulator]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    eprintln!(
        "simbench[simulator]: {} nodes, {} edges, mean degree {:.1}; {} runs, {} jobs",
        graph.node_count(),
        graph.edge_count(),
        graph.mean_degree(),
        runs,
        jobs
    );

    // Workload 1 — kernel throughput: every node beeps with constant
    // probability ½ for a fixed number of rounds (on a graph this dense
    // nobody ever wins, so the beep density stays at ½ and the run
    // measures steady-state propagation, the quantity the bitset kernel
    // optimises).
    let kernel_plan = |kernel: PropagationKernel| {
        RunPlan::new(Algorithm::constant(0.5), runs)
            .with_master_seed(0xBEEF)
            .with_jobs(1)
            .with_config(
                SimConfig::default()
                    .with_max_rounds(capped_rounds)
                    .with_kernel(kernel),
            )
    };
    // Workload 2 — end to end: full feedback-algorithm runs to
    // termination, single-threaded per kernel plus the batch runner at
    // `jobs` workers. Propagation is only part of this cost (the per-node
    // automata dominate once beeps thin out), so its speedup is smaller.
    let feedback_plan = |kernel: PropagationKernel, jobs: usize| {
        RunPlan::new(Algorithm::feedback(), runs)
            .with_master_seed(0xF00D)
            .with_jobs(jobs)
            .with_config(SimConfig::default().with_kernel(kernel))
    };

    // Warm-up, untimed.
    let _ = RunPlan::new(Algorithm::feedback(), 1)
        .with_config(SimConfig::default())
        .execute(&graph);

    eprintln!("simbench[simulator]: kernel workload (constant ½, {capped_rounds} rounds) …");
    let (kernel_scalar_ms, kernel_scalar) =
        time_plan(&kernel_plan(PropagationKernel::Scalar), &graph);
    eprintln!("  scalar 1-thread: {kernel_scalar_ms:.1} ms");
    let (kernel_bitset_ms, kernel_bitset) =
        time_plan(&kernel_plan(PropagationKernel::Bitset), &graph);
    eprintln!("  bitset 1-thread: {kernel_bitset_ms:.1} ms");

    eprintln!("simbench[simulator]: end-to-end workload (feedback to termination) …");
    let (fb_scalar_ms, fb_scalar) = time_plan(&feedback_plan(PropagationKernel::Scalar, 1), &graph);
    eprintln!("  scalar 1-thread: {fb_scalar_ms:.1} ms");
    let (fb_bitset_ms, fb_bitset) = time_plan(&feedback_plan(PropagationKernel::Bitset, 1), &graph);
    eprintln!("  bitset 1-thread: {fb_bitset_ms:.1} ms");
    // With one worker the batch is literally the 1-thread configuration —
    // re-measuring it would only record timer noise as a "speedup".
    let (fb_jobs_ms, fb_parallel) = if jobs > 1 {
        let (ms, report) = time_plan(&feedback_plan(PropagationKernel::Bitset, jobs), &graph);
        eprintln!("  bitset {jobs}-thread: {ms:.1} ms");
        (ms, report)
    } else {
        (fb_bitset_ms, fb_bitset.clone())
    };

    // Equivalence gate: within each workload, every configuration must
    // agree run for run before any timing is reported.
    if kernel_scalar != kernel_bitset || fb_scalar != fb_bitset || fb_bitset != fb_parallel {
        return Err("FATAL — kernel or thread count changed the results".to_owned());
    }

    // Workload 3 — intra-run sharding: one counter-mode propagation run
    // on a graph large enough that a *single* run dwarfs the batch
    // (1M+ nodes in full mode), bitset kernel, sequential vs 4 shards.
    // Counter-mode draws are pure in (node, round), so the shard count
    // must be invisible in the results — gated below run for run.
    const SHARDS: usize = 4;
    let (shard_n, shard_degree, shard_rounds, shard_reps) = if opts.quick {
        (50_000usize, 16.0, 4u32, 1usize)
    } else {
        (1_048_576usize, 16.0, 8u32, 2usize)
    };
    eprintln!("simbench[simulator]: building sharding graph G({shard_n}, d≈{shard_degree}) …");
    let shard_graph = gnp_mean_degree(shard_n, shard_degree);
    let shard_plan = |shards: usize| {
        RunPlan::new(Algorithm::constant(0.5), 1)
            .with_master_seed(0x5AAD)
            .with_jobs(1)
            .with_config(
                SimConfig::default()
                    .with_max_rounds(shard_rounds)
                    .with_kernel(PropagationKernel::Bitset)
                    .with_rng_mode(RngMode::Counter)
                    .with_shards(shards),
            )
    };
    eprintln!(
        "simbench[simulator]: sharding workload (constant ½, counter rng, {} nodes, \
         {shard_rounds} rounds, 1 vs {SHARDS} shards) …",
        shard_graph.node_count()
    );
    let mut shard_seq_ms = f64::INFINITY;
    let mut shard_par_ms = f64::INFINITY;
    let mut shard_seq = time_plan_min(&shard_plan(1), &shard_graph, &mut shard_seq_ms);
    let mut shard_par = time_plan_min(&shard_plan(SHARDS), &shard_graph, &mut shard_par_ms);
    for _ in 1..shard_reps {
        // Interleave repetitions so thermal / cache drift hits both
        // configurations evenly; keep the best of each.
        shard_seq = time_plan_min(&shard_plan(1), &shard_graph, &mut shard_seq_ms);
        shard_par = time_plan_min(&shard_plan(SHARDS), &shard_graph, &mut shard_par_ms);
    }
    eprintln!("  sequential: {shard_seq_ms:.1} ms; {SHARDS} shards: {shard_par_ms:.1} ms");
    if shard_seq != shard_par {
        return Err("FATAL — intra-run sharding changed the results".to_owned());
    }

    // Workload 4 — the sharded round end to end: the feedback algorithm
    // to termination on the same graph, 1 vs 2 shards. Its per-node
    // phases and dense pulls split across the shards; its sparse tail
    // stays sequential. Gated run for run like workload 3.
    const FB_SHARDS: usize = 2;
    let fb_shard_plan = |shards: usize| {
        RunPlan::new(Algorithm::feedback(), 1)
            .with_master_seed(0xFEED)
            .with_jobs(1)
            .with_config(
                SimConfig::default()
                    .with_kernel(PropagationKernel::Bitset)
                    .with_rng_mode(RngMode::Counter)
                    .with_shards(shards),
            )
    };
    eprintln!(
        "simbench[simulator]: sharded feedback workload (counter rng, {} nodes, \
         1 vs {FB_SHARDS} shards) …",
        shard_graph.node_count()
    );
    let mut fb_seq_ms = f64::INFINITY;
    let mut fb_par_ms = f64::INFINITY;
    let mut fb_seq = time_plan_min(&fb_shard_plan(1), &shard_graph, &mut fb_seq_ms);
    let mut fb_par = time_plan_min(&fb_shard_plan(FB_SHARDS), &shard_graph, &mut fb_par_ms);
    for _ in 1..shard_reps {
        fb_seq = time_plan_min(&fb_shard_plan(1), &shard_graph, &mut fb_seq_ms);
        fb_par = time_plan_min(&fb_shard_plan(FB_SHARDS), &shard_graph, &mut fb_par_ms);
    }
    eprintln!("  sequential: {fb_seq_ms:.1} ms; {FB_SHARDS} shards: {fb_par_ms:.1} ms");
    if fb_seq != fb_par {
        return Err("FATAL — intra-run sharding changed the feedback results".to_owned());
    }

    let bitset_speedup = kernel_scalar_ms / kernel_bitset_ms.max(1e-9);
    let fb_speedup = fb_scalar_ms / fb_bitset_ms.max(1e-9);
    let thread_speedup = fb_bitset_ms / fb_jobs_ms.max(1e-9);
    let shard_speedup = shard_seq_ms / shard_par_ms.max(1e-9);
    let fb_shard_speedup = fb_seq_ms / fb_par_ms.max(1e-9);
    eprintln!(
        "simbench[simulator]: bitset/scalar {bitset_speedup:.2}x on propagation, \
         {fb_speedup:.2}x end-to-end; {jobs}-thread/1-thread {thread_speedup:.2}x; \
         {SHARDS}-shard/sequential {shard_speedup:.2}x, feedback \
         {FB_SHARDS}-shard/sequential {fb_shard_speedup:.2}x on {} cores",
        mis_core::auto_jobs()
    );

    let json = format!(
        "{{\n  \"bench\": \"simulator\",\n  \"mode\": \"{mode}\",\n  \
         \"graph\": {{ \"family\": \"gnp\", \"nodes\": {nodes}, \"edges\": {edges}, \"mean_degree\": {md:.2} }},\n  \
         \"runs\": {runs},\n  \
         \"kernel_workload\": {{\n    \"algorithm\": \"constant(0.5)\",\n    \"rounds\": {capped},\n    \
         \"scalar_1thread_ms\": {kscalar:.3},\n    \"bitset_1thread_ms\": {kbitset:.3},\n    \
         \"speedup\": {kspeed:.3}\n  }},\n  \
         \"feedback_workload\": {{\n    \"algorithm\": \"feedback\",\n    \"rounds_mean\": {rounds:.2},\n    \
         \"scalar_1thread_ms\": {fscalar:.3},\n    \"bitset_1thread_ms\": {fbitset:.3},\n    \
         \"speedup\": {fspeed:.3},\n    \
         \"jobs\": {jobs},\n    \"bitset_jobs_ms\": {fjobs:.3},\n    \"thread_speedup\": {tspeed:.3}\n  }},\n  \
         \"sharding\": {{\n    \"algorithm\": \"constant(0.5)\",\n    \"rng\": \"counter\",\n    \
         \"nodes\": {snodes},\n    \"edges\": {sedges},\n    \"rounds\": {srounds},\n    \
         \"shards\": {shards},\n    \"cores\": {cores},\n    \
         \"sequential_ms\": {sseq:.3},\n    \"sharded_ms\": {spar:.3},\n    \
         \"speedup\": {sspeed:.3},\n    \"outcomes_identical\": true,\n    \
         \"feedback\": {{\n      \"algorithm\": \"feedback\",\n      \"rng\": \"counter\",\n      \
         \"rounds\": {fbrounds},\n      \"shards\": {fbshards},\n      \"cores\": {cores},\n      \
         \"sequential_ms\": {fbseq:.3},\n      \"sharded_ms\": {fbpar:.3},\n      \
         \"speedup\": {fbsspeed:.3},\n      \"outcomes_identical\": true\n    }}\n  }},\n  \
         \"bitset_speedup\": {kspeed:.3},\n  \
         \"outcomes_identical\": true\n}}\n",
        mode = if opts.quick { "quick" } else { "full" },
        nodes = graph.node_count(),
        edges = graph.edge_count(),
        md = graph.mean_degree(),
        runs = runs,
        capped = capped_rounds,
        kscalar = kernel_scalar_ms,
        kbitset = kernel_bitset_ms,
        kspeed = bitset_speedup,
        rounds = fb_scalar.rounds().mean(),
        fscalar = fb_scalar_ms,
        fbitset = fb_bitset_ms,
        fspeed = fb_speedup,
        jobs = jobs,
        fjobs = fb_jobs_ms,
        tspeed = thread_speedup,
        snodes = shard_graph.node_count(),
        sedges = shard_graph.edge_count(),
        srounds = shard_rounds,
        shards = SHARDS,
        cores = mis_core::auto_jobs(),
        sseq = shard_seq_ms,
        spar = shard_par_ms,
        sspeed = shard_speedup,
        fbrounds = fb_seq.rounds().mean(),
        fbshards = FB_SHARDS,
        fbseq = fb_seq_ms,
        fbpar = fb_par_ms,
        fbsspeed = fb_shard_speedup,
    );
    write_json(out, &json)
}

/// The message-engine suite: fresh-`Vec` (pre-refactor) vs arena inbox
/// delivery on a Luby-priority workload, 1 vs N workers.
fn run_baselines_suite(opts: &Options) -> Result<(), String> {
    // Luby's priority form exchanges a 64-bit value per edge per round —
    // the allocation-heaviest message workload in the repo, and the one
    // the arena refactor targets.
    let (n, mean_degree, runs) = if opts.quick {
        (2_000usize, 32.0, opts.runs.unwrap_or(4))
    } else {
        (10_000usize, 64.0, opts.runs.unwrap_or(8))
    };
    let jobs = opts.jobs.unwrap_or_else(mis_core::auto_jobs);
    let out = opts.out.as_deref().unwrap_or("BENCH_baselines.json");

    eprintln!("simbench[baselines]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    eprintln!(
        "simbench[baselines]: {} nodes, {} edges, mean degree {:.1}; {} runs, {} jobs",
        graph.node_count(),
        graph.edge_count(),
        graph.mean_degree(),
        runs,
        jobs
    );

    let plan = |strategy: InboxStrategy, jobs: usize| {
        RunPlan::for_engine(
            MessageEngine::new(LubyPriorityFactory::new()).with_inbox_strategy(strategy),
            runs,
        )
        .with_master_seed(0xBA5E)
        .with_jobs(jobs)
    };

    // Warm-up, untimed.
    let _ = plan(InboxStrategy::Arena, 1)
        .with_master_seed(1)
        .execute(&graph);

    // Interleave the configurations and keep per-config minima: this box
    // may be shared, and timing the strategies back to back would charge
    // any slow system phase to whichever ran during it.
    let reps = if opts.quick { 2 } else { 3 };
    eprintln!("simbench[baselines]: Luby-priority workload (to termination, {reps} reps) …");
    let (mut fresh_ms, mut arena_ms, mut arena_jobs_ms) = (f64::MAX, f64::MAX, f64::MAX);
    let (mut fresh, mut arena, mut arena_parallel) = (None, None, None);
    for _ in 0..reps {
        fresh = Some(time_plan_min(
            &plan(InboxStrategy::FreshVecs, 1),
            &graph,
            &mut fresh_ms,
        ));
        arena = Some(time_plan_min(
            &plan(InboxStrategy::Arena, 1),
            &graph,
            &mut arena_ms,
        ));
        if jobs > 1 {
            arena_parallel = Some(time_plan_min(
                &plan(InboxStrategy::Arena, jobs),
                &graph,
                &mut arena_jobs_ms,
            ));
        }
    }
    let fresh = fresh.expect("at least one rep ran");
    let arena = arena.expect("at least one rep ran");
    let (arena_jobs_ms, arena_parallel) = if jobs > 1 {
        (arena_jobs_ms, arena_parallel.expect("at least one rep ran"))
    } else {
        (arena_ms, arena.clone())
    };
    eprintln!("  fresh-vec 1-thread: {fresh_ms:.1} ms");
    eprintln!("  arena     1-thread: {arena_ms:.1} ms");
    if jobs > 1 {
        eprintln!("  arena     {jobs}-thread: {arena_jobs_ms:.1} ms");
    }

    // Equivalence gate: the strategy and the worker count must not change
    // a single record before any timing is reported.
    if fresh != arena || arena != arena_parallel {
        return Err("FATAL — inbox strategy or thread count changed the results".to_owned());
    }

    let arena_speedup = fresh_ms / arena_ms.max(1e-9);
    let thread_speedup = arena_ms / arena_jobs_ms.max(1e-9);
    eprintln!(
        "simbench[baselines]: arena/fresh-vec {arena_speedup:.2}x single-thread; \
         {jobs}-thread/1-thread {thread_speedup:.2}x"
    );

    // Views workload — the same Luby-priority engine racing on the lazy
    // line-graph view vs on a materialised L(G). Each timed pass rebuilds
    // its derived graph from the base CSR (exactly what a pre-view
    // reduction pays per workload), so the point measures the whole
    // derived-graph pipeline, not just the rounds.
    let (vn, vdeg, view_runs) = if opts.quick {
        (600usize, 8.0, opts.runs.unwrap_or(2))
    } else {
        (3_000usize, 16.0, opts.runs.unwrap_or(4))
    };
    eprintln!("simbench[baselines]: building views base G({vn}, d≈{vdeg}) …");
    let view_base = gnp_mean_degree(vn, vdeg);
    let line_nodes = view_base.edge_count();
    let line_edges = LineGraphView::new(&view_base).edge_count();
    eprintln!(
        "simbench[baselines]: Luby-priority on L(G) ({line_nodes} nodes, {line_edges} edges), \
         lazy view vs materialised, {view_runs} runs …"
    );
    let view_plan = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), view_runs)
        .with_master_seed(0x11E4)
        .with_jobs(1);
    let (mut view_ms, mut mat_ms) = (f64::MAX, f64::MAX);
    let (mut on_view, mut on_materialized) = (None, None);
    for _ in 0..reps {
        let started = Instant::now();
        let view = LineGraphView::new(&view_base);
        let report = view_plan.execute(&view);
        view_ms = view_ms.min(started.elapsed().as_secs_f64() * 1e3);
        on_view = Some(report);

        let started = Instant::now();
        let (lg, _edges) = ops::line_graph(&view_base);
        let report = view_plan.execute(&lg);
        mat_ms = mat_ms.min(started.elapsed().as_secs_f64() * 1e3);
        on_materialized = Some(report);
    }
    let on_view = on_view.expect("at least one rep ran");
    let on_materialized = on_materialized.expect("at least one rep ran");
    eprintln!("  lazy view:         {view_ms:.1} ms");
    eprintln!("  materialized L(G): {mat_ms:.1} ms");

    // Equivalence gate: the graph representation must not change a single
    // record — Luby on the lazy view and Luby on the materialised line
    // graph are the same runs, bit for bit.
    if on_view != on_materialized {
        return Err("FATAL — the lazy view changed the results".to_owned());
    }

    let view_speedup = mat_ms / view_ms.max(1e-9);
    // Derived-adjacency memory: the materialised CSR (two u32 entries per
    // line edge plus offsets) vs the view's auxiliary indexing (canonical
    // edge list + one u32 edge id per base half-edge + base offsets).
    let materialized_adjacency_bytes = 2 * line_edges * 4 + (line_nodes + 1) * 8;
    let view_aux_bytes =
        line_nodes * 8 + 2 * view_base.edge_count() * 4 + (view_base.node_count() + 1) * 8;
    let view_memory_ratio = materialized_adjacency_bytes as f64 / view_aux_bytes as f64;
    eprintln!(
        "simbench[baselines]: view/materialized {view_speedup:.2}x wall-clock, \
         {view_memory_ratio:.1}x less derived-adjacency memory on Luby-matching"
    );

    let json = format!(
        "{{\n  \"bench\": \"baselines\",\n  \"mode\": \"{mode}\",\n  \
         \"graph\": {{ \"family\": \"gnp\", \"nodes\": {nodes}, \"edges\": {edges}, \"mean_degree\": {md:.2} }},\n  \
         \"runs\": {runs},\n  \
         \"luby_priority_workload\": {{\n    \"algorithm\": \"luby_priority\",\n    \
         \"rounds_mean\": {rounds:.2},\n    \
         \"fresh_vecs_1thread_ms\": {fresh:.3},\n    \"arena_1thread_ms\": {arena:.3},\n    \
         \"speedup\": {aspeed:.3},\n    \
         \"jobs\": {jobs},\n    \"arena_jobs_ms\": {ajobs:.3},\n    \"thread_speedup\": {tspeed:.3}\n  }},\n  \
         \"views_workload\": {{\n    \"algorithm\": \"luby_priority\",\n    \"surface\": \"line_graph\",\n    \
         \"base\": {{ \"nodes\": {vnodes}, \"edges\": {vedges} }},\n    \
         \"line_graph\": {{ \"nodes\": {lnodes}, \"edges\": {ledges} }},\n    \
         \"runs\": {vruns},\n    \"rounds_mean\": {vrounds:.2},\n    \
         \"materialized_ms\": {vmat:.3},\n    \"view_ms\": {vview:.3},\n    \
         \"speedup\": {vspeed:.3},\n    \
         \"materialized_adjacency_bytes\": {vmbytes},\n    \"view_aux_bytes\": {vabytes},\n    \
         \"memory_ratio\": {vmem:.3},\n    \"outcomes_identical\": true\n  }},\n  \
         \"arena_speedup\": {aspeed:.3},\n  \
         \"view_speedup\": {vspeed:.3},\n  \
         \"outcomes_identical\": true\n}}\n",
        mode = if opts.quick { "quick" } else { "full" },
        nodes = graph.node_count(),
        edges = graph.edge_count(),
        md = graph.mean_degree(),
        runs = runs,
        rounds = fresh.rounds().mean(),
        fresh = fresh_ms,
        arena = arena_ms,
        aspeed = arena_speedup,
        jobs = jobs,
        ajobs = arena_jobs_ms,
        tspeed = thread_speedup,
        vnodes = view_base.node_count(),
        vedges = view_base.edge_count(),
        lnodes = line_nodes,
        ledges = line_edges,
        vruns = view_runs,
        vrounds = on_view.rounds().mean(),
        vmat = mat_ms,
        vview = view_ms,
        vspeed = view_speedup,
        vmbytes = materialized_adjacency_bytes,
        vabytes = view_aux_bytes,
        vmem = view_memory_ratio,
    );
    write_json(out, &json)
}

/// The application suite: maximal matching via a materialised line graph
/// (the pre-view reduction) vs the lazy `LineGraphView`, plus `AppEngine`
/// batch determinism at 1 vs N workers, plus the two colouring reductions
/// (product colouring on `ProductView`, iterated-MIS phase sweeps on
/// `InducedView`s) raced against their materialised counterparts.
fn run_apps_suite(opts: &Options) -> Result<(), String> {
    // A base graph whose line graph dwarfs it: G(10k, d≈64) turns into a
    // ~320k-node line graph whose materialised adjacency holds ~40M
    // entries — the memory blow-up the lazy view exists to avoid.
    let (n, mean_degree, runs) = if opts.quick {
        (2_000usize, 16.0, opts.runs.unwrap_or(2))
    } else {
        (10_000usize, 64.0, opts.runs.unwrap_or(4))
    };
    let jobs = opts.jobs.unwrap_or_else(mis_core::auto_jobs);
    let out = opts.out.as_deref().unwrap_or("BENCH_apps.json");

    eprintln!("simbench[apps]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    let line_nodes = graph.edge_count();
    let line_edges = {
        let view = LineGraphView::new(&graph);
        view.edge_count()
    };
    eprintln!(
        "simbench[apps]: {} nodes, {} edges (line graph: {} nodes, {} edges); {} runs, {} jobs",
        graph.node_count(),
        graph.edge_count(),
        line_nodes,
        line_edges,
        runs,
        jobs
    );

    // Size of the derived adjacency the materialised reduction allocates
    // per run (CSR: two u32 entries per edge plus one usize offset per
    // node) vs the view's auxiliary indexing (the canonical edge list plus
    // one u32 edge id per base half-edge plus base offsets).
    let materialized_adjacency_bytes = 2 * line_edges * 4 + (line_nodes + 1) * 8;
    let view_aux_bytes = line_nodes * 8 + 2 * graph.edge_count() * 4 + (graph.node_count() + 1) * 8;

    let plan = BatchPlan::new(0xA995, runs);
    let seeds: Vec<u64> = (0..runs).map(|i| plan.run_seed(i)).collect();

    type RunDigest = (Vec<NodeId>, u32);
    let solve_materialized = |seed: u64| -> RunDigest {
        let (lg, _edges) = ops::line_graph(&graph);
        let r = solve_mis_with_config(&lg, &Algorithm::feedback(), seed, SimConfig::default())
            .expect("feedback terminates on a fault-free network");
        (r.mis().to_vec(), r.rounds())
    };
    let solve_view = |seed: u64| -> RunDigest {
        let view = LineGraphView::new(&graph);
        let r = solve_mis_with_config(&view, &Algorithm::feedback(), seed, SimConfig::default())
            .expect("feedback terminates on a fault-free network");
        (r.mis().to_vec(), r.rounds())
    };

    // Warm-up, untimed.
    let _ = solve_view(1);

    // Interleave the two reductions and keep per-path minima (the
    // noise-robust estimator the other suites use). Each timed pass runs
    // every seed, rebuilding its derived graph per run exactly as the
    // application entry points do.
    let reps = 2;
    eprintln!("simbench[apps]: matching workload (feedback on L(G), {reps} reps × {runs} runs) …");
    let (mut mat_ms, mut view_ms) = (f64::MAX, f64::MAX);
    let (mut mat_digest, mut view_digest) = (None, None);
    for _ in 0..reps {
        let started = Instant::now();
        let digest: Vec<RunDigest> = seeds.iter().map(|&s| solve_materialized(s)).collect();
        mat_ms = mat_ms.min(started.elapsed().as_secs_f64() * 1e3);
        mat_digest = Some(digest);

        let started = Instant::now();
        let digest: Vec<RunDigest> = seeds.iter().map(|&s| solve_view(s)).collect();
        view_ms = view_ms.min(started.elapsed().as_secs_f64() * 1e3);
        view_digest = Some(digest);
    }
    let mat_digest = mat_digest.expect("at least one rep ran");
    let view_digest = view_digest.expect("at least one rep ran");
    eprintln!("  materialized L(G): {mat_ms:.1} ms");
    eprintln!("  lazy view:         {view_ms:.1} ms");

    // Engine batch path: the records must be bit-identical for any worker
    // count, and match the single-run view path seed for seed.
    let engine_plan = |jobs: usize| {
        RunPlan::for_engine(AppEngine::matching(Algorithm::feedback()), runs)
            .with_master_seed(0xA995)
            .with_jobs(jobs)
    };
    let (engine_solo_ms, engine_solo) = time_plan(&engine_plan(1), &graph);
    let (engine_jobs_ms, engine_parallel) = if jobs > 1 {
        let (ms, report) = time_plan(&engine_plan(jobs), &graph);
        eprintln!("  engine {jobs}-thread:   {ms:.1} ms (1-thread {engine_solo_ms:.1} ms)");
        (ms, report)
    } else {
        (engine_solo_ms, engine_solo.clone())
    };

    // Equivalence gate: the materialised reduction, the lazy view, and the
    // engine batch path (at every worker count) must agree run for run
    // before any timing is reported. The engine comparison checks the
    // full MIS content (via an untimed outcome pass), not just sizes, so
    // a divergence that happens to preserve cardinality still trips it.
    let digests_match = mat_digest == view_digest;
    let engine_outcomes = engine_plan(1).execute_outcomes(&graph);
    let engine_matches = engine_solo == engine_parallel
        && engine_outcomes
            .iter()
            .zip(&view_digest)
            .all(|(out, (mis, rounds))| {
                mis_core::engine::RunView::mis(out) == *mis
                    && mis_core::engine::RunView::rounds(out) == *rounds
            });
    if !digests_match || !engine_matches {
        return Err("FATAL — view, materialised path or thread count changed the results".into());
    }

    let view_speedup = mat_ms / view_ms.max(1e-9);
    let memory_ratio = materialized_adjacency_bytes as f64 / view_aux_bytes as f64;
    let thread_speedup = engine_solo_ms / engine_jobs_ms.max(1e-9);
    let rounds_mean =
        view_digest.iter().map(|(_, r)| f64::from(*r)).sum::<f64>() / runs.max(1) as f64;
    eprintln!(
        "simbench[apps]: view/materialized {view_speedup:.2}x wall-clock, \
         {memory_ratio:.1}x less derived-adjacency memory; \
         {jobs}-thread/1-thread {thread_speedup:.2}x"
    );

    // Product-colouring point — Luby's reduction, one MIS on `G □ K_{Δ+1}`:
    // the lazy `ProductView` vs a materialised cartesian product, identical
    // seeds. The decoded colouring is verified proper before reporting.
    let (pn, pdeg, pruns) = if opts.quick {
        (300usize, 6.0, 2usize)
    } else {
        (1_200usize, 8.0, 3usize)
    };
    let pgraph = gnp_mean_degree(pn, pdeg);
    let palette = pgraph.max_degree() as u32 + 1;
    let (product_nodes, product_edges) = {
        let view = ProductView::new(&pgraph, palette);
        (view.node_count(), view.edge_count())
    };
    eprintln!(
        "simbench[apps]: product colouring on G({pn}, d≈{pdeg}) x K_{palette} \
         ({product_nodes} nodes, {product_edges} edges), {pruns} runs …"
    );
    let pplan = BatchPlan::new(0xC010, pruns);
    let pseeds: Vec<u64> = (0..pruns).map(|i| pplan.run_seed(i)).collect();
    let solve_product_view = |seed: u64| -> RunDigest {
        let view = ProductView::new(&pgraph, palette);
        let r = solve_mis_with_config(&view, &Algorithm::feedback(), seed, SimConfig::default())
            .expect("feedback terminates on a fault-free network");
        (r.mis().to_vec(), r.rounds())
    };
    let solve_product_materialized = |seed: u64| -> RunDigest {
        let product = ops::cartesian_product(&pgraph, &generators::complete(palette as usize));
        let r = solve_mis_with_config(&product, &Algorithm::feedback(), seed, SimConfig::default())
            .expect("feedback terminates on a fault-free network");
        (r.mis().to_vec(), r.rounds())
    };
    let (mut pmat_ms, mut pview_ms) = (f64::MAX, f64::MAX);
    let (mut pmat_digest, mut pview_digest) = (None, None);
    for _ in 0..reps {
        let started = Instant::now();
        let digest: Vec<RunDigest> = pseeds
            .iter()
            .map(|&s| solve_product_materialized(s))
            .collect();
        pmat_ms = pmat_ms.min(started.elapsed().as_secs_f64() * 1e3);
        pmat_digest = Some(digest);

        let started = Instant::now();
        let digest: Vec<RunDigest> = pseeds.iter().map(|&s| solve_product_view(s)).collect();
        pview_ms = pview_ms.min(started.elapsed().as_secs_f64() * 1e3);
        pview_digest = Some(digest);
    }
    let pmat_digest = pmat_digest.expect("at least one rep ran");
    let pview_digest = pview_digest.expect("at least one rep ran");
    eprintln!("  materialized product: {pmat_ms:.1} ms");
    eprintln!("  lazy view:            {pview_ms:.1} ms");
    // Gate: the surface must be invisible run for run, and the product MIS
    // must decode to a complete proper colouring of the base graph.
    let mut product_colors = vec![u32::MAX; pn];
    for &node in &pview_digest[0].0 {
        product_colors[(node / palette) as usize] = node % palette;
    }
    if pmat_digest != pview_digest
        || product_colors.contains(&u32::MAX)
        || !is_proper_coloring(&pgraph, &product_colors)
    {
        return Err("FATAL — the product view changed the colouring results".into());
    }
    let product_speedup = pmat_ms / pview_ms.max(1e-9);
    let product_rounds_mean =
        pview_digest.iter().map(|(_, r)| f64::from(*r)).sum::<f64>() / pruns.max(1) as f64;
    eprintln!("simbench[apps]: product view/materialized {product_speedup:.2}x wall-clock");

    // Iterated-colouring point — the phase sweep: lazy `InducedView`
    // phases (the shipping path) vs materialising each phase's
    // still-uncoloured subgraph, identical phase seeds through the same
    // SplitMix64 stream, so the colour classes must match exactly.
    let (inn, ideg, iruns) = if opts.quick {
        (240usize, 6.0, 2usize)
    } else {
        (900usize, 10.0, 3usize)
    };
    let igraph = gnp_mean_degree(inn, ideg);
    let iplan = BatchPlan::new(0x17E2, iruns);
    let iseeds: Vec<u64> = (0..iruns).map(|i| iplan.run_seed(i)).collect();
    type ColorDigest = (Vec<u32>, u32, u32); // colours, colour count, rounds
    let sweep_view = |seed: u64| -> ColorDigest {
        let c = iterated_mis_coloring(&igraph, &Algorithm::feedback(), seed)
            .expect("iterated colouring terminates on a fault-free network");
        (c.colors().to_vec(), c.color_count(), c.rounds())
    };
    let sweep_materialized = |seed: u64| -> ColorDigest {
        let mut colors = vec![u32::MAX; igraph.node_count()];
        let mut active: Vec<NodeId> = igraph.nodes().collect();
        let mut rounds = 0u32;
        let mut color = 0u32;
        while !active.is_empty() {
            let sub = ops::induced_subgraph(&igraph, &active);
            let r = solve_mis_with_config(
                &sub,
                &Algorithm::feedback(),
                trial_seed(seed, u64::from(color)),
                SimConfig::default(),
            )
            .expect("feedback terminates on a fault-free network");
            rounds = rounds.saturating_add(r.rounds());
            for &local in r.mis() {
                colors[active[local as usize] as usize] = color;
            }
            active.retain(|&v| colors[v as usize] == u32::MAX);
            color += 1;
        }
        (colors, color, rounds)
    };
    eprintln!("simbench[apps]: iterated colouring on G({inn}, d≈{ideg}), {iruns} runs …");
    let (mut imat_ms, mut iview_ms) = (f64::MAX, f64::MAX);
    let (mut imat_digest, mut iview_digest) = (None, None);
    for _ in 0..reps {
        let started = Instant::now();
        let digest: Vec<ColorDigest> = iseeds.iter().map(|&s| sweep_materialized(s)).collect();
        imat_ms = imat_ms.min(started.elapsed().as_secs_f64() * 1e3);
        imat_digest = Some(digest);

        let started = Instant::now();
        let digest: Vec<ColorDigest> = iseeds.iter().map(|&s| sweep_view(s)).collect();
        iview_ms = iview_ms.min(started.elapsed().as_secs_f64() * 1e3);
        iview_digest = Some(digest);
    }
    let imat_digest = imat_digest.expect("at least one rep ran");
    let iview_digest = iview_digest.expect("at least one rep ran");
    eprintln!("  materialized phases: {imat_ms:.1} ms");
    eprintln!("  lazy views:          {iview_ms:.1} ms");
    // Gate: phase colour classes must agree run for run and colour the
    // base graph properly.
    if imat_digest != iview_digest || !is_proper_coloring(&igraph, &iview_digest[0].0) {
        return Err("FATAL — the induced views changed the phase-sweep results".into());
    }
    let iterated_speedup = imat_ms / iview_ms.max(1e-9);
    let phases_mean = iview_digest
        .iter()
        .map(|(_, p, _)| f64::from(*p))
        .sum::<f64>()
        / iruns.max(1) as f64;
    let iterated_rounds_mean = iview_digest
        .iter()
        .map(|(_, _, r)| f64::from(*r))
        .sum::<f64>()
        / iruns.max(1) as f64;
    eprintln!(
        "simbench[apps]: iterated view/materialized {iterated_speedup:.2}x wall-clock, \
         {phases_mean:.1} phases mean"
    );

    let json = format!(
        "{{\n  \"bench\": \"apps\",\n  \"mode\": \"{mode}\",\n  \
         \"graph\": {{ \"family\": \"gnp\", \"nodes\": {nodes}, \"edges\": {edges}, \"mean_degree\": {md:.2} }},\n  \
         \"runs\": {runs},\n  \
         \"matching_workload\": {{\n    \"algorithm\": \"feedback\",\n    \
         \"line_graph\": {{ \"nodes\": {lnodes}, \"edges\": {ledges} }},\n    \
         \"rounds_mean\": {rounds:.2},\n    \
         \"materialized_ms\": {mat:.3},\n    \"view_ms\": {view:.3},\n    \
         \"speedup\": {vspeed:.3},\n    \
         \"materialized_adjacency_bytes\": {mbytes},\n    \"view_aux_bytes\": {vbytes},\n    \
         \"memory_ratio\": {mratio:.3},\n    \
         \"jobs\": {jobs},\n    \"engine_1thread_ms\": {esolo:.3},\n    \
         \"engine_jobs_ms\": {ejobs:.3},\n    \"thread_speedup\": {tspeed:.3}\n  }},\n  \
         \"product_coloring_workload\": {{\n    \"algorithm\": \"feedback\",\n    \
         \"surface\": \"product_view\",\n    \
         \"base\": {{ \"nodes\": {pnodes}, \"edges\": {pedges} }},\n    \
         \"palette\": {palette},\n    \
         \"product\": {{ \"nodes\": {prnodes}, \"edges\": {predges} }},\n    \
         \"runs\": {pruns},\n    \"rounds_mean\": {prounds:.2},\n    \
         \"materialized_ms\": {pmat:.3},\n    \"view_ms\": {pview:.3},\n    \
         \"speedup\": {pspeed:.3},\n    \"outcomes_identical\": true\n  }},\n  \
         \"iterated_coloring_workload\": {{\n    \"algorithm\": \"feedback\",\n    \
         \"surface\": \"induced_view\",\n    \
         \"base\": {{ \"nodes\": {inodes}, \"edges\": {iedges} }},\n    \
         \"runs\": {iruns},\n    \"phases_mean\": {iphases:.2},\n    \
         \"rounds_mean\": {irounds:.2},\n    \
         \"materialized_ms\": {imat:.3},\n    \"view_ms\": {iview:.3},\n    \
         \"speedup\": {ispeed:.3},\n    \"outcomes_identical\": true\n  }},\n  \
         \"view_speedup\": {vspeed:.3},\n  \
         \"memory_ratio\": {mratio:.3},\n  \
         \"outcomes_identical\": true\n}}\n",
        mode = if opts.quick { "quick" } else { "full" },
        nodes = graph.node_count(),
        edges = graph.edge_count(),
        md = graph.mean_degree(),
        runs = runs,
        lnodes = line_nodes,
        ledges = line_edges,
        rounds = rounds_mean,
        mat = mat_ms,
        view = view_ms,
        vspeed = view_speedup,
        mbytes = materialized_adjacency_bytes,
        vbytes = view_aux_bytes,
        mratio = memory_ratio,
        jobs = jobs,
        esolo = engine_solo_ms,
        ejobs = engine_jobs_ms,
        tspeed = thread_speedup,
        pnodes = pgraph.node_count(),
        pedges = pgraph.edge_count(),
        palette = palette,
        prnodes = product_nodes,
        predges = product_edges,
        pruns = pruns,
        prounds = product_rounds_mean,
        pmat = pmat_ms,
        pview = pview_ms,
        pspeed = product_speedup,
        inodes = igraph.node_count(),
        iedges = igraph.edge_count(),
        iruns = iruns,
        iphases = phases_mean,
        irounds = iterated_rounds_mean,
        imat = imat_ms,
        iview = iview_ms,
        ispeed = iterated_speedup,
    );
    write_json(out, &json)
}

/// Peak-RSS proxy: the process high-water mark (`VmHWM`, kB) from
/// `/proc/self/status`. `None` off Linux; recorded as 0 in the JSON.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Per-backend numbers for one scale point.
struct BackendStats {
    ms: f64,
    adjacency_bytes: usize,
}

impl BackendStats {
    fn bytes_per_node(&self, n: usize) -> f64 {
        self.adjacency_bytes as f64 / n.max(1) as f64
    }

    fn rounds_per_sec(&self, rounds: u32) -> f64 {
        f64::from(rounds) / (self.ms / 1e3).max(1e-9)
    }
}

/// The out-of-core suite: the same counter-mode bitset propagation run
/// replayed on all three adjacency backends — in-RAM CSR, delta-varint
/// [`CompressedGraph`], shard-paged [`DiskGraph`] — at the 1M-node tier
/// (quick) and the 10M-node tier (full). The disk shards are produced by
/// the *streaming* generator path (edges go straight to the shard writer,
/// never through a CSR), so the point exercises the whole out-of-core
/// pipeline: bounded-memory generation, compressed storage, paged replay.
///
/// Every timing is gated on bit-identical batch reports across backends,
/// and the compressed backend must beat CSR bytes/node by each point's
/// floor (2× at the 10M tier) before anything is written.
fn run_scale_suite(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_scale.json");
    let (rounds, reps) = if opts.quick {
        (4u32, opts.runs.unwrap_or(1))
    } else {
        (8u32, opts.runs.unwrap_or(2))
    };

    /// One scale point: an in-RAM builder (the gate's reference), a
    /// streaming builder feeding the shard writer, and the compression
    /// floor the compressed backend must clear.
    struct Point {
        family: &'static str,
        label: String,
        build: Box<dyn Fn() -> Graph>,
        stream: Box<dyn Fn(&mut ShardWriter)>,
        ratio_floor: f64,
    }

    let gnp_nodes = 1usize << 20;
    let gnp_degree = 16.0;
    let mut points = vec![Point {
        family: "gnp",
        label: format!("gnp n={gnp_nodes} d≈{gnp_degree}"),
        build: Box::new(move || gnp_mean_degree(gnp_nodes, gnp_degree)),
        stream: Box::new(move |w: &mut ShardWriter| {
            gnp_mean_degree_edges(gnp_nodes, gnp_degree, |u, v| w.add_edge(u, v));
        }),
        // Random 2^16-sized gaps varint-encode to ~3 bytes, so the win at
        // mean degree 16 is real but modest.
        ratio_floor: 1.2,
    }];
    if !opts.quick {
        // 3163² = 10 004 569 nodes — the ≥10M acceptance point. Degree-4
        // lattice rows delta-encode to ~1 byte per far neighbour pair and
        // ~2–5 for the wrap-arounds, far under CSR's 24 B/node.
        let side = 3163usize;
        points.push(Point {
            family: "torus2d",
            label: format!("torus2d {side}x{side}"),
            build: Box::new(move || generators::torus2d(side, side)),
            stream: Box::new(move |w: &mut ShardWriter| {
                generators::torus2d_edges(side, side, |u, v| w.add_edge(u, v));
            }),
            ratio_floor: 2.0,
        });
    }

    let plan = RunPlan::new(Algorithm::constant(0.5), 1)
        .with_master_seed(0x5CA1E)
        .with_jobs(1)
        .with_config(
            SimConfig::default()
                .with_max_rounds(rounds)
                .with_kernel(PropagationKernel::Bitset)
                .with_rng_mode(RngMode::Counter),
        );

    let mut point_json = Vec::new();
    for point in &points {
        eprintln!("simbench[scale]: building {} in RAM …", point.label);
        let graph = (point.build)();
        let n = graph.node_count();
        eprintln!(
            "simbench[scale]: {} nodes, {} edges; {rounds} rounds × {reps} reps per backend",
            n,
            graph.edge_count()
        );

        let started = Instant::now();
        let compressed = CompressedGraph::from_view(&graph);
        let compress_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!("  compressed in {compress_ms:.0} ms");

        // Disk backend: stream-generate the shards (no CSR on this path),
        // then page them back through the block cache.
        let dir = std::env::temp_dir().join(format!(
            "simbench-scale-{}-{}",
            std::process::id(),
            point.family
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let mut writer = ShardWriter::create(&dir, n, DEFAULT_NODES_PER_SHARD)
            .map_err(|e| format!("shard writer: {e}"))?;
        (point.stream)(&mut writer);
        let summary = writer.finish().map_err(|e| format!("shard writer: {e}"))?;
        let shard_write_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "  streamed {} shard(s) in {shard_write_ms:.0} ms",
            summary.shard_count
        );
        if summary.node_count != n || summary.edge_count != graph.edge_count() {
            return Err(format!(
                "FATAL — streamed generation diverged from the in-RAM graph on {}",
                point.label
            ));
        }
        let disk = DiskGraph::open(&dir).map_err(|e| format!("disk graph: {e}"))?;

        let mut csr = BackendStats {
            ms: f64::INFINITY,
            adjacency_bytes: graph.adjacency_bytes(),
        };
        let mut comp = BackendStats {
            ms: f64::INFINITY,
            adjacency_bytes: compressed.adjacency_bytes(),
        };
        let mut paged = BackendStats {
            ms: f64::INFINITY,
            adjacency_bytes: disk.adjacency_bytes(),
        };
        // Interleave the backends and keep per-backend minima, as the
        // other suites do on this shared box.
        let (mut on_csr, mut on_comp, mut on_disk) = (None, None, None);
        for _ in 0..reps {
            on_csr = Some(time_plan_min(&plan, &graph, &mut csr.ms));
            on_comp = Some(time_plan_min(&plan, &compressed, &mut comp.ms));
            on_disk = Some(time_plan_min(&plan, &disk, &mut paged.ms));
        }
        let on_csr = on_csr.expect("at least one rep ran");
        let on_comp = on_comp.expect("at least one rep ran");
        let on_disk = on_disk.expect("at least one rep ran");
        let cache = disk.cache_stats();
        let resident = disk.resident_bytes_estimate();
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);

        // Gate 1: the backend must be invisible in the results, run for
        // run, before any timing is reported.
        if on_csr != on_comp || on_csr != on_disk {
            return Err(format!(
                "FATAL — adjacency backend changed the results on {}",
                point.label
            ));
        }
        // Gate 2: the compression floor. The 10M-node point pins the ≥2×
        // adjacency-bytes claim of the scale tier.
        let ratio = csr.bytes_per_node(n) / comp.bytes_per_node(n).max(1e-9);
        if ratio < point.ratio_floor {
            return Err(format!(
                "FATAL — compressed adjacency is only {ratio:.2}x below CSR on {} (floor {:.1}x)",
                point.label, point.ratio_floor
            ));
        }

        eprintln!(
            "  csr        {:7.1} ms  {:6.2} B/node  {:9.1} rounds/s",
            csr.ms,
            csr.bytes_per_node(n),
            csr.rounds_per_sec(rounds)
        );
        eprintln!(
            "  compressed {:7.1} ms  {:6.2} B/node  {:9.1} rounds/s  ({ratio:.2}x fewer bytes)",
            comp.ms,
            comp.bytes_per_node(n),
            comp.rounds_per_sec(rounds)
        );
        eprintln!(
            "  disk       {:7.1} ms  {:6.2} B/node  {:9.1} rounds/s  \
             ({} decode misses, {} hits, ~{:.1} MB resident)",
            paged.ms,
            paged.bytes_per_node(n),
            paged.rounds_per_sec(rounds),
            cache.misses,
            cache.hits,
            resident as f64 / 1e6
        );

        point_json.push(format!(
            "{{\n      \"family\": \"{family}\",\n      \"nodes\": {nodes},\n      \
             \"edges\": {edges},\n      \"rounds\": {rounds},\n      \
             \"csr\": {{ \"adjacency_bytes\": {cb}, \"bytes_per_node\": {cbn:.3}, \
             \"ms\": {cms:.3}, \"rounds_per_sec\": {crs:.3} }},\n      \
             \"compressed\": {{ \"adjacency_bytes\": {ob}, \"bytes_per_node\": {obn:.3}, \
             \"ms\": {oms:.3}, \"rounds_per_sec\": {ors:.3}, \"build_ms\": {obuild:.3} }},\n      \
             \"disk\": {{ \"adjacency_bytes\": {db}, \"bytes_per_node\": {dbn:.3}, \
             \"ms\": {dms:.3}, \"rounds_per_sec\": {drs:.3}, \"shards\": {dshards}, \
             \"shard_write_ms\": {dwrite:.3}, \"resident_bytes_estimate\": {dres}, \
             \"cache_hits\": {dhits}, \"cache_misses\": {dmiss} }},\n      \
             \"compression_ratio\": {ratio:.3},\n      \"outcomes_identical\": true\n    }}",
            family = point.family,
            nodes = n,
            edges = graph.edge_count(),
            cb = csr.adjacency_bytes,
            cbn = csr.bytes_per_node(n),
            cms = csr.ms,
            crs = csr.rounds_per_sec(rounds),
            ob = comp.adjacency_bytes,
            obn = comp.bytes_per_node(n),
            oms = comp.ms,
            ors = comp.rounds_per_sec(rounds),
            obuild = compress_ms,
            db = paged.adjacency_bytes,
            dbn = paged.bytes_per_node(n),
            dms = paged.ms,
            drs = paged.rounds_per_sec(rounds),
            dshards = summary.shard_count,
            dwrite = shard_write_ms,
            dres = resident,
            dhits = cache.hits,
            dmiss = cache.misses,
        ));
    }

    let peak_kb = peak_rss_kb().unwrap_or(0);
    eprintln!(
        "simbench[scale]: peak RSS {:.1} MB (VmHWM)",
        peak_kb as f64 / 1e3
    );

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"mode\": \"{mode}\",\n  \
         \"algorithm\": \"constant(0.5)\",\n  \"rng\": \"counter\",\n  \
         \"kernel\": \"bitset\",\n  \"reps\": {reps},\n  \
         \"cache_blocks\": {cache_blocks},\n  \
         \"peak_rss_kb\": {peak_kb},\n  \
         \"points\": [\n    {points}\n  ],\n  \
         \"outcomes_identical\": true\n}}\n",
        mode = if opts.quick { "quick" } else { "full" },
        reps = reps,
        cache_blocks = DEFAULT_CACHE_BLOCKS,
        peak_kb = peak_kb,
        points = point_json.join(",\n    "),
    );
    write_json(out, &json)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match opts.suite {
        Suite::Simulator => run_simulator_suite(&opts),
        Suite::Baselines => run_baselines_suite(&opts),
        Suite::Apps => run_apps_suite(&opts),
        Suite::Scale => run_scale_suite(&opts),
        Suite::All => run_simulator_suite(&opts)
            .and_then(|()| run_baselines_suite(&opts))
            .and_then(|()| run_apps_suite(&opts))
            .and_then(|()| run_scale_suite(&opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
