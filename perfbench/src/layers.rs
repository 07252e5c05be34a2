//! Calls into the `graph` and `sim` layers shared by the workloads, and
//! the arithmetic that turns their spans into per-layer metrics.

use std::hint::black_box;

use mis_beeping::{ProcessFactory, RunOutcome, SimConfig, Simulator};
use mis_graph::Graph;

use crate::harness::{median, ms, ratio};
use crate::trace::{self, Span, Tracer};
use crate::Metrics;

/// One full `neighbors()` sweep over `g`; returns a checksum so the
/// sweep cannot be optimised away.
pub fn scan(g: &Graph) -> u64 {
    let mut sum = 0u64;
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            sum = sum.wrapping_add(u64::from(u));
        }
    }
    black_box(sum)
}

/// What one stepped run spent where, read from its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub new_ns: u64,
    pub step_ns: u64,
    pub steps: u64,
    /// Node-rounds on nodes active before the step.
    pub active: u64,
    /// Steps entered with fewer than 10% of the nodes active.
    pub tail_steps: u64,
    pub tail_ns: u64,
    pub nodes: u64,
    pub edges: u64,
}

/// Runs one simulation to completion through [`Stepper`], recording
/// `sim.new`, one `sim.step` per round (tagged with the active count
/// before it) and `sim.finish`. With a disabled tracer no span is kept,
/// no active count is read, and only the outcome is meaningful.
///
/// [`Stepper`]: mis_beeping::Stepper
pub fn stepped_run<F: ProcessFactory>(
    tr: &mut Tracer,
    g: &Graph,
    factory: &F,
    seed: u64,
    config: SimConfig,
) -> (RunOutcome, RunStats) {
    let mut st = RunStats {
        nodes: g.node_count() as u64,
        edges: g.edge_count() as u64,
        ..RunStats::default()
    };
    let open = tr.begin("sim.new");
    let mut stepper = Simulator::new(g, factory, seed, config).into_stepper();
    st.new_ns = tr.end(open);
    while !stepper.is_done() {
        let active = if tr.is_enabled() {
            stepper.active_count() as u64
        } else {
            0
        };
        let open = tr.begin_tagged("sim.step", Some(active));
        stepper.step();
        let ns = tr.end(open);
        st.steps += 1;
        st.step_ns += ns;
        st.active += active;
        if active * 10 < st.nodes {
            st.tail_steps += 1;
            st.tail_ns += ns;
        }
    }
    let (outcome, _) = tr.span("sim.finish", || stepper.finish());
    (outcome, st)
}

/// The `sim.*` metrics over a set of traced runs: per-run medians for
/// times and round counts, sums for work counts.
pub fn sim_metrics(runs: &[RunStats], m: &mut Metrics) {
    let med = |f: &dyn Fn(&RunStats) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let node_rounds = sum(&|r| r.nodes * r.steps);
    let edge_rounds = sum(&|r| r.edges * r.steps);
    let step_ns = sum(&|r| r.step_ns);
    let active = sum(&|r| r.active);
    m.insert("sim.new_ms", med(&|r| ms(r.new_ns)));
    m.insert("sim.step_ms", med(&|r| ms(r.step_ns)));
    m.insert("sim.rounds", med(&|r| r.steps as f64));
    m.insert("sim.node_rounds", node_rounds);
    m.insert("sim.active_node_rounds", active);
    m.insert("sim.active_frac", ratio(active, node_rounds));
    m.insert("sim.ns_per_node_round", ratio(step_ns, node_rounds));
    m.insert("sim.ns_per_edge_round", ratio(step_ns, edge_rounds));
    m.insert("sim.tail_rounds", med(&|r| r.tail_steps as f64));
    m.insert("sim.tail_step_ms", med(&|r| ms(r.tail_ns)));
}

/// Adds the per-layer self times and the trace totals: `self.<layer>_ms`,
/// `trace.wall_ms` (root spans, once per tracing thread),
/// `trace.attributed_frac` (share of that wall inside a program layer)
/// and `trace.spans`.
pub fn add_self_times(m: &mut Metrics, spans: &[Span]) {
    let mut attributed = 0;
    for (layer, ns) in trace::self_times(spans) {
        let name = match layer {
            "bench" => "self.bench_ms",
            "graph" => "self.graph_ms",
            "sim" => "self.sim_ms",
            "core" => "self.core_ms",
            "serve" => "self.serve_ms",
            other => panic!("span outside the catalogued layers: {other}"),
        };
        if layer != "bench" {
            attributed += ns;
        }
        m.insert(name, ms(ns));
    }
    let wall = trace::root_ns(spans);
    m.insert("trace.wall_ms", ms(wall));
    m.insert(
        "trace.attributed_frac",
        ratio(attributed as f64, wall as f64),
    );
    m.insert("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::FeedbackFactory;

    #[test]
    fn stepped_run_matches_the_one_shot_run() {
        let g = mis_graph::generators::cycle(50);
        let f = FeedbackFactory::new();
        let mut tr = Tracer::enabled();
        let root = tr.begin("bench.test");
        let (outcome, st) = stepped_run(&mut tr, &g, &f, 3, SimConfig::default());
        tr.end(root);
        assert_eq!(
            outcome,
            Simulator::new(&g, &f, 3, SimConfig::default()).run()
        );
        assert_eq!(st.steps, u64::from(outcome.rounds()));
        let spans = tr.into_spans();
        let steps: Vec<_> = spans.iter().filter(|s| s.name == "sim.step").collect();
        assert_eq!(steps.len() as u64, st.steps);
        assert_eq!(steps[0].tag, Some(50));
        assert_eq!(steps.iter().map(|s| s.tag.unwrap()).sum::<u64>(), st.active);

        let mut m = Metrics::new();
        add_self_times(&mut m, &spans);
        let layers = m["self.bench_ms"] + m["self.sim_ms"];
        assert!((layers - m["trace.wall_ms"]).abs() < 1e-9);
        assert!(m["trace.attributed_frac"] > 0.0 && m["trace.attributed_frac"] <= 1.0);
    }

    #[test]
    fn sim_metrics_take_medians_and_sums() {
        let run = |steps, step_ns, active| RunStats {
            steps,
            step_ns,
            active,
            nodes: 10,
            edges: 20,
            ..RunStats::default()
        };
        let mut m = Metrics::new();
        sim_metrics(
            &[
                run(2, 4_000_000, 15),
                run(4, 6_000_000, 25),
                run(3, 5_000_000, 20),
            ],
            &mut m,
        );
        assert_eq!(m["sim.rounds"], 3.0);
        assert_eq!(m["sim.step_ms"], 5.0);
        assert_eq!(m["sim.node_rounds"], 90.0);
        assert_eq!(m["sim.active_frac"], 60.0 / 90.0);
        assert_eq!(m["sim.ns_per_edge_round"], 15e6 / 180.0);
    }
}
