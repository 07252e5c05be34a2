//! Counter-mode draws are a different sample of the same algorithm.
//!
//! Stream mode (the default) and counter mode draw different random
//! numbers, so their runs are not bit-identical; they must still sample
//! the same distribution, or every large-n number (all counter mode)
//! would describe a different algorithm than the paper's. A bias in
//! `rng::round_seed`/`mix` would pass every bit-identity suite. This gate
//! compares rounds and beeps per node of feedback runs between the two
//! modes, reliable and lossy, with two-sample KS and Mann–Whitney tests at
//! a Bonferroni-corrected level, and checks the gate has the power to
//! reject a genuinely different algorithm.

use beeping_mis::beeping::rng::mix;
use beeping_mis::beeping::{
    FaultPlan, ProcessFactory, PropagationKernel, RngMode, SimConfig, Simulator,
};
use beeping_mis::core::{FeedbackConfig, FeedbackFactory};
use beeping_mis::graph::{generators, Graph};
use beeping_mis::stats::{ks_test, mann_whitney_u};
use rand::{rngs::SmallRng, SeedableRng};

/// Runs per arm, one fresh `G(N, D/(N-1))` graph each.
const RUNS: u64 = 100;
const N: usize = 500;
const D: f64 = 12.0;
/// Master seed of the whole gate: graphs and runs derive from it, in
/// separate `mix` domains.
const MASTER: u64 = 0x5EED_D157;
const GRAPH_DOMAIN: u64 = 1;
const RUN_DOMAIN: u64 = 2;
/// What each run is measured by: rounds to termination, beeps per node,
/// and the size of the elected set (where message loss shows most).
const METRICS: [&str; 3] = ["rounds", "beeps per node", "MIS size"];
/// Family-wise error rate, Bonferroni-split over every p-value of one
/// comparison: each metric under KS and Mann–Whitney, for each of the two
/// comparisons.
const ALPHA: f64 = 0.01 / (2.0 * 2.0 * METRICS.len() as f64);

/// Per-delivery loss of the lossy arms.
const LOSS: f64 = 0.1;

/// One arm: each metric's values over `RUNS` runs.
type Sample = [Vec<f64>; METRICS.len()];

fn graph(i: u64) -> Graph {
    let p = D / (N - 1) as f64;
    let seed = mix(MASTER, GRAPH_DOMAIN, i, 0, 0);
    generators::gnp(N, p, &mut SmallRng::seed_from_u64(seed))
}

/// Measures `RUNS` terminated runs of `factory` under `config`.
fn sample<F: ProcessFactory>(factory: &F, config: &SimConfig) -> Sample {
    let mut sample = Sample::default();
    for i in 0..RUNS {
        let seed = mix(MASTER, RUN_DOMAIN, i, 0, 0);
        let outcome = Simulator::new(&graph(i), factory, seed, config.clone()).run();
        assert!(outcome.terminated(), "run {i} hit the round cap");
        sample[0].push(f64::from(outcome.rounds()));
        sample[1].push(outcome.metrics().mean_beeps_per_node());
        sample[2].push(outcome.mis().len() as f64);
    }
    sample
}

/// The KS and Mann–Whitney p-value of every metric, labelled.
fn p_values(a: &Sample, b: &Sample) -> Vec<(String, f64)> {
    METRICS
        .iter()
        .enumerate()
        .flat_map(|(m, metric)| {
            [
                (format!("{metric} KS"), ks_test(&a[m], &b[m]).p_value),
                (format!("{metric} MW"), mann_whitney_u(&a[m], &b[m]).p_value),
            ]
        })
        .collect()
}

fn assert_same_distribution(what: &str, a: &Sample, b: &Sample) {
    for (test, p) in p_values(a, b) {
        assert!(p >= ALPHA, "{what}: {test} p = {p:.2e} < α = {ALPHA:.2e}");
    }
}

fn assert_distinguished(what: &str, a: &Sample, b: &Sample) {
    let p = p_values(a, b);
    assert!(p.iter().any(|&(_, p)| p < ALPHA), "{what}: {p:?}");
}

fn counter() -> SimConfig {
    SimConfig::default().with_rng_mode(RngMode::Counter)
}

fn lossy(loss: f64) -> SimConfig {
    SimConfig::default().with_faults(FaultPlan {
        message_loss: loss,
        wake_rounds: Vec::new(),
    })
}

#[test]
fn reliable_counter_runs_sample_the_stream_distribution() {
    let feedback = FeedbackFactory::new();
    let stream = sample(&feedback, &SimConfig::default());
    assert_same_distribution(
        "reliable stream vs counter",
        &stream,
        &sample(&feedback, &counter()),
    );
}

#[test]
fn lossy_bitset_counter_runs_sample_the_scalar_stream_distribution() {
    let feedback = FeedbackFactory::new();
    let scalar_stream = sample(
        &feedback,
        &lossy(LOSS).with_kernel(PropagationKernel::Scalar),
    );
    let bitset_counter = lossy(LOSS)
        .with_rng_mode(RngMode::Counter)
        .with_kernel(PropagationKernel::Bitset);
    assert_same_distribution(
        "lossy scalar-stream vs bitset-counter",
        &scalar_stream,
        &sample(&feedback, &bitset_counter),
    );
}

/// The gate has power: at the same α it tells apart a different start
/// probability, and a doubled loss rate, from the reference.
#[test]
fn the_gate_rejects_a_different_algorithm() {
    let feedback = FeedbackFactory::new();
    let quarter = FeedbackFactory::with_config(FeedbackConfig::default().with_initial_p(0.25));
    assert_distinguished(
        "p₀ = ½ vs p₀ = ¼",
        &sample(&feedback, &counter()),
        &sample(&quarter, &counter()),
    );
    assert_distinguished(
        "loss ε vs 2ε",
        &sample(&feedback, &lossy(LOSS).with_rng_mode(RngMode::Counter)),
        &sample(
            &feedback,
            &lossy(2.0 * LOSS).with_rng_mode(RngMode::Counter),
        ),
    );
}
