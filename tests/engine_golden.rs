//! Golden pin of the round engine's observable behaviour.
//!
//! The kernel-equivalence suites compare two propagation kernels against
//! each other, so a drift that every kernel shares (in the per-node phases
//! around propagation, say) passes them. This suite pins absolute values
//! instead: for a matrix of configurations on two small graphs it records
//! each run's `outcome_digest`, its heartbeat count, and an FNV digest of
//! the active series, the per-round trace and every round's `RoundView`
//! (beeped, heard, status and probability bits). The table below was
//! recorded on the engine that preceded the active-set round engine; any
//! change to it is a change to what a run computes.

use std::fmt::Write as _;
use std::sync::Arc;

use beeping_mis::beeping::scenario::{ChurnModel, DelayModel, LossModel, WakePattern};
use beeping_mis::beeping::{
    FaultPlan, NodeStatus, PropagationKernel, RngMode, ScenarioSpec, SimConfig, Simulator,
    TraceLevel,
};
use beeping_mis::core::{outcome_digest, FeedbackFactory};
use beeping_mis::graph::{generators, Graph};
use rand::{rngs::SmallRng, SeedableRng};

/// 64-bit FNV-1a accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn status_code(s: NodeStatus) -> u64 {
    match s {
        NodeStatus::Active => 0,
        NodeStatus::InMis => 1,
        NodeStatus::Covered => 2,
        NodeStatus::Asleep => 3,
    }
}

/// The scenario axis of the matrix.
#[derive(Clone, Copy)]
enum Scn {
    None,
    WakeOnly,
    Perturbing,
}

fn scenario_spec(scn: Scn) -> Option<ScenarioSpec> {
    match scn {
        Scn::None => None,
        Scn::WakeOnly => Some(ScenarioSpec::new(5).with_wake(WakePattern::Wavefront {
            stride: 2,
            latest: 9,
        })),
        Scn::Perturbing => Some(
            ScenarioSpec::new(31)
                .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.3 })
                .with_delay(DelayModel::Random { p: 0.2, max: 3 })
                .with_churn(ChurnModel::Random {
                    p: 0.15,
                    max_len: 4,
                    earliest: 1,
                    latest: 12,
                }),
        ),
    }
}

/// Every configuration of the matrix, labelled.
fn matrix(n: usize) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (rng, rng_name) in [(RngMode::Stream, "stream"), (RngMode::Counter, "counter")] {
        for (kernel, kernel_name) in [
            (PropagationKernel::Scalar, "scalar"),
            (PropagationKernel::Bitset, "bitset"),
        ] {
            for loss in [0.0, 0.2] {
                for staggered in [false, true] {
                    for (scn, scn_name) in [
                        (Scn::None, "none"),
                        (Scn::WakeOnly, "wake"),
                        (Scn::Perturbing, "perturb"),
                    ] {
                        let wake_rounds = if staggered {
                            (0..n as u32).map(|v| (v % 5) * 2).collect()
                        } else {
                            Vec::new()
                        };
                        let mut cfg = SimConfig::default()
                            .with_max_rounds(2_000)
                            .with_rng_mode(rng)
                            .with_kernel(kernel)
                            .with_trace(TraceLevel::Rounds)
                            .with_active_series(true)
                            .with_mis_keeps_beeping(staggered)
                            .with_faults(FaultPlan {
                                message_loss: loss,
                                wake_rounds,
                            });
                        if let Some(spec) = scenario_spec(scn) {
                            cfg = cfg.with_scenario(Arc::new(spec));
                        }
                        let label = format!(
                            "{rng_name}/{kernel_name}/loss{loss}/{}/{scn_name}",
                            if staggered { "stagger" } else { "plain" }
                        );
                        if rng == RngMode::Counter && kernel == PropagationKernel::Bitset {
                            out.push((format!("{label}/shards2"), cfg.clone().with_shards(2)));
                        }
                        out.push((label, cfg));
                    }
                }
            }
        }
    }
    out
}

/// One line of the golden table for a feedback run of `cfg` on `g`.
fn golden_line(g: &Graph, seed: u64, label: &str, cfg: SimConfig) -> String {
    let mut views = Fnv::new();
    let outcome = Simulator::new(g, &FeedbackFactory::new(), seed, cfg).run_with_observer(|view| {
        views.eat(u64::from(view.round));
        let n = view.status.len();
        assert_eq!(view.beeped.len(), n);
        assert_eq!(view.heard.len(), n);
        assert_eq!(view.probabilities.len(), n);
        for v in 0..n {
            views.eat(
                u64::from(view.beeped[v])
                    | u64::from(view.heard[v]) << 1
                    | status_code(view.status[v]) << 2,
            );
            views.eat(view.probabilities[v].to_bits());
        }
    });
    let mut rest = Fnv::new();
    for &a in &outcome.metrics().active_series {
        rest.eat(a as u64);
    }
    for r in outcome.trace().records() {
        rest.eat(u64::from(r.round));
        rest.eat(u64::from(r.candidates));
        rest.eat(r.joined.len() as u64);
        for &v in &r.joined {
            rest.eat(u64::from(v));
        }
        rest.eat(u64::from(r.covered));
        rest.eat(u64::from(r.active_after));
    }
    rest.eat(views.0);
    format!(
        "{label} {:016x} {} {:016x}",
        outcome_digest(&outcome),
        outcome.metrics().heartbeat_signals,
        rest.0
    )
}

fn golden_table(name: &str, g: &Graph, seed: u64) -> String {
    let mut table = String::new();
    for (label, cfg) in matrix(g.node_count()) {
        writeln!(
            table,
            "{}",
            golden_line(g, seed, &format!("{name}/{label}"), cfg)
        )
        .unwrap();
    }
    table
}

fn assert_golden(actual: &str, expected: &str) {
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "golden mismatch; full actual table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden table length; full actual table:\n{actual}"
    );
}

#[test]
fn engine_matches_golden_on_gnp() {
    let g = generators::gnp(150, 0.06, &mut SmallRng::seed_from_u64(2024));
    assert_golden(&golden_table("gnp", &g, 7), GOLDEN_GNP);
}

#[test]
fn engine_matches_golden_on_grid() {
    // 9 × 13 = 117 nodes: the last beep word is partially filled.
    let g = generators::grid2d(9, 13);
    assert_golden(&golden_table("grid", &g, 11), GOLDEN_GRID);
}

const GOLDEN_GNP: &str = "\
gnp/stream/scalar/loss0/plain/none 5c121126f068a449 0 7a7e9668d94ab3cf
gnp/stream/scalar/loss0/plain/wake 95ba0833f7eb496b 0 18ce158022ce4d39
gnp/stream/scalar/loss0/plain/perturb 146e0c8b73dffb62 0 fad2b1369c1a3933
gnp/stream/scalar/loss0/stagger/none 6d17f9265bfb13b2 690 0d12ad024a351f9f
gnp/stream/scalar/loss0/stagger/wake 96e1715fcf58d24e 632 7cc006e002584a76
gnp/stream/scalar/loss0/stagger/perturb 7d2385627501098e 770 ed7918314ff0507a
gnp/stream/scalar/loss0.2/plain/none 3782dcd1ca2f645e 0 123cb335283dc331
gnp/stream/scalar/loss0.2/plain/wake f63393a536e47256 0 7d022a2934f559de
gnp/stream/scalar/loss0.2/plain/perturb ec9a8e422226a7ae 0 6f82bd42dc3e426b
gnp/stream/scalar/loss0.2/stagger/none 4ce1567ec29bd7a8 708 22289739fb2b5d71
gnp/stream/scalar/loss0.2/stagger/wake e86fb2195eb45c1a 976 56b555df78b85717
gnp/stream/scalar/loss0.2/stagger/perturb a0848ea962f6a257 928 f0ac9a3e341e4011
gnp/stream/bitset/loss0/plain/none 5c121126f068a449 0 7a7e9668d94ab3cf
gnp/stream/bitset/loss0/plain/wake 95ba0833f7eb496b 0 18ce158022ce4d39
gnp/stream/bitset/loss0/plain/perturb 146e0c8b73dffb62 0 fad2b1369c1a3933
gnp/stream/bitset/loss0/stagger/none 6d17f9265bfb13b2 690 0d12ad024a351f9f
gnp/stream/bitset/loss0/stagger/wake 96e1715fcf58d24e 632 7cc006e002584a76
gnp/stream/bitset/loss0/stagger/perturb 7d2385627501098e 770 ed7918314ff0507a
gnp/stream/bitset/loss0.2/plain/none 3782dcd1ca2f645e 0 123cb335283dc331
gnp/stream/bitset/loss0.2/plain/wake f63393a536e47256 0 7d022a2934f559de
gnp/stream/bitset/loss0.2/plain/perturb ec9a8e422226a7ae 0 6f82bd42dc3e426b
gnp/stream/bitset/loss0.2/stagger/none 4ce1567ec29bd7a8 708 22289739fb2b5d71
gnp/stream/bitset/loss0.2/stagger/wake e86fb2195eb45c1a 976 56b555df78b85717
gnp/stream/bitset/loss0.2/stagger/perturb a0848ea962f6a257 928 f0ac9a3e341e4011
gnp/counter/scalar/loss0/plain/none 043a6d0bda0d4dba 0 1cb218b46088b1fa
gnp/counter/scalar/loss0/plain/wake 74caff50639e21d8 0 4a4bffc7980d739c
gnp/counter/scalar/loss0/plain/perturb b6eae2e77bb27a5f 0 915dd1a8458ae722
gnp/counter/scalar/loss0/stagger/none 1a7048db319d3a79 616 459af723d2105c6c
gnp/counter/scalar/loss0/stagger/wake 15fc028f5f3ffe05 674 aeb3f26d020daed2
gnp/counter/scalar/loss0/stagger/perturb 9d2c176a340fdb93 660 223d4c3496ace789
gnp/counter/scalar/loss0.2/plain/none 5d0472050eb2d8a1 0 6932c8bb5bb3b973
gnp/counter/scalar/loss0.2/plain/wake 007ef60ee8c84c84 0 fce53fc7a1bcc497
gnp/counter/scalar/loss0.2/plain/perturb 31cd9311748d9f2d 0 904fef82993f18be
gnp/counter/scalar/loss0.2/stagger/none cc944ce9f3d7c01f 834 6bbd6c9a5de3b58d
gnp/counter/scalar/loss0.2/stagger/wake 68a31a4987fe9b9d 522 005f5009dbcb8b86
gnp/counter/scalar/loss0.2/stagger/perturb 0a962907ee8df8b1 670 e7a70afa4a495348
gnp/counter/bitset/loss0/plain/none/shards2 043a6d0bda0d4dba 0 1cb218b46088b1fa
gnp/counter/bitset/loss0/plain/none 043a6d0bda0d4dba 0 1cb218b46088b1fa
gnp/counter/bitset/loss0/plain/wake/shards2 74caff50639e21d8 0 4a4bffc7980d739c
gnp/counter/bitset/loss0/plain/wake 74caff50639e21d8 0 4a4bffc7980d739c
gnp/counter/bitset/loss0/plain/perturb/shards2 b6eae2e77bb27a5f 0 915dd1a8458ae722
gnp/counter/bitset/loss0/plain/perturb b6eae2e77bb27a5f 0 915dd1a8458ae722
gnp/counter/bitset/loss0/stagger/none/shards2 1a7048db319d3a79 616 459af723d2105c6c
gnp/counter/bitset/loss0/stagger/none 1a7048db319d3a79 616 459af723d2105c6c
gnp/counter/bitset/loss0/stagger/wake/shards2 15fc028f5f3ffe05 674 aeb3f26d020daed2
gnp/counter/bitset/loss0/stagger/wake 15fc028f5f3ffe05 674 aeb3f26d020daed2
gnp/counter/bitset/loss0/stagger/perturb/shards2 9d2c176a340fdb93 660 223d4c3496ace789
gnp/counter/bitset/loss0/stagger/perturb 9d2c176a340fdb93 660 223d4c3496ace789
gnp/counter/bitset/loss0.2/plain/none/shards2 5d0472050eb2d8a1 0 6932c8bb5bb3b973
gnp/counter/bitset/loss0.2/plain/none 5d0472050eb2d8a1 0 6932c8bb5bb3b973
gnp/counter/bitset/loss0.2/plain/wake/shards2 007ef60ee8c84c84 0 fce53fc7a1bcc497
gnp/counter/bitset/loss0.2/plain/wake 007ef60ee8c84c84 0 fce53fc7a1bcc497
gnp/counter/bitset/loss0.2/plain/perturb/shards2 31cd9311748d9f2d 0 904fef82993f18be
gnp/counter/bitset/loss0.2/plain/perturb 31cd9311748d9f2d 0 904fef82993f18be
gnp/counter/bitset/loss0.2/stagger/none/shards2 cc944ce9f3d7c01f 834 6bbd6c9a5de3b58d
gnp/counter/bitset/loss0.2/stagger/none cc944ce9f3d7c01f 834 6bbd6c9a5de3b58d
gnp/counter/bitset/loss0.2/stagger/wake/shards2 68a31a4987fe9b9d 522 005f5009dbcb8b86
gnp/counter/bitset/loss0.2/stagger/wake 68a31a4987fe9b9d 522 005f5009dbcb8b86
gnp/counter/bitset/loss0.2/stagger/perturb/shards2 0a962907ee8df8b1 670 e7a70afa4a495348
gnp/counter/bitset/loss0.2/stagger/perturb 0a962907ee8df8b1 670 e7a70afa4a495348
";

const GOLDEN_GRID: &str = "\
grid/stream/scalar/loss0/plain/none 6deb3ea683d29c42 0 2ca2531b1e7ab295
grid/stream/scalar/loss0/plain/wake 6a912502e16a48df 0 9e0fe342ae767eb9
grid/stream/scalar/loss0/plain/perturb 22f791bf0ecbbb3a 0 20d9241fdc85e128
grid/stream/scalar/loss0/stagger/none 15747a21183e5bc0 618 e0cc2fe4685f89de
grid/stream/scalar/loss0/stagger/wake 18437b3259f2932f 738 0ea53187658b2c12
grid/stream/scalar/loss0/stagger/perturb b6dba33e3a47538d 820 d99108421cd6b7fc
grid/stream/scalar/loss0.2/plain/none 64e24854d8301ad5 0 d5deb14c9613160c
grid/stream/scalar/loss0.2/plain/wake 3e8574e2485f7607 0 03003f6a93414bf5
grid/stream/scalar/loss0.2/plain/perturb 8b4460ca59ba6f95 0 3ba2a0fb69657f32
grid/stream/scalar/loss0.2/stagger/none 0e9c840353abddca 658 6d7bb30fac8dd834
grid/stream/scalar/loss0.2/stagger/wake c4c778644315ac19 572 efa0b9ed697e0550
grid/stream/scalar/loss0.2/stagger/perturb d1125a20780c813f 926 898e6af74681094a
grid/stream/bitset/loss0/plain/none 6deb3ea683d29c42 0 2ca2531b1e7ab295
grid/stream/bitset/loss0/plain/wake 6a912502e16a48df 0 9e0fe342ae767eb9
grid/stream/bitset/loss0/plain/perturb 22f791bf0ecbbb3a 0 20d9241fdc85e128
grid/stream/bitset/loss0/stagger/none 15747a21183e5bc0 618 e0cc2fe4685f89de
grid/stream/bitset/loss0/stagger/wake 18437b3259f2932f 738 0ea53187658b2c12
grid/stream/bitset/loss0/stagger/perturb b6dba33e3a47538d 820 d99108421cd6b7fc
grid/stream/bitset/loss0.2/plain/none 64e24854d8301ad5 0 d5deb14c9613160c
grid/stream/bitset/loss0.2/plain/wake 3e8574e2485f7607 0 03003f6a93414bf5
grid/stream/bitset/loss0.2/plain/perturb 8b4460ca59ba6f95 0 3ba2a0fb69657f32
grid/stream/bitset/loss0.2/stagger/none 0e9c840353abddca 658 6d7bb30fac8dd834
grid/stream/bitset/loss0.2/stagger/wake c4c778644315ac19 572 efa0b9ed697e0550
grid/stream/bitset/loss0.2/stagger/perturb d1125a20780c813f 926 898e6af74681094a
grid/counter/scalar/loss0/plain/none 24c07cbfab879402 0 b81f3928a009a195
grid/counter/scalar/loss0/plain/wake 1ec538a651892db6 0 b1fdf03651ccba8d
grid/counter/scalar/loss0/plain/perturb 37bd5af1d4fac366 0 d9582c8a76639706
grid/counter/scalar/loss0/stagger/none 36d91bb0929ad105 408 afc39a72a0acb96b
grid/counter/scalar/loss0/stagger/wake d105346f710833a8 742 3de5cf67fe86570e
grid/counter/scalar/loss0/stagger/perturb 9d4e25505967706d 864 6420439a44bbca40
grid/counter/scalar/loss0.2/plain/none 662a0d883f5691ba 0 9918d1320da81dd8
grid/counter/scalar/loss0.2/plain/wake 0fa1c27b60ee2ca4 0 6c3f44064f86263e
grid/counter/scalar/loss0.2/plain/perturb db8603cf71484177 0 deb635b257e1ce51
grid/counter/scalar/loss0.2/stagger/none 7b25ddece5635f7c 512 c00d3f22fa91d7b4
grid/counter/scalar/loss0.2/stagger/wake 7dabcdbf731c8b56 644 91a107957f14c753
grid/counter/scalar/loss0.2/stagger/perturb bc29724a572d3e6d 966 ca3698f6d8bf37e8
grid/counter/bitset/loss0/plain/none/shards2 24c07cbfab879402 0 b81f3928a009a195
grid/counter/bitset/loss0/plain/none 24c07cbfab879402 0 b81f3928a009a195
grid/counter/bitset/loss0/plain/wake/shards2 1ec538a651892db6 0 b1fdf03651ccba8d
grid/counter/bitset/loss0/plain/wake 1ec538a651892db6 0 b1fdf03651ccba8d
grid/counter/bitset/loss0/plain/perturb/shards2 37bd5af1d4fac366 0 d9582c8a76639706
grid/counter/bitset/loss0/plain/perturb 37bd5af1d4fac366 0 d9582c8a76639706
grid/counter/bitset/loss0/stagger/none/shards2 36d91bb0929ad105 408 afc39a72a0acb96b
grid/counter/bitset/loss0/stagger/none 36d91bb0929ad105 408 afc39a72a0acb96b
grid/counter/bitset/loss0/stagger/wake/shards2 d105346f710833a8 742 3de5cf67fe86570e
grid/counter/bitset/loss0/stagger/wake d105346f710833a8 742 3de5cf67fe86570e
grid/counter/bitset/loss0/stagger/perturb/shards2 9d4e25505967706d 864 6420439a44bbca40
grid/counter/bitset/loss0/stagger/perturb 9d4e25505967706d 864 6420439a44bbca40
grid/counter/bitset/loss0.2/plain/none/shards2 662a0d883f5691ba 0 9918d1320da81dd8
grid/counter/bitset/loss0.2/plain/none 662a0d883f5691ba 0 9918d1320da81dd8
grid/counter/bitset/loss0.2/plain/wake/shards2 0fa1c27b60ee2ca4 0 6c3f44064f86263e
grid/counter/bitset/loss0.2/plain/wake 0fa1c27b60ee2ca4 0 6c3f44064f86263e
grid/counter/bitset/loss0.2/plain/perturb/shards2 db8603cf71484177 0 deb635b257e1ce51
grid/counter/bitset/loss0.2/plain/perturb db8603cf71484177 0 deb635b257e1ce51
grid/counter/bitset/loss0.2/stagger/none/shards2 7b25ddece5635f7c 512 c00d3f22fa91d7b4
grid/counter/bitset/loss0.2/stagger/none 7b25ddece5635f7c 512 c00d3f22fa91d7b4
grid/counter/bitset/loss0.2/stagger/wake/shards2 7dabcdbf731c8b56 644 91a107957f14c753
grid/counter/bitset/loss0.2/stagger/wake 7dabcdbf731c8b56 644 91a107957f14c753
grid/counter/bitset/loss0.2/stagger/perturb/shards2 bc29724a572d3e6d 966 ca3698f6d8bf37e8
grid/counter/bitset/loss0.2/stagger/perturb bc29724a572d3e6d 966 ca3698f6d8bf37e8
";
