//! The per-node automaton interface.

use rand::rngs::SmallRng;

use mis_graph::NodeId;

use crate::{NetworkInfo, Verdict};

/// The automaton executed at each node, invoked by the
/// [`Simulator`](crate::Simulator) three times per round — once per
/// exchange plus a final decision (Table 1 of the paper).
///
/// Implementations only ever observe *whether* some neighbour beeped, never
/// how many or which: that is the defining restriction of the beeping
/// model.
///
/// The call sequence within a round for an active node is always:
///
/// 1. [`exchange1`](Self::exchange1) — return whether to emit a candidate
///    beep, given the node's private randomness;
/// 2. [`exchange2`](Self::exchange2) — told whether any neighbour beeped in
///    exchange 1; return whether to emit a join announcement;
/// 3. [`end_round`](Self::end_round) — told whether any neighbour announced
///    a join; return the node's [`Verdict`] and update internal state (the
///    feedback algorithm adjusts its probability here).
///
/// Processes must remember across calls whatever they need (typically: did
/// I beep, did I hear).
///
/// Processes are `Send` because a sharded run (see
/// [`SimConfig::shards`](crate::SimConfig::shards)) hands each shard's
/// processes to its own thread within a round.
pub trait BeepingProcess: Send {
    /// First exchange: decide whether to beep, using the node's private
    /// random stream.
    fn exchange1(&mut self, rng: &mut SmallRng) -> bool;

    /// Second exchange: `heard` reports whether any neighbour beeped in the
    /// first exchange. Return whether to emit the join announcement.
    ///
    /// For MIS processes the canonical body is
    /// `self.beeped && !heard` — a candidate that heard silence claims
    /// victory.
    fn exchange2(&mut self, heard: bool) -> bool;

    /// Finish the round: `heard_join` reports whether any neighbour emitted
    /// a join announcement. Return this node's verdict.
    fn end_round(&mut self, heard_join: bool) -> Verdict;

    /// The probability with which this node would beep in the *next*
    /// exchange 1 — exposed for instrumentation (the `µ_t` measure of the
    /// paper's analysis) and experiment logging; not used by the simulator
    /// for control flow.
    fn beep_probability(&self) -> f64;
}

/// Constructs the per-node [`BeepingProcess`] instances for a simulation.
///
/// The factory receives the node's id and degree plus global
/// [`NetworkInfo`]; algorithms that must remain anonymous/uninformed (the
/// paper's feedback algorithm) simply ignore these.
pub trait ProcessFactory {
    /// The process type this factory builds.
    type Process: BeepingProcess;

    /// Builds the process for `node` (with the given `degree`).
    fn create(&self, node: NodeId, degree: usize, info: &NetworkInfo) -> Self::Process;
}

/// Adapter turning a closure `(node, degree, &NetworkInfo) -> P` into a
/// [`ProcessFactory`].
///
/// # Examples
///
/// ```
/// use mis_beeping::{FnFactory, NetworkInfo, ProcessFactory};
/// # use mis_beeping::{BeepingProcess, Verdict};
/// # use rand::rngs::SmallRng;
/// # struct P;
/// # impl BeepingProcess for P {
/// #     fn exchange1(&mut self, _: &mut SmallRng) -> bool { false }
/// #     fn exchange2(&mut self, _: bool) -> bool { false }
/// #     fn end_round(&mut self, _: bool) -> Verdict { Verdict::Continue }
/// #     fn beep_probability(&self) -> f64 { 0.0 }
/// # }
///
/// let factory = FnFactory(|_node, _degree, _info: &NetworkInfo| P);
/// let info = NetworkInfo { node_count: 1, max_degree: 0 };
/// let _process = factory.create(0, 0, &info);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnFactory<F>(pub F);

impl<F, P> ProcessFactory for FnFactory<F>
where
    F: Fn(NodeId, usize, &NetworkInfo) -> P,
    P: BeepingProcess,
{
    type Process = P;

    fn create(&self, node: NodeId, degree: usize, info: &NetworkInfo) -> P {
        (self.0)(node, degree, info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;

    impl BeepingProcess for Silent {
        fn exchange1(&mut self, _rng: &mut SmallRng) -> bool {
            false
        }
        fn exchange2(&mut self, _heard: bool) -> bool {
            false
        }
        fn end_round(&mut self, _heard_join: bool) -> Verdict {
            Verdict::Continue
        }
        fn beep_probability(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn fn_factory_passes_arguments_through() {
        let factory = FnFactory(|node: NodeId, degree: usize, info: &NetworkInfo| {
            assert_eq!(node, 3);
            assert_eq!(degree, 2);
            assert_eq!(info.node_count, 10);
            Silent
        });
        let info = NetworkInfo {
            node_count: 10,
            max_degree: 4,
        };
        let mut p = factory.create(3, 2, &info);
        let mut rng = crate::rng::node_rng(0, 0);
        assert!(!p.exchange1(&mut rng));
        assert!(!p.exchange2(false));
        assert_eq!(p.end_round(false), Verdict::Continue);
        assert_eq!(p.beep_probability(), 0.0);
    }
}
