//! The synchronous two-exchange round engine.
//!
//! The engine is generic over [`GraphView`], so it runs identically on a
//! materialised CSR [`Graph`] and on the lazy derived-graph adapters
//! (`LineGraphView`, `ProductView`, `InducedView`) — adjacency is only ever
//! consumed through ascending-order neighbour iteration, which every view
//! provides.

use core::fmt;
use core::ops::{ControlFlow, Index};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mis_graph::{Graph, GraphView, NodeId};

use crate::rng::{fault_stream_seed, loss_dropped, node_rng, round_seed};
use crate::scenario::{Delivery, Scenario};
use crate::{
    BeepingProcess, Metrics, NetworkInfo, NodeStatus, ProcessFactory, PropagationKernel, RngMode,
    RoundRecord, SimConfig, Trace, TraceLevel, Verdict,
};

/// Bits per packed word of the beep and hear buffers.
const WORD_BITS: usize = 64;

/// Beep density (beepers ≥ n / `PULL_CROSSOVER`) above which the bitset
/// kernel pulls (per-listener early-exit scan) instead of pushing from each
/// beeper. Both directions give identical results; this only tunes speed.
const PULL_CROSSOVER: usize = 8;

/// Active-list length below which a round's per-node phases run as one
/// part on the calling thread even when the run is sharded: a scoped
/// spawn and join costs tens of microseconds, more than the per-node work
/// of a sparse round saves.
const SHARD_MIN_ACTIVE: usize = 4096;

/// Read-only view of one completed round, passed to observers registered
/// via [`Simulator::run_with_observer`].
///
/// Observers power the paper-analysis instrumentation (`µ_t` measures,
/// event classification) without slowing down ordinary runs.
#[derive(Debug)]
pub struct RoundView<'a> {
    /// Round index (0-based).
    pub round: u32,
    /// Which nodes beeped in exchange 1 this round: the candidates, plus
    /// the MIS members' heartbeats when
    /// [`mis_keeps_beeping`](SimConfig::mis_keeps_beeping) is on.
    pub beeped: Bits<'a>,
    /// Which nodes heard a beep in exchange 1 this round (every awake,
    /// present listener, settled ones included).
    pub heard: Bits<'a>,
    /// Node statuses *after* the round's decisions.
    pub status: &'a [NodeStatus],
    /// Beep probabilities of all nodes *at the start* of the round
    /// (0 for inactive, sleeping or absent nodes).
    pub probabilities: &'a [f64],
}

/// A read-only bit-per-node view over packed `u64` words (node `v` is bit
/// `v % 64` of word `v / 64`), as the engine stores beeps and hears.
///
/// Indexes like a `&[bool]`: `bits[v]` is a `bool`, and `Debug` prints the
/// same list a `[bool]` slice would.
#[derive(Clone, Copy)]
pub struct Bits<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> Bits<'a> {
    fn new(words: &'a [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(WORD_BITS));
        Self { words, len }
    }

    /// Number of bits (nodes) in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Index<usize> for Bits<'_> {
    type Output = bool;

    fn index(&self, i: usize) -> &bool {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        if bit(self.words, i) {
            &true
        } else {
            &false
        }
    }
}

impl PartialEq for Bits<'_> {
    fn eq(&self, other: &Self) -> bool {
        let full = self.len / WORD_BITS;
        let tail = self.len % WORD_BITS;
        self.len == other.len
            && self.words[..full] == other.words[..full]
            && (tail == 0 || (self.words[full] ^ other.words[full]) & ((1u64 << tail) - 1) == 0)
    }
}

impl Eq for Bits<'_> {}

impl fmt::Debug for Bits<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len).map(|i| self[i]))
            .finish()
    }
}

/// Bit `v` of a packed word buffer.
#[inline]
fn bit(words: &[u64], v: usize) -> bool {
    words[v / WORD_BITS] >> (v % WORD_BITS) & 1 != 0
}

/// Sets bit `v` of a packed word buffer.
#[inline]
fn set_bit(words: &mut [u64], v: usize) {
    words[v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
}

/// Words per shard when `words` packed words split into `shards`
/// word-aligned ranges (the last range may be shorter, and fewer ranges
/// than `shards` may result).
fn chunk_words(words: usize, shards: usize) -> usize {
    words.div_ceil(shards).max(1)
}

/// Runs `f` on every part, the first on the calling thread and each other
/// on its own scoped thread, and returns the results in part order. A
/// panic in any part resumes on the calling thread.
fn run_parts<S: Send, T: Send>(parts: Vec<S>, f: impl Fn(S) -> T + Sync) -> Vec<T> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = parts.map(|part| scope.spawn(move || f(part))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for handle in handles {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

/// Splits the first `k` elements (all of them, if fewer) off the front of
/// `s`.
fn take_front<'a, T>(s: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let k = k.min(s.len());
    let (front, rest) = core::mem::take(s).split_at_mut(k);
    *s = rest;
    front
}

/// Shared-slice twin of [`take_front`].
fn take_front_ref<'a, T>(s: &mut &'a [T], k: usize) -> &'a [T] {
    let (front, rest) = s.split_at(k.min(s.len()));
    *s = rest;
    front
}

/// Calls `f` on the index of every set bit, ascending.
#[inline]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(wi * WORD_BITS + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Result of a completed (or capped) simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    statuses: Vec<NodeStatus>,
    rounds: u32,
    terminated: bool,
    metrics: Metrics,
    trace: Trace,
    kernel_used: PropagationKernel,
    shards_used: usize,
}

impl PartialEq for RunOutcome {
    fn eq(&self, other: &Self) -> bool {
        // `kernel_used` and `shards_used` are diagnostic, not part of the
        // semantic outcome: the kernel- and sharding-equivalence contracts
        // are precisely that runs compare equal *across* them.
        self.statuses == other.statuses
            && self.rounds == other.rounds
            && self.terminated == other.terminated
            && self.metrics == other.metrics
            && self.trace == other.trace
    }
}

impl RunOutcome {
    /// The selected independent set, sorted ascending.
    ///
    /// When the run `terminated` and the processes implement an MIS
    /// algorithm correctly under a fault-free network, this is a maximal
    /// independent set (verify with `mis-core`'s checker).
    #[must_use]
    pub fn mis(&self) -> Vec<NodeId> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::InMis)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Final status of every node.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Number of rounds executed.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether every node became inactive before the round cap.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Collected metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Recorded trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The propagation kernel that actually executed the run.
    ///
    /// A run configured with [`PropagationKernel::Bitset`] may still be
    /// served by the scalar reference kernel when the configuration
    /// requires it — a delivery-perturbing/churning scenario, or message
    /// loss under the legacy [`RngMode::Stream`] — and this field makes
    /// that substitution explicit rather than silent. Excluded from
    /// `PartialEq`: outcomes are kernel-independent by contract.
    #[must_use]
    pub fn kernel_used(&self) -> PropagationKernel {
        self.kernel_used
    }

    /// The number of shards the run's rounds actually split into.
    ///
    /// On the counter-mode bitset kernel this is the number of word-aligned
    /// node ranges the configured [`shards`](SimConfig::shards) (`0`
    /// resolved to one per core) yields: the request, capped at one range
    /// per 64-node word. Every other path reports `1`, since it is
    /// sequential regardless of the request (for example a scenario that
    /// forces the scalar reference path). Each shard owns one word-aligned
    /// node range for the whole round. A round's per-node phases (the
    /// probability snapshot with the exchange-1 draws, the exchange-2
    /// automaton, and decide/metrics with active-list compaction) split
    /// only while at least 4096 nodes are active; the dense-beep pull
    /// always splits. Excluded from `PartialEq`: outcomes are
    /// shard-independent by contract.
    #[must_use]
    pub fn shards_used(&self) -> usize {
        self.shards_used
    }
}

/// Drives [`BeepingProcess`] automatons over a graph in synchronous
/// two-exchange rounds.
///
/// Construct with [`Simulator::new`], then either call [`run`](Self::run)
/// (or [`run_with_observer`](Self::run_with_observer)) to completion, or
/// convert [`into_stepper`](Self::into_stepper) for round-by-round control.
pub struct Simulator<'g, F: ProcessFactory, G: GraphView + ?Sized = Graph> {
    stepper: Stepper<'g, F, G>,
}

impl<'g, F: ProcessFactory, G: GraphView + ?Sized> Simulator<'g, F, G> {
    /// Creates a simulator over `graph` (a CSR [`Graph`] or any lazy
    /// [`GraphView`]) with per-node processes built by `factory`, deriving
    /// all randomness from `master_seed`.
    pub fn new(graph: &'g G, factory: &F, master_seed: u64, config: SimConfig) -> Self {
        Self {
            stepper: Stepper::new(graph, factory, master_seed, config),
        }
    }

    /// Runs to termination or the round cap.
    #[must_use]
    pub fn run(self) -> RunOutcome {
        self.run_with_observer(|_| {})
    }

    /// Runs to termination or the round cap, invoking `observer` after
    /// every round with a [`RoundView`].
    #[must_use]
    pub fn run_with_observer(mut self, mut observer: impl FnMut(&RoundView<'_>)) -> RunOutcome {
        while !self.stepper.is_done() {
            self.stepper.step();
            observer(&self.stepper.last_round_view());
        }
        self.stepper.finish()
    }

    /// Converts into a [`Stepper`] for incremental, inspectable execution.
    #[must_use]
    pub fn into_stepper(self) -> Stepper<'g, F, G> {
        self.stepper
    }
}

/// Incremental round-by-round execution of a beeping simulation, with full
/// visibility into node states between rounds.
///
/// Use this for visualisation, debugging, or analyses that need to stop
/// mid-run; [`Simulator::run`] is the one-shot wrapper.
///
/// # Examples
///
/// ```
/// use mis_beeping::{SimConfig, Simulator, NodeStatus};
/// # use mis_beeping::{BeepingProcess, FnFactory, NetworkInfo, Verdict};
/// # use rand::{rngs::SmallRng, Rng};
/// # struct Coin { beeped: bool, heard: bool }
/// # impl BeepingProcess for Coin {
/// #     fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
/// #         self.beeped = rng.random_bool(0.5); self.beeped
/// #     }
/// #     fn exchange2(&mut self, heard: bool) -> bool {
/// #         self.heard = heard; self.beeped && !heard
/// #     }
/// #     fn end_round(&mut self, heard_join: bool) -> Verdict {
/// #         if self.beeped && !self.heard { Verdict::JoinMis }
/// #         else if heard_join { Verdict::Covered } else { Verdict::Continue }
/// #     }
/// #     fn beep_probability(&self) -> f64 { 0.5 }
/// # }
///
/// let graph = mis_graph::generators::cycle(6);
/// let factory = FnFactory(|_, _, _: &NetworkInfo| Coin { beeped: false, heard: false });
/// let mut stepper = Simulator::new(&graph, &factory, 3, SimConfig::default()).into_stepper();
/// while !stepper.is_done() {
///     stepper.step();
///     let active = stepper
///         .statuses()
///         .iter()
///         .filter(|s| **s == NodeStatus::Active)
///         .count();
///     println!("round {}: {active} active", stepper.round());
/// }
/// let outcome = stepper.finish();
/// assert!(outcome.terminated());
/// ```
pub struct Stepper<'g, F: ProcessFactory, G: GraphView + ?Sized = Graph> {
    graph: &'g G,
    config: SimConfig,
    master_seed: u64,
    // Which kernel actually runs (resolved once from the configuration;
    // see `RunOutcome::kernel_used`), and the effective intra-run shard
    // count (1 = sequential).
    kernel_used: PropagationKernel,
    shards: usize,
    processes: Vec<F::Process>,
    status: Vec<NodeStatus>,
    // Per-node streams (stream mode only; empty under counter draws).
    rngs: Vec<SmallRng>,
    fault_rng: SmallRng,
    metrics: Metrics,
    trace: Trace,
    // Beeps and hears of both exchanges, one bit per node.
    beep1: Vec<u64>,
    beep2: Vec<u64>,
    heard1: Vec<u64>,
    heard2: Vec<u64>,
    probs: Vec<f64>,
    // Ascending ids of exactly the nodes whose status is `Active`
    // (churned-away ones included); every per-node phase runs over it.
    active: Vec<NodeId>,
    // MIS members in join order; they drive the heartbeats.
    members: Vec<NodeId>,
    // Nodes that left `active` in the last round; their `probs` entries
    // are zeroed at the top of the next round.
    left: Vec<NodeId>,
    // Sleeping nodes sorted by (wake round, id): the later of the fault
    // plan's and the scenario's wake round. Entries before `woken` are
    // awake; the rest are exactly the nodes still `Asleep`.
    wake_queue: Vec<(u32, NodeId)>,
    woken: usize,
    // Churn scratch: which nodes are absent this round.
    away: Vec<bool>,
    // Scenario-delayed deliveries per exchange: (arrival round, receiver).
    pending1: Vec<(u32, NodeId)>,
    pending2: Vec<(u32, NodeId)>,
    remaining: usize,
    round: u32,
}

impl<'g, F: ProcessFactory, G: GraphView + ?Sized> Stepper<'g, F, G> {
    fn new(graph: &'g G, factory: &F, master_seed: u64, config: SimConfig) -> Self {
        let n = graph.node_count();
        let info = NetworkInfo {
            node_count: n,
            max_degree: graph.max_degree(),
        };
        let processes: Vec<F::Process> = (0..n as NodeId)
            .map(|v| factory.create(v, graph.degree(v), &info))
            .collect();
        let scenario_wake: Option<Vec<u32>> = config.scenario.as_ref().map(|s| {
            let degrees: Vec<usize> = (0..n as NodeId).map(|v| graph.degree(v)).collect();
            s.wake_schedule(&degrees)
        });
        let mut active = Vec::new();
        let mut wake_queue = Vec::new();
        let mut status = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let from_scenario = scenario_wake
                .as_ref()
                .and_then(|w| w.get(v as usize).copied())
                .unwrap_or(0);
            let wake = config.faults.wake_round(v).max(from_scenario);
            if wake > 0 {
                wake_queue.push((wake, v));
                status.push(NodeStatus::Asleep);
            } else {
                active.push(v);
                status.push(NodeStatus::Active);
            }
        }
        wake_queue.sort_unstable();
        let rngs: Vec<SmallRng> = if config.rng == RngMode::Counter {
            // Counter mode reseeds per (node, round); no standing streams.
            Vec::new()
        } else {
            (0..n as NodeId).map(|v| node_rng(master_seed, v)).collect()
        };
        let fault_rng = SmallRng::seed_from_u64(fault_stream_seed(master_seed));
        // Resolve which kernel actually runs. The scenario reference path
        // (delivery perturbation or churn) is scalar by definition, and
        // stream-mode loss draws must consume the fault RNG in the scalar
        // reference order; counter-mode loss draws are order-free, so a
        // lossy bitset request is honoured.
        let lossy = config.faults.message_loss > 0.0;
        let scenario_path = config
            .scenario
            .as_deref()
            .is_some_and(|s| Scenario::has_churn(s) || Scenario::perturbs_deliveries(s));
        let kernel_used = if scenario_path || (lossy && config.rng == RngMode::Stream) {
            PropagationKernel::Scalar
        } else {
            config.kernel
        };
        // Sharding needs order-free draws (counter mode) and the bitset
        // kernel; the scalar and scenario reference paths stay sequential
        // regardless.
        // The effective count is the number of word-aligned ranges the
        // requested split yields: at most one per word.
        let words = n.div_ceil(WORD_BITS);
        let shards = if config.rng == RngMode::Counter && kernel_used == PropagationKernel::Bitset {
            let requested = match config.shards {
                0 => crate::batch::auto_jobs(),
                s => s,
            };
            words.div_ceil(chunk_words(words, requested)).max(1)
        } else {
            1
        };
        Self {
            graph,
            config,
            master_seed,
            kernel_used,
            shards,
            processes,
            status,
            rngs,
            fault_rng,
            metrics: Metrics::new(n),
            trace: Trace::default(),
            beep1: vec![0; words],
            beep2: vec![0; words],
            heard1: vec![0; words],
            heard2: vec![0; words],
            probs: vec![0.0; n],
            active,
            members: Vec::new(),
            left: Vec::new(),
            wake_queue,
            woken: 0,
            away: vec![false; n],
            pending1: Vec::new(),
            pending2: Vec::new(),
            remaining: n,
            round: 0,
        }
    }

    /// Whether the run is over (all nodes inactive, or round cap hit).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining == 0 || self.round >= self.config.max_rounds
    }

    /// Wakes the sleeping nodes due by `round`, merging them into the
    /// ascending active list.
    fn wake_due(&mut self, round: u32) {
        let first = self.woken;
        while self
            .wake_queue
            .get(self.woken)
            .is_some_and(|&(wake, _)| wake <= round)
        {
            self.woken += 1;
        }
        // Rounds advance one at a time from 0 and every queued wake round
        // is positive, so a due batch shares one wake round and is
        // ascending by id.
        let due = &self.wake_queue[first..self.woken];
        if due.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.active.len() + due.len());
        let mut rest = self.active.as_slice();
        for &(_, v) in due {
            self.status[v as usize] = NodeStatus::Active;
            let split = rest.partition_point(|&u| u < v);
            merged.extend_from_slice(&rest[..split]);
            merged.push(v);
            rest = &rest[split..];
        }
        merged.extend_from_slice(rest);
        self.active = merged;
    }

    /// Splits the per-node state into `shards` word-aligned node ranges
    /// (the ranges the bitset pull uses too) and returns the [`Part`] of
    /// every range that holds an active node, in ascending order.
    fn split_parts(&mut self, shards: usize) -> Vec<Part<'_, F::Process>> {
        let n = self.status.len();
        let len = chunk_words(n.div_ceil(WORD_BITS), shards) * WORD_BITS;
        let mut active = self.active.as_mut_slice();
        let mut processes = self.processes.as_mut_slice();
        let mut rngs = self.rngs.as_mut_slice();
        let mut away = self.away.as_slice();
        let mut probs = self.probs.as_mut_slice();
        let mut status = self.status.as_mut_slice();
        let mut signals = self.metrics.signals.as_mut_slice();
        let mut beeps = self.metrics.beeps.as_mut_slice();
        let mut beep1 = self.beep1.as_mut_slice();
        let mut beep2 = self.beep2.as_mut_slice();
        let mut heard1 = self.heard1.as_slice();
        let mut heard2 = self.heard2.as_slice();
        let mut parts = Vec::with_capacity(shards);
        for lo in (0..n).step_by(len) {
            let hi = (lo + len).min(n);
            let words = (hi - lo).div_ceil(WORD_BITS);
            let count = active.partition_point(|&v| (v as usize) < hi);
            let part = Part {
                lo,
                active: take_front(&mut active, count),
                processes: take_front(&mut processes, hi - lo),
                // Empty in counter mode, so every part gets an empty slice.
                rngs: take_front(&mut rngs, hi - lo),
                away: take_front_ref(&mut away, hi - lo),
                probs: take_front(&mut probs, hi - lo),
                status: take_front(&mut status, hi - lo),
                signals: take_front(&mut signals, hi - lo),
                beeps: take_front(&mut beeps, hi - lo),
                beep1: take_front(&mut beep1, words),
                beep2: take_front(&mut beep2, words),
                heard1: take_front_ref(&mut heard1, words),
                heard2: take_front_ref(&mut heard2, words),
            };
            if !part.active.is_empty() {
                parts.push(part);
            }
        }
        parts
    }

    /// Propagates one exchange's beeps (`exchange1` picks the
    /// `beep1`/`heard1` buffer pair, otherwise `beep2`/`heard2`) through
    /// the kernel the flags select. `scenario` is `Some` only on the
    /// scenario reference path (delivery perturbation or churn).
    fn broadcast_exchange(
        &mut self,
        exchange1: bool,
        bitset: bool,
        lossy: bool,
        scenario: Option<&dyn Scenario>,
        churn: bool,
    ) {
        let loss = self.config.faults.message_loss;
        let slot = u64::from(self.round) * 2 + u64::from(!exchange1);
        let mut drop = if !lossy {
            LossDraw::None
        } else if self.config.rng == RngMode::Counter {
            LossDraw::Counter(CounterLoss {
                master: self.master_seed,
                slot,
                loss,
            })
        } else {
            LossDraw::Stream {
                rng: &mut self.fault_rng,
                loss,
            }
        };
        let (beeps, heard, pending) = if exchange1 {
            (&self.beep1, &mut self.heard1, &mut self.pending1)
        } else {
            (&self.beep2, &mut self.heard2, &mut self.pending2)
        };
        if let Some(scenario) = scenario {
            broadcast_scenario(
                self.graph,
                &self.status,
                &self.away,
                churn,
                &mut drop,
                scenario,
                self.round,
                u32::from(!exchange1),
                beeps,
                heard,
                pending,
            );
        } else if bitset {
            let counter_loss = match drop {
                LossDraw::Counter(cl) => Some(cl),
                _ => None,
            };
            broadcast_bitset(
                self.graph,
                &self.status,
                &self.wake_queue[self.woken..],
                beeps,
                heard,
                counter_loss,
                self.shards,
            );
        } else {
            broadcast(self.graph, &self.status, &mut drop, beeps, heard);
        }
    }

    /// Executes one full round (both exchanges plus decisions). Does
    /// nothing once [`is_done`](Self::is_done).
    pub fn step(&mut self) {
        if self.is_done() {
            return;
        }
        let n = self.graph.node_count();
        let round = self.round;
        let lossy = self.config.faults.message_loss > 0.0;
        // Scenario capability flags: a wake-only scenario costs nothing
        // here and keeps the fast kernels; delivery perturbation or churn
        // switches to the scalar scenario reference path.
        let scenario = self.config.scenario.clone();
        let churn = scenario.as_deref().is_some_and(Scenario::has_churn);
        let scenario_path = churn
            || scenario
                .as_deref()
                .is_some_and(Scenario::perturbs_deliveries);
        let scenario_ref = if scenario_path {
            scenario.as_deref()
        } else {
            None
        };
        // Which kernel runs was resolved at construction (scenario paths
        // are scalar; stream-mode lossy runs are scalar; counter-mode
        // lossy bitset is legal because the loss draws are pure).
        debug_assert!(!scenario_path || self.kernel_used == PropagationKernel::Scalar);
        let bitset = self.kernel_used == PropagationKernel::Bitset;
        let counter = self.config.rng == RngMode::Counter;
        let heartbeat = self.config.mis_keeps_beeping;

        // Nodes that left last round stop reporting a probability.
        for &v in &self.left {
            self.probs[v as usize] = 0.0;
        }
        self.left.clear();

        // Wake sleeping nodes whose time has come.
        if self.woken < self.wake_queue.len() {
            self.wake_due(round);
        }

        // Churn: mark who is absent this round. An absent node is frozen —
        // it neither beeps nor hears, draws no randomness, and makes no
        // decisions until its window ends.
        if churn {
            let s = scenario.as_deref().expect("churn implies a scenario");
            for v in 0..n {
                self.away[v] = s.absent(v as NodeId, round);
            }
        }

        // The per-node phases split across the run's shards while enough
        // nodes are active; otherwise they run as one part on this thread.
        let shards = if self.active.len() >= SHARD_MIN_ACTIVE {
            self.shards
        } else {
            1
        };
        let ctx = RoundCtx {
            master: self.master_seed,
            round,
            counter,
            churn,
        };

        // Snapshot probabilities (observer/stepper visibility), then
        // exchange 1: candidate beeps. With the heartbeat repair, MIS
        // members also beep here, persistently inhibiting late wakers from
        // claiming next to them (like sustained Delta expression by SOP
        // cells).
        self.beep1.fill(0);
        let candidates: u32 = run_parts(self.split_parts(shards), |part| draw_beeps(part, ctx))
            .into_iter()
            .sum();
        if heartbeat {
            for &v in &self.members {
                if !(churn && self.away[v as usize]) {
                    self.metrics.heartbeat_signals += 1;
                    set_bit(&mut self.beep1, v as usize);
                }
            }
        }
        self.broadcast_exchange(true, bitset, lossy, scenario_ref, churn);

        // Exchange 2: join announcements (plus optional MIS heartbeats).
        self.beep2.fill(0);
        run_parts(self.split_parts(shards), |part| answer_joins(part, ctx));
        if heartbeat {
            for &v in &self.members {
                if !(churn && self.away[v as usize]) {
                    self.metrics.heartbeat_signals += 1;
                    set_bit(&mut self.beep2, v as usize);
                }
            }
        }
        self.broadcast_exchange(false, bitset, lossy, scenario_ref, churn);

        // Decisions and metric accounting. Each part compacts its own
        // stretch of the active list in place; closing the gaps between
        // the stretches keeps the list ascending, and concatenating the
        // parts' joined and left lists keeps them in ascending id order.
        let decided = run_parts(self.split_parts(shards), |part| decide(part, ctx));
        let mut joined: Vec<NodeId> = Vec::new();
        let mut covered: u32 = 0;
        let (mut start, mut kept) = (0, 0);
        for mut d in decided {
            self.active.copy_within(start..start + d.kept, kept);
            start += d.len;
            kept += d.kept;
            covered += d.covered;
            joined.append(&mut d.joined);
            self.left.append(&mut d.left);
        }
        self.active.truncate(kept);
        self.remaining -= self.left.len();
        if heartbeat {
            self.members.extend_from_slice(&joined);
        }

        if self.config.record_active_series {
            self.metrics.active_series.push(self.active_count());
        }
        if self.config.trace == TraceLevel::Rounds {
            self.trace.push(RoundRecord {
                round,
                candidates,
                joined,
                covered,
                active_after: self.active_count() as u32,
            });
        }
        self.round += 1;
        self.metrics.rounds = self.round;
    }

    /// The view of the most recently executed round.
    ///
    /// # Panics
    ///
    /// Panics if no round has been executed yet.
    #[must_use]
    pub fn last_round_view(&self) -> RoundView<'_> {
        assert!(self.round > 0, "no round has been executed yet");
        let n = self.status.len();
        RoundView {
            round: self.round - 1,
            beeped: Bits::new(&self.beep1, n),
            heard: Bits::new(&self.heard1, n),
            status: &self.status,
            probabilities: &self.probs,
        }
    }

    /// Number of completed rounds.
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Current status of every node.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.status
    }

    /// Beep probabilities captured at the start of the last executed round
    /// (all zeros before the first step; 0 for any node that was inactive,
    /// asleep or absent then).
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Number of currently active nodes.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Finalises the run into a [`RunOutcome`] (callable at any point; an
    /// unfinished run reports `terminated() == false` only if nodes remain
    /// active *and* the cap was reached — stopping early by choice keeps
    /// `terminated()` equal to “no node remains active”).
    #[must_use]
    pub fn finish(self) -> RunOutcome {
        RunOutcome {
            terminated: self.remaining == 0,
            statuses: self.status,
            rounds: self.round,
            metrics: self.metrics,
            trace: self.trace,
            kernel_used: self.kernel_used,
            shards_used: self.shards,
        }
    }

    /// The propagation kernel this run actually executes (see
    /// [`RunOutcome::kernel_used`]).
    #[must_use]
    pub fn kernel_used(&self) -> PropagationKernel {
        self.kernel_used
    }
}

/// One shard's share of the round state: the word-aligned node range
/// `lo..lo + processes.len()`, every per-node buffer's slice over it
/// (indexed by `v - lo`, bits and words alike since `lo` is a multiple of
/// 64), and the stretch of the ascending active list that falls in it.
///
/// Each per-node phase is written once, over a `Part`; the sequential path
/// is the same call on a single part covering every node.
struct Part<'a, P> {
    lo: usize,
    active: &'a mut [NodeId],
    processes: &'a mut [P],
    rngs: &'a mut [SmallRng],
    away: &'a [bool],
    probs: &'a mut [f64],
    status: &'a mut [NodeStatus],
    signals: &'a mut [u32],
    beeps: &'a mut [u32],
    beep1: &'a mut [u64],
    beep2: &'a mut [u64],
    heard1: &'a [u64],
    heard2: &'a [u64],
}

/// What every part of a round reads alike.
#[derive(Clone, Copy)]
struct RoundCtx {
    master: u64,
    round: u32,
    counter: bool,
    churn: bool,
}

/// Snapshots the part's probabilities and draws its exchange-1 beeps;
/// returns how many of its nodes are candidates.
fn draw_beeps<P: BeepingProcess>(part: Part<'_, P>, ctx: RoundCtx) -> u32 {
    let mut candidates = 0;
    for &v in part.active.iter() {
        let i = v as usize - part.lo;
        if ctx.churn && part.away[i] {
            part.probs[i] = 0.0;
            continue;
        }
        part.probs[i] = part.processes[i].beep_probability();
        // Counter mode: a fresh per-(node, round) stream, so the round's
        // draws are pure in (master, v, round) and their order is free.
        // Stream mode: the node's standing stream.
        let b = if ctx.counter {
            let mut tmp = SmallRng::seed_from_u64(round_seed(ctx.master, v, ctx.round));
            part.processes[i].exchange1(&mut tmp)
        } else {
            part.processes[i].exchange1(&mut part.rngs[i])
        };
        if b {
            candidates += 1;
            set_bit(part.beep1, i);
        }
    }
    candidates
}

/// Runs the exchange-2 automaton of the part's present nodes on what they
/// heard in exchange 1, setting their join-announcement beeps.
fn answer_joins<P: BeepingProcess>(part: Part<'_, P>, ctx: RoundCtx) {
    for &v in part.active.iter() {
        let i = v as usize - part.lo;
        if !(ctx.churn && part.away[i]) && part.processes[i].exchange2(bit(part.heard1, i)) {
            set_bit(part.beep2, i);
        }
    }
}

/// One part's decisions: its stretch of the active list, compacted in
/// place to the first `kept` of its `len` entries, and the nodes that
/// left it in ascending order.
struct Decided {
    len: usize,
    kept: usize,
    covered: u32,
    joined: Vec<NodeId>,
    left: Vec<NodeId>,
}

/// Ends the round for the part's present nodes: accounts their signals
/// and beeps, applies each verdict, and compacts the part's active stretch.
fn decide<P: BeepingProcess>(part: Part<'_, P>, ctx: RoundCtx) -> Decided {
    let mut d = Decided {
        len: part.active.len(),
        kept: 0,
        covered: 0,
        joined: Vec::new(),
        left: Vec::new(),
    };
    for j in 0..part.active.len() {
        let v = part.active[j];
        let i = v as usize - part.lo;
        let stays = ctx.churn && part.away[i] || {
            let b1 = bit(part.beep1, i);
            let b2 = bit(part.beep2, i);
            part.signals[i] += u32::from(b1) + u32::from(b2);
            part.beeps[i] += u32::from(b1 || b2);
            match part.processes[i].end_round(bit(part.heard2, i)) {
                Verdict::Continue => true,
                Verdict::JoinMis => {
                    part.status[i] = NodeStatus::InMis;
                    d.joined.push(v);
                    false
                }
                Verdict::Covered => {
                    part.status[i] = NodeStatus::Covered;
                    d.covered += 1;
                    false
                }
            }
        };
        if stays {
            part.active[d.kept] = v;
            d.kept += 1;
        } else {
            d.left.push(v);
        }
    }
    d
}

/// Per-delivery drop decision for one exchange, shared by the scalar and
/// scenario broadcast paths.
enum LossDraw<'a> {
    /// Reliable network: nothing is dropped.
    None,
    /// Stream mode: consume the shared fault stream in the scalar
    /// reference order (one draw per non-asleep delivery).
    Stream { rng: &'a mut SmallRng, loss: f64 },
    /// Counter mode: a pure draw keyed by `(sender, receiver, slot)`.
    Counter(CounterLoss),
}

impl LossDraw<'_> {
    #[inline]
    fn dropped(&mut self, from: NodeId, to: NodeId) -> bool {
        match self {
            LossDraw::None => false,
            LossDraw::Stream { rng, loss } => rng.random_bool(*loss),
            LossDraw::Counter(cl) => loss_dropped(cl.master, from, to, cl.slot, cl.loss),
        }
    }
}

/// Coordinates of counter-mode loss draws for one exchange: every
/// delivery's fate is `loss_dropped(master, from, to, slot, loss)`.
#[derive(Clone, Copy)]
struct CounterLoss {
    master: u64,
    slot: u64,
    loss: f64,
}

/// Computes `heard[v] = OR of beeps delivered to v from its neighbours`,
/// applying the per-delivery loss decision of `drop`.
fn broadcast<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    drop: &mut LossDraw<'_>,
    beeps: &[u64],
    heard: &mut [u64],
) {
    heard.fill(0);
    for_each_set_bit(beeps, |v| {
        // Ascending neighbour order is part of the GraphView contract, so
        // a stream-mode loss draw consumes the fault RNG in exactly the
        // CSR reference order (counter-mode draws are order-free anyway).
        graph.for_each_neighbor(v as NodeId, |u| {
            // Sleeping nodes hear nothing.
            if status[u as usize] == NodeStatus::Asleep {
                return;
            }
            if drop.dropped(v as NodeId, u) {
                return;
            }
            set_bit(heard, u as usize);
        });
    });
}

/// The scenario reference path: like [`broadcast`], but each delivery's
/// fate is additionally decided by the [`Scenario`] — dropped, delayed, or
/// on time — and absent (churned-out) nodes neither send nor hear.
///
/// Delayed deliveries are parked in `pending` as `(arrival round,
/// receiver)` and drained at the top of the same exchange slot of their
/// arrival round; a delayed beep whose receiver is asleep or absent on
/// arrival is lost. Legacy `FaultPlan` loss draws are decided first (in
/// reference order for a stream-mode `drop`), so a scenario composes with
/// `message_loss` exactly as the scalar kernel defines it.
#[allow(clippy::too_many_arguments)]
fn broadcast_scenario<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    away: &[bool],
    churn: bool,
    drop: &mut LossDraw<'_>,
    scenario: &dyn Scenario,
    round: u32,
    exchange: u32,
    beeps: &[u64],
    heard: &mut [u64],
    pending: &mut Vec<(u32, NodeId)>,
) {
    heard.fill(0);
    for_each_set_bit(beeps, |v| {
        graph.for_each_neighbor(v as NodeId, |u| {
            let ui = u as usize;
            // Sleeping and absent nodes hear nothing.
            if status[ui] == NodeStatus::Asleep || (churn && away[ui]) {
                return;
            }
            if drop.dropped(v as NodeId, u) {
                return;
            }
            match scenario.delivery(v as NodeId, u, round, exchange) {
                Delivery::OnTime => set_bit(heard, ui),
                Delivery::Dropped => {}
                Delivery::Delayed(d) => pending.push((round + d.max(1), u)),
            }
        });
    });
    // Deliver the delayed beeps whose round has come (entries pushed above
    // always have a strictly later arrival round, so they survive).
    pending.retain(|&(due, u)| {
        if due > round {
            return true;
        }
        let ui = u as usize;
        if status[ui] != NodeStatus::Asleep && !(churn && away[ui]) {
            set_bit(heard, ui);
        }
        false
    });
}

/// Whether listener `v` hears any beeping neighbour, via the word-grouped
/// early-exit scan: ascending iteration keeps same-word neighbours
/// contiguous, so they fold into one mask tested against the beep bitset.
fn listener_hears<G: GraphView + ?Sized>(graph: &G, v: NodeId, beep_words: &[u64]) -> bool {
    let mut cur_word = usize::MAX;
    let mut mask = 0u64;
    let mut hit = false;
    let flow = graph.try_for_each_neighbor(v, |u| {
        let w = u as usize / WORD_BITS;
        if w != cur_word {
            if cur_word != usize::MAX && beep_words[cur_word] & mask != 0 {
                hit = true;
                return ControlFlow::Break(());
            }
            cur_word = w;
            mask = 0;
        }
        mask |= 1u64 << (u as usize % WORD_BITS);
        ControlFlow::Continue(())
    });
    if flow == ControlFlow::Continue(())
        && cur_word != usize::MAX
        && beep_words[cur_word] & mask != 0
    {
        hit = true;
    }
    hit
}

/// Whether listener `v` hears any beeping neighbour when each delivery is
/// dropped by a counter-keyed loss draw. The draws are pure functions of
/// `(sender, v, slot)`, so the early exit on the first surviving delivery
/// skips the remaining draws without affecting any other node's outcome.
fn listener_hears_lossy<G: GraphView + ?Sized>(
    graph: &G,
    v: NodeId,
    beep_words: &[u64],
    cl: CounterLoss,
) -> bool {
    graph.try_for_each_neighbor(v, |u| {
        let beeped = beep_words[u as usize / WORD_BITS] >> (u as usize % WORD_BITS) & 1 != 0;
        if beeped && !loss_dropped(cl.master, u, v, cl.slot, cl.loss) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }) == ControlFlow::Break(())
}

/// Computes the heard bitset for the listeners of `out.len()` consecutive
/// words starting at word `first_word`, in the pull direction. A sharded
/// pull calls it once per shard, on the shard's own listener range, so
/// each call writes only its own output words.
fn pull_heard_words<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    sleepy: bool,
    beep_words: &[u64],
    loss: Option<CounterLoss>,
    first_word: usize,
    out: &mut [u64],
) {
    let n = graph.node_count();
    for (i, word_out) in out.iter_mut().enumerate() {
        let base = (first_word + i) * WORD_BITS;
        let mut word = 0u64;
        for (off, s) in status[base..(base + WORD_BITS).min(n)].iter().enumerate() {
            if sleepy && *s == NodeStatus::Asleep {
                continue;
            }
            let v = base + off;
            let hit = match loss {
                None => listener_hears(graph, v as NodeId, beep_words),
                Some(cl) => listener_hears_lossy(graph, v as NodeId, beep_words, cl),
            };
            word |= u64::from(hit) << off;
        }
        *word_out = word;
    }
}

/// The bitset propagation kernel: computes the same
/// `heard[v] = OR of beeps delivered to v from its neighbours` as
/// [`broadcast`], on packed `u64` words, optionally applying counter-keyed
/// per-delivery loss (`loss`) and splitting the work across `shards`
/// scoped worker threads.
///
/// The direction is chosen per exchange from the beep density:
///
/// * **pull** (dense beeps) — every awake node walks its sorted CSR
///   neighbour list word-at-a-time, folding the neighbours that share a
///   `u64` word into one mask, and stops at the first word that intersects
///   the beep bitset. When half the network beeps, the expected scan is a
///   couple of words regardless of degree.
/// * **push** (sparse beeps) — scan the beep words, skip zero words whole,
///   and OR each beeper's neighbour bits into the heard bitset; the
///   `asleep` listeners (the undrained wake queue) are cleared afterwards.
///
/// The density heuristic picks the direction first; sharding then only
/// applies to the pull direction, whose per-listener gather writes only
/// the listener's own bit (so the round's word-aligned shard ranges split
/// it without synchronisation). Pushing is never sharded: a sparse
/// exchange costs less than spawning for it. Counter loss draws are pure
/// in `(sender, receiver, slot)`, so the early exit, the evaluation order,
/// and the direction are all free: both directions produce identical
/// results, and mixing them across configurations never changes an
/// outcome.
fn broadcast_bitset<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    asleep: &[(u32, NodeId)],
    beep_words: &[u64],
    heard_words: &mut [u64],
    loss: Option<CounterLoss>,
    shards: usize,
) {
    let n = graph.node_count();
    let sleepy = !asleep.is_empty();
    heard_words.fill(0);
    let beepers: usize = beep_words.iter().map(|w| w.count_ones() as usize).sum();
    if beepers == 0 {
        // Nothing beeped; nothing can be heard.
    } else if beepers * PULL_CROSSOVER < n {
        // Push: walk set bits of the beep words, OR neighbour bits in.
        // Counter loss draws are direction-free (pure in (sender,
        // receiver, slot)), so pushing stays bit-identical to pulling —
        // sharded configurations take this branch too, because pushing a
        // sparse exchange is cheaper than any parallel pull over it.
        for_each_set_bit(beep_words, |v| {
            graph.for_each_neighbor(v as NodeId, |u| {
                if let Some(cl) = loss {
                    if loss_dropped(cl.master, v as NodeId, u, cl.slot, cl.loss) {
                        return;
                    }
                }
                set_bit(heard_words, u as usize);
            });
        });
        // Sleeping nodes hear nothing.
        for &(_, v) in asleep {
            heard_words[v as usize / WORD_BITS] &= !(1u64 << (v as usize % WORD_BITS));
        }
    } else {
        // Pull over the round's word-aligned shard ranges: each shard
        // writes its own listeners' heard words in place.
        let chunk = chunk_words(heard_words.len(), shards);
        run_parts(
            heard_words.chunks_mut(chunk).enumerate().collect(),
            |(c, out)| pull_heard_words(graph, status, sleepy, beep_words, loss, c * chunk, out),
        );
    }
}

impl<F: ProcessFactory, G: GraphView + ?Sized> fmt::Debug for Simulator<'_, F, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.stepper.graph.node_count())
            .field("config", &self.stepper.config)
            .finish_non_exhaustive()
    }
}

impl<F: ProcessFactory, G: GraphView + ?Sized> fmt::Debug for Stepper<'_, F, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stepper")
            .field("nodes", &self.graph.node_count())
            .field("round", &self.round)
            .field("active", &self.active_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeepingProcess, FaultPlan, FnFactory};
    use mis_graph::generators;

    /// Beep with a fixed probability forever — a correct (if slow) MIS
    /// algorithm used to exercise the engine without `mis-core`.
    struct Coin {
        p: f64,
        beeped: bool,
        heard: bool,
    }

    impl Coin {
        fn factory(p: f64) -> FnFactory<impl Fn(NodeId, usize, &NetworkInfo) -> Coin> {
            FnFactory(move |_, _, _: &NetworkInfo| Coin {
                p,
                beeped: false,
                heard: false,
            })
        }
    }

    impl BeepingProcess for Coin {
        fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
            self.beeped = self.p >= 1.0 || rng.random_bool(self.p);
            self.beeped
        }
        fn exchange2(&mut self, heard: bool) -> bool {
            self.heard = heard;
            self.beeped && !heard
        }
        fn end_round(&mut self, heard_join: bool) -> Verdict {
            // Cautious join rule: yield to any join announcement. In a
            // fault-free network a winning candidate never hears one, so
            // this matches Table 1 of the paper there, while staying safe
            // under late wake-ups (the heartbeat repair).
            if heard_join {
                Verdict::Covered
            } else if self.beeped && !self.heard {
                Verdict::JoinMis
            } else {
                Verdict::Continue
            }
        }
        fn beep_probability(&self) -> f64 {
            self.p
        }
    }

    fn assert_is_mis(g: &Graph, mis: &[NodeId]) {
        // detlint: allow(D01) -- contains-only adjacency check, never iterated
        let in_set: std::collections::HashSet<_> = mis.iter().copied().collect();
        for &v in mis {
            for &u in g.neighbors(v) {
                assert!(!in_set.contains(&u), "adjacent MIS nodes {u}, {v}");
            }
        }
        for v in g.nodes() {
            assert!(
                in_set.contains(&v) || g.neighbors(v).iter().any(|u| in_set.contains(u)),
                "node {v} uncovered"
            );
        }
    }

    #[test]
    fn coin_process_selects_mis_on_families() {
        for (name, g) in [
            ("cycle", generators::cycle(12)),
            ("complete", generators::complete(8)),
            ("path", generators::path(9)),
            ("star", generators::star(10)),
            ("grid", generators::grid2d(4, 5)),
        ] {
            let outcome = Simulator::new(&g, &Coin::factory(0.5), 11, SimConfig::default()).run();
            assert!(outcome.terminated(), "{name} did not terminate");
            assert_is_mis(&g, &outcome.mis());
        }
    }

    #[test]
    fn single_node_joins_immediately() {
        let g = Graph::empty(1);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 0, SimConfig::default()).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.metrics().beeps[0], 1);
        assert_eq!(outcome.metrics().signals[0], 2); // both exchanges
    }

    #[test]
    fn always_beeping_neighbours_never_terminate() {
        let g = generators::complete(2);
        let cfg = SimConfig::default().with_max_rounds(50);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(!outcome.terminated());
        assert_eq!(outcome.rounds(), 50);
        assert!(outcome.mis().is_empty());
    }

    #[test]
    fn empty_graph_terminates_in_zero_rounds() {
        let g = Graph::empty(0);
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 2, SimConfig::default()).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 0);
    }

    #[test]
    fn determinism_per_seed() {
        let g = generators::gnp(30, 0.3, &mut rand::rngs::SmallRng::seed_from_u64(3));
        let a = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        assert_eq!(a, b);
        let c = Simulator::new(&g, &Coin::factory(0.5), 78, SimConfig::default()).run();
        // Different seeds *may* coincide, but on 30 nodes it is vanishingly
        // unlikely the full outcome (statuses + metrics) matches.
        assert_ne!(a, c);
    }

    #[test]
    fn trace_and_series_record() {
        let g = generators::cycle(10);
        let cfg = SimConfig::default()
            .with_trace(TraceLevel::Rounds)
            .with_active_series(true);
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 5, cfg).run();
        assert_eq!(outcome.trace().len() as u32, outcome.rounds());
        assert_eq!(
            outcome.metrics().active_series.len() as u32,
            outcome.rounds()
        );
        assert_eq!(outcome.trace().total_joins(), outcome.mis().len());
        // Active counts are non-increasing for a fault-free run.
        let series = &outcome.metrics().active_series;
        assert!(series.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*series.last().unwrap(), 0);
    }

    #[test]
    fn observer_sees_every_round() {
        let g = generators::path(6);
        let mut seen = 0u32;
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 8, SimConfig::default())
            .run_with_observer(|view| {
                assert_eq!(view.round, seen);
                assert_eq!(view.beeped.len(), 6);
                assert_eq!(view.probabilities.len(), 6);
                seen += 1;
            });
        assert_eq!(seen, outcome.rounds());
    }

    #[test]
    fn stepper_matches_run() {
        let g = generators::gnp(25, 0.4, &mut rand::rngs::SmallRng::seed_from_u64(6));
        let run = Simulator::new(&g, &Coin::factory(0.5), 21, SimConfig::default()).run();
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.5), 21, SimConfig::default()).into_stepper();
        let mut rounds = 0;
        while !stepper.is_done() {
            stepper.step();
            rounds += 1;
        }
        assert_eq!(rounds, run.rounds());
        let stepped = stepper.finish();
        assert_eq!(stepped, run);
    }

    #[test]
    fn stepper_exposes_intermediate_state() {
        let g = generators::complete(6);
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.3), 2, SimConfig::default()).into_stepper();
        assert_eq!(stepper.active_count(), 6);
        assert_eq!(stepper.round(), 0);
        stepper.step();
        assert_eq!(stepper.round(), 1);
        assert_eq!(stepper.probabilities().len(), 6);
        assert_eq!(stepper.last_round_view().round, 0);
        // Step after done is a no-op.
        while !stepper.is_done() {
            stepper.step();
        }
        let rounds = stepper.round();
        stepper.step();
        assert_eq!(stepper.round(), rounds);
    }

    #[test]
    fn stepper_finish_midway_reports_state() {
        let g = generators::cycle(20);
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.2), 3, SimConfig::default()).into_stepper();
        stepper.step();
        let partial = stepper.finish();
        assert_eq!(partial.rounds(), 1);
        // After one round at p = 0.2 on C₂₀ some nodes are usually still
        // active, but either way the flag must agree with the statuses.
        let active_left = partial.statuses().iter().any(|s| !s.is_inactive());
        assert_eq!(partial.terminated(), !active_left);
    }

    #[test]
    #[should_panic(expected = "no round")]
    fn view_before_first_step_panics() {
        let g = generators::path(3);
        let stepper =
            Simulator::new(&g, &Coin::factory(0.5), 0, SimConfig::default()).into_stepper();
        let _ = stepper.last_round_view();
    }

    #[test]
    fn sleeping_nodes_join_late_with_repair() {
        // A path 0-1: node 1 sleeps 30 rounds; node 0 joins early. With the
        // heartbeat repair, node 1 must end up covered, never in the MIS.
        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds: vec![0, 30],
            });
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.metrics().heartbeat_signals > 0);
    }

    #[test]
    fn sleeping_nodes_can_violate_without_repair() {
        // Same scenario without the repair: node 1 wakes to silence and
        // joins, violating independence — the engine must faithfully report
        // both nodes as InMis (detection is the verifier's job).
        let g = generators::path(2);
        let cfg = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.0,
            wake_rounds: vec![0, 30],
        });
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn message_loss_still_terminates() {
        let g = generators::cycle(8);
        let cfg = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.2,
            wake_rounds: vec![],
        });
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 6, cfg).run();
        assert!(outcome.terminated());
        assert!(!outcome.mis().is_empty());
    }

    #[test]
    fn beeps_count_rounds_not_signals() {
        let g = Graph::empty(1);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 0, SimConfig::default()).run();
        // One round, beeped in both exchanges: 1 beep, 2 signals.
        assert_eq!(outcome.metrics().total_beeps(), 1);
        assert_eq!(outcome.metrics().signals[0], 2);
    }

    #[test]
    fn bits_view_indexes_across_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let expected: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut words = vec![0u64; n.div_ceil(WORD_BITS)];
            for i in (0..n).filter(|i| i % 3 == 0) {
                set_bit(&mut words, i);
            }
            let bits = Bits::new(&words, n);
            assert_eq!(bits.len(), n);
            assert_eq!(bits.is_empty(), n == 0);
            for (i, &b) in expected.iter().enumerate() {
                assert_eq!(bits[i], b, "n = {n}, bit {i}");
            }
            assert_eq!(format!("{bits:?}"), format!("{expected:?}"));
            let copy = words.clone();
            assert_eq!(bits, Bits::new(&copy, n));
            if n > 0 {
                // Flipping the last in-range bit breaks equality.
                let mut flipped = words.clone();
                flipped[(n - 1) / WORD_BITS] ^= 1u64 << ((n - 1) % WORD_BITS);
                assert_ne!(bits, Bits::new(&flipped, n), "n = {n}");
                // A shorter view differs by length alone.
                let shorter = Bits::new(&words[..(n - 1).div_ceil(WORD_BITS)], n - 1);
                assert_ne!(bits, shorter, "n = {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bits_view_rejects_out_of_range_index() {
        let words = [u64::MAX];
        let _ = Bits::new(&words, 5)[5];
    }

    #[test]
    fn active_list_tracks_statuses_every_round() {
        use crate::scenario::{ChurnModel, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::gnp(140, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(12));
        let wake_rounds: Vec<u32> = (0..140).map(|v| (v % 6) * 3).collect();
        let churn = Arc::new(ScenarioSpec::new(4).with_churn(ChurnModel::Random {
            p: 0.2,
            max_len: 5,
            earliest: 0,
            latest: 15,
        }));
        for (name, scenario) in [("wake", None), ("churn", Some(churn))] {
            for rng in [RngMode::Stream, RngMode::Counter] {
                let mut cfg = SimConfig::default()
                    .with_max_rounds(3_000)
                    .with_rng_mode(rng)
                    .with_mis_keeps_beeping(true)
                    .with_faults(FaultPlan {
                        message_loss: 0.0,
                        wake_rounds: wake_rounds.clone(),
                    });
                if let Some(s) = scenario.clone() {
                    cfg = cfg.with_scenario(s);
                }
                let mut stepper =
                    Simulator::new(&g, &Coin::factory(0.3), 5, cfg.clone()).into_stepper();
                while !stepper.is_done() {
                    stepper.step();
                    let round = stepper.round() - 1;
                    let expected: Vec<NodeId> = (0..g.node_count() as NodeId)
                        .filter(|&v| stepper.status[v as usize] == NodeStatus::Active)
                        .collect();
                    assert!(
                        stepper.active.windows(2).all(|w| w[0] < w[1]),
                        "{name}: active list not strictly ascending in round {round}"
                    );
                    assert_eq!(stepper.active, expected, "{name} round {round}");
                    assert_eq!(stepper.active_count(), expected.len());
                    for (v, &p) in stepper.probabilities().iter().enumerate() {
                        let away = cfg
                            .scenario
                            .as_deref()
                            .is_some_and(|s| s.absent(v as NodeId, round));
                        let awake_active = stepper.status[v] == NodeStatus::Active
                            || stepper.left.contains(&(v as NodeId));
                        assert!(
                            p == 0.0 || (awake_active && !away),
                            "{name}: node {v} reports p = {p} in round {round}"
                        );
                    }
                }
                assert!(stepper.finish().terminated(), "{name} {rng:?}");
            }
        }
    }

    #[test]
    fn shards_used_reports_the_effective_split() {
        use crate::scenario::ScenarioSpec;
        use std::sync::Arc;

        // Enough 64-node words that neither 4 shards nor one per core is
        // capped by the word count.
        let n = WORD_BITS * crate::batch::auto_jobs().max(4);
        let g = generators::cycle(n);
        let counter = SimConfig::default().with_rng_mode(RngMode::Counter);
        let run = |cfg: SimConfig| Simulator::new(&g, &Coin::factory(0.5), 3, cfg).run();
        // A scenario that forces the scalar reference path runs on 1 shard,
        // whatever was asked.
        let fallback = run(counter
            .clone()
            .with_shards(4)
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(1, 0.1))));
        assert_eq!(fallback.kernel_used(), PropagationKernel::Scalar);
        assert_eq!(fallback.shards_used(), 1);
        let sharded = run(counter.clone().with_shards(4));
        assert_eq!(sharded.kernel_used(), PropagationKernel::Bitset);
        assert_eq!(sharded.shards_used(), 4);
        assert_eq!(
            run(counter.clone().with_shards(0)).shards_used(),
            crate::batch::auto_jobs()
        );
        assert_eq!(run(counter).shards_used(), 1);
        // A graph of fewer words than shards splits once per word.
        let small = generators::cycle(100);
        let capped = Simulator::new(
            &small,
            &Coin::factory(0.5),
            3,
            SimConfig::default().with_shards(4),
        )
        .run();
        assert_eq!(capped.shards_used(), 2);
        // 66 words at 48 shards make ranges of 2 words: 33 of them.
        let uneven = Simulator::new(
            &generators::cycle(4_200),
            &Coin::factory(0.5),
            3,
            SimConfig::default().with_shards(48),
        )
        .run();
        assert_eq!(uneven.shards_used(), 33);
    }

    #[test]
    fn bitset_kernel_matches_scalar_outcomes() {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        for (name, g) in [
            ("cycle", generators::cycle(130)),
            ("complete", generators::complete(65)),
            ("gnp", generators::gnp(120, 0.1, &mut rng)),
            ("grid", generators::grid2d(9, 13)),
            ("isolated", Graph::empty(70)),
        ] {
            for seed in 0..3 {
                for p in [0.05, 0.5, 0.9] {
                    // Capped: dense Coin processes may never terminate
                    // (e.g. p = 0.9 on a clique), and equivalence must
                    // hold round for round either way.
                    let base = SimConfig::default().with_max_rounds(400);
                    let scalar = base.clone().with_kernel(PropagationKernel::Scalar);
                    let bitset = base.with_kernel(PropagationKernel::Bitset);
                    let a = Simulator::new(&g, &Coin::factory(p), seed, scalar).run();
                    let b = Simulator::new(&g, &Coin::factory(p), seed, bitset).run();
                    assert_eq!(a, b, "{name} seed {seed} p {p}");
                }
            }
        }
    }

    #[test]
    fn bitset_kernel_matches_scalar_under_wake_faults() {
        let g = generators::grid2d(8, 8);
        let wake_rounds: Vec<u32> = (0..64).map(|v| (v % 7) * 3).collect();
        for heartbeat in [false, true] {
            let base = SimConfig::default()
                .with_mis_keeps_beeping(heartbeat)
                .with_faults(FaultPlan {
                    message_loss: 0.0,
                    wake_rounds: wake_rounds.clone(),
                });
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a, b, "heartbeat = {heartbeat}");
        }
    }

    #[test]
    fn stream_lossy_runs_fall_back_to_scalar_kernel_visibly() {
        // Under legacy stream draws the two kernel settings must still
        // agree — the bitset config is served by the scalar reference
        // path, because the loss RNG's consumption order defines the
        // semantics — and the substitution is recorded, not silent.
        let g = generators::cycle(20);
        let base = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.3,
            wake_rounds: vec![],
        });
        let a = Simulator::new(
            &g,
            &Coin::factory(0.5),
            13,
            base.clone().with_kernel(PropagationKernel::Scalar),
        )
        .run();
        let b = Simulator::new(
            &g,
            &Coin::factory(0.5),
            13,
            base.with_kernel(PropagationKernel::Bitset),
        )
        .run();
        assert_eq!(a, b);
        assert_eq!(a.kernel_used(), PropagationKernel::Scalar);
        assert_eq!(b.kernel_used(), PropagationKernel::Scalar);
    }

    #[test]
    fn counter_mode_honours_bitset_on_lossy_runs() {
        // The fixed bug: with counter draws, a lossy run asked to use the
        // bitset kernel actually uses it — and still matches the scalar
        // kernel bit for bit, because the per-delivery loss draws are
        // pure functions of (edge, round, exchange).
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for (name, g) in [
            ("cycle", generators::cycle(20)),
            ("gnp", generators::gnp(60, 0.15, &mut rng)),
        ] {
            let base = SimConfig::default()
                .with_max_rounds(10_000)
                .with_rng_mode(RngMode::Counter)
                .with_faults(FaultPlan {
                    message_loss: 0.3,
                    wake_rounds: vec![],
                });
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                13,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                13,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a.kernel_used(), PropagationKernel::Scalar, "{name}");
            assert_eq!(b.kernel_used(), PropagationKernel::Bitset, "{name}");
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn sharded_bitset_matches_sequential_for_any_shard_count() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let g = generators::gnp(150, 0.1, &mut rng);
        for loss in [0.0, 0.25] {
            let base = SimConfig::default()
                .with_max_rounds(2_000)
                .with_rng_mode(RngMode::Counter)
                .with_faults(FaultPlan {
                    message_loss: loss,
                    wake_rounds: vec![],
                });
            let reference = Simulator::new(&g, &Coin::factory(0.5), 23, base.clone()).run();
            // 0 = one shard per core; outcomes must not depend on it.
            for shards in [2, 4, 7, 0] {
                let sharded = Simulator::new(
                    &g,
                    &Coin::factory(0.5),
                    23,
                    base.clone().with_shards(shards),
                )
                .run();
                assert_eq!(reference, sharded, "loss {loss} shards {shards}");
                assert_eq!(sharded.kernel_used(), PropagationKernel::Bitset);
            }
        }
    }

    #[test]
    fn counter_mode_is_deterministic_and_distinct_from_stream() {
        let g = generators::gnp(30, 0.3, &mut rand::rngs::SmallRng::seed_from_u64(3));
        let counter = SimConfig::default().with_rng_mode(RngMode::Counter);
        let a = Simulator::new(&g, &Coin::factory(0.5), 77, counter.clone()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 77, counter).run();
        assert_eq!(a, b);
        // The two modes define different (equally valid) random
        // sequences; on 30 nodes a full-outcome coincidence is
        // vanishingly unlikely.
        let stream = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        assert_ne!(a, stream);
    }

    #[test]
    fn scenario_reference_path_records_scalar_kernel() {
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::grid2d(6, 6);
        // A delivery-perturbing scenario forces (and records) the scalar
        // reference path even when the bitset kernel was requested, in
        // either RNG mode.
        for mode in [RngMode::Stream, RngMode::Counter] {
            let cfg = SimConfig::default()
                .with_max_rounds(5_000)
                .with_rng_mode(mode)
                .with_scenario(Arc::new(ScenarioSpec::uniform_loss(3, 0.2)));
            let outcome = Simulator::new(&g, &Coin::factory(0.5), 7, cfg).run();
            assert_eq!(outcome.kernel_used(), PropagationKernel::Scalar, "{mode:?}");
        }
        // A wake-only scenario keeps the configured kernel.
        let cfg = SimConfig::default().with_scenario(Arc::new(ScenarioSpec::new(3).with_wake(
            WakePattern::Wavefront {
                stride: 2,
                latest: 8,
            },
        )));
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 7, cfg).run();
        assert_eq!(outcome.kernel_used(), PropagationKernel::Bitset);
    }

    #[test]
    fn wake_only_scenario_keeps_kernel_equivalence() {
        // A scenario that only staggers wake-ups must not force the
        // scalar path — and both kernels must agree under it.
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::grid2d(8, 8);
        for wake in [
            WakePattern::Wavefront {
                stride: 3,
                latest: 12,
            },
            WakePattern::Alternating { round: 7 },
            WakePattern::DegreeTargeted {
                fraction: 0.3,
                latest: 10,
            },
            WakePattern::Random {
                fraction: 0.5,
                latest: 9,
            },
        ] {
            let spec = Arc::new(ScenarioSpec::new(5).with_wake(wake));
            let base = SimConfig::default()
                .with_mis_keeps_beeping(true)
                .with_scenario(spec);
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scenario_wake_merges_with_fault_plan() {
        // Node 1 sleeps until max(plan, scenario) = 30; with heartbeats
        // the outcome matches the plain FaultPlan late-waker test.
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds: vec![0, 12],
            })
            .with_scenario(Arc::new(ScenarioSpec::new(0).with_wake(
                WakePattern::Explicit {
                    rounds: vec![0, 30],
                },
            )));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.rounds() > 30, "node 1 woke too early");
    }

    #[test]
    fn scenario_runs_are_deterministic_and_kernel_independent() {
        use crate::scenario::{ChurnModel, DelayModel, LossModel, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::gnp(40, 0.2, &mut rand::rngs::SmallRng::seed_from_u64(8));
        let spec = ScenarioSpec::new(31)
            .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.3 })
            .with_delay(DelayModel::Random { p: 0.2, max: 3 })
            .with_churn(ChurnModel::Random {
                p: 0.15,
                max_len: 4,
                earliest: 1,
                latest: 12,
            });
        let base = SimConfig::default()
            .with_max_rounds(5_000)
            .with_mis_keeps_beeping(true)
            .with_scenario(Arc::new(spec.clone()));
        let a = Simulator::new(&g, &Coin::factory(0.5), 17, base.clone()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 17, base.clone()).run();
        assert_eq!(a, b);
        // The perturbing scenario forces the scalar reference path, so the
        // kernel setting cannot change the outcome.
        let c = Simulator::new(
            &g,
            &Coin::factory(0.5),
            17,
            base.clone().with_kernel(PropagationKernel::Scalar),
        )
        .run();
        assert_eq!(a, c);
        // And a rebuilt spec (fresh Arc, same fields) behaves identically.
        let rebuilt = base.with_scenario(Arc::new(spec));
        let d = Simulator::new(&g, &Coin::factory(0.5), 17, rebuilt).run();
        assert_eq!(a, d);
    }

    #[test]
    fn total_scenario_loss_blocks_all_inhibition() {
        // p = 1 uniform scenario loss on K₂: neither node ever hears the
        // other, so both always-beeping candidates join — the engine must
        // faithfully report the (invalid) result.
        use crate::scenario::ScenarioSpec;
        use std::sync::Arc;

        let g = generators::complete(2);
        let cfg = SimConfig::default()
            .with_max_rounds(50)
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(3, 1.0)));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn delayed_delivery_arrives_late() {
        // Path 0-1 with every delivery delayed by exactly 1 round: in
        // round 0 nobody hears anything, so both p = 1 candidates join.
        // The delay semantics are what makes that possible.
        use crate::scenario::{DelayModel, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_max_rounds(50)
            .with_scenario(Arc::new(
                ScenarioSpec::new(0).with_delay(DelayModel::Random { p: 1.0, max: 1 }),
            ));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn churned_out_node_is_frozen_not_dead() {
        // Path 0-1, node 1 absent for rounds 0..5, p = 1 processes with
        // heartbeats: node 0 joins alone in round 0; when node 1 returns
        // it hears the heartbeat and terminates covered.
        use crate::scenario::{ChurnModel, ChurnWindow, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_max_rounds(100)
            .with_mis_keeps_beeping(true)
            .with_scenario(Arc::new(ScenarioSpec::new(0).with_churn(
                ChurnModel::Explicit {
                    windows: vec![ChurnWindow {
                        node: 1,
                        from: 0,
                        until: 5,
                    }],
                },
            )));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 2, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.rounds() >= 5, "node 1 decided while absent");
    }

    #[test]
    fn debug_format() {
        let g = generators::path(3);
        let sim = Simulator::new(&g, &Coin::factory(0.5), 0, SimConfig::default());
        assert!(format!("{sim:?}").contains("Simulator"));
        let stepper = sim.into_stepper();
        assert!(format!("{stepper:?}").contains("Stepper"));
    }
}
