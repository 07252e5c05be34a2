//! Deterministic multi-trial execution.
//!
//! [`ExecCtx`] is the one execution context every experiment takes: the
//! trial worker count, the intra-run shard count and the adjacency
//! backend. [`ExecCtx::run_trials`] is the experiment-level entry to the
//! workspace's one batched execution path: it derives per-trial seeds
//! through the same [`BatchPlan`] the engine-level
//! [`RunPlan`](mis_core::RunPlan) uses and fans the trials across the same
//! work-stealing [`parallel_indexed_map`] scheduler, so every figure —
//! beeping or message-passing — parallelises under `xp --jobs N` with
//! bit-identical results for any job count.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mis_beeping::{RngMode, SimConfig};
use mis_core::{auto_jobs, parallel_indexed_map, BatchPlan};
use mis_graph::{stream, CompressedGraph, DiskGraph, Graph, GraphView};
use mis_stats::OnlineStats;

/// Counter making the per-process shard directories of the disk backend
/// unique.
static DISK_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How an experiment executes: a plain value passed to every `run`, so
/// two harnesses in one process (the `mis-serve` daemon, a test binary)
/// can never couple through shared state.
///
/// Only [`shards`](Self::shards) selects a different — equally valid —
/// random sequence; `jobs` and `backend` change the wall clock and the
/// memory footprint, never the results.
///
/// # Examples
///
/// ```
/// use mis_experiments::ExecCtx;
///
/// let ctx = ExecCtx { jobs: 2, ..ExecCtx::default() };
/// let trials = ctx.run_trials(4, 9, |seed, idx| (idx, seed));
/// assert_eq!(trials.len(), 4);
/// assert_eq!(trials[2].0, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecCtx {
    /// Trial worker threads (`0` = one per available core).
    pub jobs: usize,
    /// Intra-run shard count of beeping simulations: `None` runs the
    /// stream-mode sequential default; `Some(s)` selects counter-mode
    /// draws split into `s` shards (`Some(0)` = one per core), so every
    /// shard count agrees with every other.
    pub shards: Option<usize>,
    /// The adjacency backend [`on_backend`](Self::on_backend) serves.
    pub backend: Backend,
}

impl ExecCtx {
    /// The base [`SimConfig`] experiments build on: the plain default
    /// when no shard count is set, otherwise counter mode with the
    /// requested shard count.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        match self.shards {
            None => SimConfig::default(),
            Some(s) => SimConfig::default()
                .with_rng_mode(RngMode::Counter)
                .with_shards(s),
        }
    }

    /// Runs `trials` independent trials of `f`, each with its own derived
    /// seed, spread across [`jobs`](Self::jobs) workers. Results come back
    /// in trial order, so downstream statistics are independent of the
    /// thread count.
    pub fn run_trials<T, F>(&self, trials: usize, master_seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, usize) -> T + Sync,
    {
        // The same seed derivation and scheduler as the engine-level batch
        // path, so trial runs and `RunPlan` runs can never diverge.
        let plan = BatchPlan::new(master_seed, trials).with_jobs(self.jobs);
        parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| f(plan.run_seed(i), i))
    }

    /// Runs `op` against `g` served through [`backend`](Self::backend):
    /// the CSR graph itself, a [`CompressedGraph`] re-encoding, or a
    /// [`DiskGraph`] paging a temporary shard directory (written, used,
    /// and removed per call).
    ///
    /// # Panics
    ///
    /// Panics if the disk backend cannot write or reopen its temporary
    /// shard directory.
    pub fn on_backend<Op: BackendOp>(&self, g: &Graph, op: Op) -> Op::Out {
        match self.backend {
            Backend::Csr => op.run(g),
            Backend::Compressed => op.run(&CompressedGraph::from_view(g)),
            Backend::Disk => {
                let dir = std::env::temp_dir().join(format!(
                    "xp-disk-backend-{}-{}",
                    std::process::id(),
                    DISK_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                run_on_disk(g, dir, op)
            }
        }
    }
}

/// One line naming the effective context: resolved worker count, RNG
/// mode, shard count and backend.
impl fmt::Display for ExecCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sim = self.sim_config();
        let jobs = if self.jobs > 0 {
            self.jobs
        } else {
            auto_jobs()
        };
        let shards = match sim.shards {
            0 => "auto".to_owned(),
            s => s.to_string(),
        };
        write!(
            f,
            "exec: jobs {jobs}, rng {}, shards {shards}, backend {}",
            sim.rng.name(),
            self.backend.name()
        )
    }
}

/// The adjacency backend a simulation reads its topology from.
///
/// Backends change only *where adjacency lives* — never the elected MIS:
/// all three serve the same neighbour lists through
/// [`GraphView`](mis_graph::GraphView), so outcomes are bit-identical
/// across this choice (pinned by `tests/backend_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// In-RAM compressed sparse rows — fastest, biggest (the default).
    #[default]
    Csr,
    /// In-RAM delta-varint blocks ([`CompressedGraph`]): ≥2× fewer
    /// adjacency bytes per node on regular topologies, slower decode.
    Compressed,
    /// Paged from an on-disk shard directory ([`DiskGraph`]): graphs
    /// larger than RAM, slowest.
    Disk,
}

impl Backend {
    /// Parses a `--backend` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "csr" => Some(Backend::Csr),
            "compressed" => Some(Backend::Compressed),
            "disk" => Some(Backend::Disk),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::Compressed => "compressed",
            Backend::Disk => "disk",
        }
    }
}

/// A simulation (or any graph computation) abstracted over the adjacency
/// backend. [`GraphView`] has generic methods, so it is not object-safe
/// and a `&dyn` can't cross this seam — implementors get the concrete
/// view through a generic method instead.
pub trait BackendOp {
    /// What the computation produces.
    type Out;
    /// Runs the computation against one concrete adjacency backend.
    fn run<G: GraphView + ?Sized>(self, g: &G) -> Self::Out;
}

/// Removes its directory when dropped, so a panic anywhere between
/// creating the directory and finishing with it cannot leak it (the
/// `mis-serve` daemon survives worker panics and would keep the leak).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `op` on a [`DiskGraph`] of `g` written to the shard directory
/// `dir`, which is removed afterwards, whether `op` returns or panics.
fn run_on_disk<Op: BackendOp>(g: &Graph, dir: PathBuf, op: Op) -> Op::Out {
    let dir = TempDir(dir);
    stream::write_sharded_from_view(&dir.0, g, stream::DEFAULT_NODES_PER_SHARD)
        .expect("write disk-backend shard directory");
    let disk = DiskGraph::open(&dir.0).expect("reopen disk-backend shard directory");
    op.run(&disk)
}

/// One point of a measured series: an x-value (usually `n`) with the
/// summary statistics of the measured quantity across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The independent variable (number of nodes, loss rate, …).
    pub x: f64,
    /// Statistics of the measured quantity across trials.
    pub stats: OnlineStats,
}

impl SeriesPoint {
    /// Builds a point from raw per-trial measurements.
    #[must_use]
    pub fn from_samples(x: f64, samples: impl IntoIterator<Item = f64>) -> Self {
        Self {
            x,
            stats: samples.into_iter().collect(),
        }
    }

    /// The sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// The sample standard deviation (the paper's error bars).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_are_ordered_and_deterministic() {
        let ctx = ExecCtx::default();
        let a = ctx.run_trials(16, 5, |seed, idx| (idx, seed));
        let b = ctx.run_trials(16, 5, |seed, idx| (idx, seed));
        assert_eq!(a, b);
        for (i, (idx, _)) in a.iter().enumerate() {
            assert_eq!(*idx, i);
        }
        // Distinct seeds per trial.
        let mut seeds: Vec<u64> = a.iter().map(|&(_, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn zero_trials() {
        let v: Vec<u64> = ExecCtx::default().run_trials(0, 1, |seed, _| seed);
        assert!(v.is_empty());
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        // Worker count must never leak into the results, only the wall
        // clock.
        let reference = ExecCtx::default().run_trials(17, 9, |seed, idx| (idx, seed));
        for jobs in [1, 2, 5] {
            let ctx = ExecCtx {
                jobs,
                ..ExecCtx::default()
            };
            let got = ctx.run_trials(17, 9, |seed, idx| (idx, seed));
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn display_names_the_resolved_context() {
        let ctx = ExecCtx {
            jobs: 3,
            shards: Some(2),
            backend: Backend::Disk,
        };
        assert_eq!(
            ctx.to_string(),
            "exec: jobs 3, rng counter, shards 2, backend disk"
        );
        let line = ExecCtx::default().to_string();
        assert!(
            line.ends_with("rng stream, shards 1, backend csr"),
            "{line}"
        );
        // `0` = one worker per core, printed resolved.
        assert!(!line.starts_with("exec: jobs 0,"), "{line}");
        let auto = ExecCtx {
            shards: Some(0),
            ..ExecCtx::default()
        };
        assert!(auto.to_string().contains("rng counter, shards auto"));
    }

    #[test]
    fn shards_shape_the_sim_config() {
        assert_eq!(ExecCtx::default().sim_config(), SimConfig::default());
        let sharded = |shards| ExecCtx {
            shards: Some(shards),
            ..ExecCtx::default()
        };
        let config = sharded(4).sim_config();
        assert_eq!(config.rng, RngMode::Counter);
        assert_eq!(config.shards, 4);
        // --shards 1 still selects counter mode, so it agrees with any
        // other shard count.
        assert_eq!(sharded(1).sim_config().rng, RngMode::Counter);
        assert_eq!(sharded(1).sim_config().shards, 1);
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Csr, Backend::Compressed, Backend::Disk] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("ram"), None);
    }

    #[test]
    fn every_backend_dispatches_the_op() {
        /// Degree-sum probe: backend-independent by the GraphView contract.
        struct DegreeSum;
        impl BackendOp for DegreeSum {
            type Out = usize;
            fn run<G: GraphView + ?Sized>(self, g: &G) -> usize {
                (0..g.node_count() as u32).map(|v| g.degree(v)).sum()
            }
        }

        let torus = mis_graph::generators::torus2d(8, 8);
        let cycle = mis_graph::generators::cycle(32);
        for backend in [Backend::Csr, Backend::Compressed, Backend::Disk] {
            let ctx = ExecCtx {
                backend,
                ..ExecCtx::default()
            };
            assert_eq!(
                ctx.on_backend(&torus, DegreeSum),
                4 * 64,
                "{}",
                backend.name()
            );
            assert_eq!(ctx.on_backend(&cycle, DegreeSum), 64, "{}", backend.name());
        }
    }

    #[test]
    fn disk_backend_directory_is_removed_when_the_op_panics() {
        /// Checks its shard directory exists, then panics.
        struct Panics(PathBuf);
        impl BackendOp for Panics {
            type Out = ();
            fn run<G: GraphView + ?Sized>(self, _: &G) {
                assert!(self.0.is_dir(), "shard directory was never written");
                panic!("op failed");
            }
        }

        let dir =
            std::env::temp_dir().join(format!("xp-disk-backend-panic-test-{}", std::process::id()));
        let g = mis_graph::generators::cycle(16);
        let op = Panics(dir.clone());
        let caught = std::panic::catch_unwind(|| run_on_disk(&g, dir.clone(), op));
        let message = caught.expect_err("the op panics");
        assert_eq!(message.downcast_ref::<&str>(), Some(&"op failed"));
        assert!(!dir.exists(), "{} leaked", dir.display());
    }

    #[test]
    fn series_point_statistics() {
        let p = SeriesPoint::from_samples(10.0, [1.0, 2.0, 3.0]);
        assert_eq!(p.x, 10.0);
        assert_eq!(p.mean(), 2.0);
        assert!((p.std_dev() - 1.0).abs() < 1e-12);
    }
}
