//! The Theorem 1 mechanism, made visible: potential coverage per schedule.
//!
//! Theorem 1's proof shows any global schedule needs `Ω(log² n)` steps
//! because each step's probability `p` only "serves" cliques of size
//! `d ≈ 1/p` (the potential term `6·d·p·e^{−d·p}` collapses away from
//! `d·p = 1`), and the adversarial family contains every scale
//! `d ≤ n^{1/3}`. This experiment computes the proof's own quantities —
//! no simulation — for the DISC'11 sweep and for constant schedules:
//!
//! * the *cover time*: steps until `Φ_T(d) ≥ ¼·log₂ n` for every scale,
//!   which grows like `log² n` for the sweep and is unreachable for any
//!   constant schedule;
//! * the serving pattern: `Φ_T(d)` after a fixed budget, per scale.

use mis_core::theory::lower_bound::{clique_survival_lower_bound, potential, steps_to_cover};
use mis_core::{ConstantSchedule, SweepSchedule};
use mis_stats::Table;

use crate::ExecCtx;

/// Configuration for the potential-coverage experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PotentialConfig {
    /// Exponents `k`: network sizes `n = 2^k` to evaluate.
    pub log_sizes: Vec<u32>,
    /// Step cap when searching for cover times.
    pub cap: u32,
}

impl PotentialConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            log_sizes: vec![6, 9, 12, 15, 18, 21, 24],
            cap: 10_000_000,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            log_sizes: vec![6, 12, 18],
            cap: 1_000_000,
        }
    }
}

impl Default for PotentialConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One row of the cover-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverRow {
    /// `log₂ n`.
    pub log_n: u32,
    /// Largest clique scale in the Theorem 1 family, `n^{1/3}`.
    pub max_d: usize,
    /// Sweep cover time (`None` = cap exceeded).
    pub sweep: Option<u32>,
    /// Constant `p = ½` cover time.
    pub constant_half: Option<u32>,
    /// Constant `p = 1/16` cover time.
    pub constant_sixteenth: Option<u32>,
}

/// Results of the potential experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PotentialResults {
    /// One row per network size.
    pub rows: Vec<CoverRow>,
    /// Serving pattern: `(d, Φ_T(d), survival bound)` for the sweep after
    /// the budget of the largest evaluated size.
    pub serving: Vec<(usize, f64, f64)>,
}

/// Runs the experiment (pure computation; deterministic for any
/// [`ExecCtx::jobs`]).
///
/// # Panics
///
/// Panics if `log_sizes` is empty.
#[must_use]
pub fn run(config: &PotentialConfig, ctx: &ExecCtx) -> PotentialResults {
    assert!(!config.log_sizes.is_empty(), "need at least one size");
    let sweep = SweepSchedule::new();
    let half = ConstantSchedule::new(0.5);
    let sixteenth = ConstantSchedule::new(1.0 / 16.0);
    // One cover-time search per size, fanned across the context's workers
    // (the derived seed goes unused: the computation has no randomness).
    let rows = ctx.run_trials(config.log_sizes.len(), 0, |_, i| {
        let log_n = config.log_sizes[i];
        let max_d = 2f64.powf(f64::from(log_n) / 3.0).round().max(3.0) as usize;
        let target = f64::from(log_n) / 4.0;
        CoverRow {
            log_n,
            max_d,
            sweep: steps_to_cover(&sweep, max_d, target, config.cap),
            constant_half: steps_to_cover(&half, max_d, target, config.cap),
            constant_sixteenth: steps_to_cover(&sixteenth, max_d, target, config.cap),
        }
    });

    // Serving pattern at the largest size's sweep cover time (or cap).
    let last = rows.last().expect("at least one row");
    let budget = last.sweep.unwrap_or(config.cap);
    let serving = [3usize, 8, 16, 64, 256, 1024]
        .into_iter()
        .filter(|&d| d <= last.max_d.max(8))
        .map(|d| {
            (
                d,
                potential(&sweep, d, budget),
                clique_survival_lower_bound(&sweep, d, budget),
            )
        })
        .collect();
    PotentialResults { rows, serving }
}

impl PotentialResults {
    /// The cover-time table.
    #[must_use]
    pub fn cover_table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "log₂ n",
            "max d",
            "sweep T",
            "T / log² n",
            "p = ½",
            "p = 1/16",
        ]);
        t.numeric();
        let fmt = |v: Option<u32>| v.map_or_else(|| "> cap".into(), |t| t.to_string());
        for row in &self.rows {
            let ratio = row.sweep.map_or_else(
                || "—".into(),
                |t| format!("{:.2}", f64::from(t) / f64::from(row.log_n * row.log_n)),
            );
            t.push_row(vec![
                row.log_n.to_string(),
                row.max_d.to_string(),
                fmt(row.sweep),
                ratio,
                fmt(row.constant_half),
                fmt(row.constant_sixteenth),
            ]);
        }
        t
    }

    /// The serving-pattern table.
    #[must_use]
    pub fn serving_table(&self) -> Table {
        let mut t = Table::with_columns(&["clique size d", "Φ_T(d)", "survival bound exp(−Φ)"]);
        t.numeric();
        for &(d, phi, surv) in &self.serving {
            t.push_row(vec![
                d.to_string(),
                format!("{phi:.2}"),
                format!("{surv:.2e}"),
            ]);
        }
        t
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nThe sweep's cover time settles at a constant multiple of \
             `log² n` — the upper half of Theorem 1's story — while a \
             constant schedule never covers scales away from `1/p` (the \
             potential of a mismatched clique is effectively zero, so its \
             survival bound stays ≈ 1 forever).\n\n\
             ### Serving pattern of the sweep at the final budget\n\n{}\n\
             Every scale ends with enough potential to kill its cliques — \
             but only because the sweep spends separate phases on each of \
             the `Θ(log n)` scales, which is exactly the `log² n` cost the \
             feedback algorithm avoids by letting every node find its own \
             scale locally.\n",
            self.cover_table().to_markdown(),
            self.serving_table().to_markdown(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cover_times_grow_superlinearly() {
        let results = run(&PotentialConfig::quick(), &ExecCtx::default());
        let first = results.rows.first().unwrap();
        let last = results.rows.last().unwrap();
        let (a, b) = (first.sweep.unwrap(), last.sweep.unwrap());
        // log n tripled (6 → 18): a log² law must grow ≈ 9×; demand > 4×.
        assert!(
            b > 4 * a,
            "cover time grew too slowly: T(6) = {a}, T(18) = {b}"
        );
    }

    #[test]
    fn constant_schedules_never_cover() {
        let results = run(&PotentialConfig::quick(), &ExecCtx::default());
        for row in &results.rows {
            if row.max_d >= 32 {
                assert_eq!(
                    row.constant_half, None,
                    "p = ½ covered log n = {}",
                    row.log_n
                );
            }
        }
    }

    #[test]
    fn serving_pattern_reaches_target_everywhere() {
        let results = run(&PotentialConfig::quick(), &ExecCtx::default());
        let target = f64::from(results.rows.last().unwrap().log_n) / 4.0;
        for &(d, phi, surv) in &results.serving {
            assert!(phi >= target, "d = {d} under-served: Φ = {phi}");
            assert!((0.0..=1.0).contains(&surv));
        }
    }

    #[test]
    fn render_mentions_log_squared() {
        let results = run(&PotentialConfig::quick(), &ExecCtx::default());
        assert!(results.render().contains("log² n"));
    }
}
