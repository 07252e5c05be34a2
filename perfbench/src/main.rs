//! `perfbench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <gnp64k-feedback|fig3-batch|serve-mixed>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it runs a traced pass (plus the untraced twin the
//! tracing overhead is measured against), writes the spans and the
//! per-layer self-time table under `perfbench/out/`, and reports the
//! per-layer metrics. Either way every output is checked, and the last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` for what each workload and metric is for.

#![forbid(unsafe_code)]

mod fig3;
mod gnp64k;
mod harness;
mod layers;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use harness::Report;

/// The end-to-end metrics every workload reports (`--trace 0`), with
/// units. `base`/`fast` name each workload's reference path and its
/// accelerated path; see README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("base_p50_ms", "ms"),
    ("base_p75_ms", "ms"),
    ("fast_p50_ms", "ms"),
    ("fast_p75_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// The per-layer metrics every workload reports (`--trace 1`), with
/// units. A workload that does not exercise a seam reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("graph.scan_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.rounds", "count"),
    ("sim.node_rounds", "count"),
    ("sim.active_node_rounds", "count"),
    ("sim.active_frac", "ratio"),
    ("sim.ns_per_node_round", "ns"),
    ("sim.ns_per_edge_round", "ns"),
    ("sim.tail_rounds", "count"),
    ("sim.tail_step_ms", "ms"),
    ("sim.shard_speedup", "ratio"),
    ("core.verify_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.plan_tail_idle_ms", "ms"),
    ("core.plan_scaling_eff", "ratio"),
    ("serve.key_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.miss_wait_ms", "ms"),
    ("serve.dispatch_hit_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.engine_runs", "count"),
    ("serve.hit_ratio", "ratio"),
    ("self.bench_ms", "ms"),
    ("self.graph_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Metric values a workload measured, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back: its checked-operation counts, its metrics,
/// the sample count behind each latency class (untraced runs), and its
/// spans (traced runs).
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub metrics: Metrics,
    pub samples: Vec<(&'static str, usize)>,
    pub spans: Vec<trace::Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Gnp64kFeedback,
    Fig3Batch,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "gnp64k-feedback" => Some(Self::Gnp64kFeedback),
            "fig3-batch" => Some(Self::Fig3Batch),
            "serve-mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Gnp64kFeedback => "gnp64k-feedback",
            Self::Fig3Batch => "fig3-batch",
            Self::ServeMixed => "serve-mixed",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    workload: Workload,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the untraced end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Absolute deadline (on the [`trace::now_ns`] clock) of a measured
    /// loop that starts now.
    #[must_use]
    pub fn deadline_ns(&self) -> u64 {
        trace::now_ns() + self.seconds * 1_000_000_000
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .ok_or_else(|| format!("missing required {flag}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed must be an unsigned 64-bit integer, got {seed:?}"))?;
    let seconds = get("--seconds")?;
    let seconds = match seconds.parse() {
        Ok(s @ 1..=3600) => s,
        _ => return Err(format!("--seconds must be in 1..=3600, got {seconds:?}")),
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut outcome = match args.workload {
        Workload::Gnp64kFeedback => gnp64k::run(args),
        Workload::Fig3Batch => fig3::run(args),
        Workload::ServeMixed => serve::run(args),
    }?;
    for &(class, n) in &outcome.samples {
        let tail = harness::supported_tail(n).map_or("none".to_owned(), |p| format!("p{p}"));
        eprintln!("{class}: {n} samples; highest percentile with 10 beyond it: {tail}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        layers::add_self_times(&mut outcome.metrics, &outcome.spans);
        write_trace(args, &outcome.spans)?;
    } else {
        outcome
            .metrics
            .insert("peak_rss_mb", harness::peak_rss_mb()?);
        outcome.metrics.insert("ok_frac", outcome.report.ok_frac());
    }
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(name, _)| name == *k))
    {
        return Err(format!("workload measured an uncatalogued metric {stray}"));
    }
    for &(name, unit) in catalogue {
        match outcome.metrics.get(name) {
            Some(&value) => outcome.report.metric(name, value, unit),
            // Per-layer seams a workload never crosses read 0; every
            // end-to-end metric must be measured.
            None if args.trace => outcome.report.metric(name, 0.0, unit),
            None => return Err(format!("workload did not measure {name}")),
        }
    }
    outcome.report.json_line()
}

/// Writes `<workload>-seed<n>.spans.jsonl` and the self-time table under
/// `perfbench/out/`, and echoes the table to stderr.
fn write_trace(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let table = trace::self_time_table(spans);
    for (file, text) in [
        (format!("{stem}.spans.jsonl"), trace::spans_jsonl(spans)),
        (format!("{stem}.selftime.txt"), table.clone()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprint!("self time by layer ({} spans):\n{table}", spans.len());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <gnp64k-feedback|fig3-batch|serve-mixed> \
                 --seed <u64> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload fig3-batch --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fig3Batch);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_flags_it_cannot_honour() {
        for bad in [
            "--workload fig3-batch --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload fig3-batch --seed -1 --seconds 10 --trace 0",
            "--workload fig3-batch --seed 7 --seconds 0 --trace 0",
            "--workload fig3-batch --seed 7 --seconds 10 --trace 2",
            "--workload fig3-batch --seed 7 --seconds 10 --trace 0 --jobs 4",
            "--workload fig3-batch --seed 7 --seed 8 --seconds 10 --trace 0",
            "--workload fig3-batch --seed 7 --seconds 10 --trace",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_unique() {
        for list in [END_TO_END, PER_LAYER] {
            let names: std::collections::BTreeSet<_> = list.iter().map(|(n, _)| n).collect();
            assert_eq!(names.len(), list.len());
        }
    }
}
