//! `xp` — the experiment driver.
//!
//! ```text
//! xp <experiment> [--quick] [--seed N] [--trials N] [--jobs N] [--shards N]
//!                 [--science] [--backend csr|compressed|disk]
//!                 [--on base|line|product|induced] [--out FILE] [--corpus FILE]
//! xp replay <file> [--jobs N]
//!
//! experiments:
//!   fig3         Figure 3: rounds vs n on G(n, ½)
//!   fig5         Figure 5: beeps per node vs n
//!   grid         §5: beeps per node on rectangular grids
//!   lower-bound  Theorem 1: clique-union family separation
//!   tails        Theorem 2: termination-time tails
//!   robustness   §6: parameter ablations
//!   faults       extension: message loss & late wake-ups
//!   race         extension: baselines comparison (--on races every
//!                contender on a lazy derived-graph view of each workload)
//!   quality      extension: MIS sizes vs exact optimum
//!   decay        extension: active-node decay curves
//!   apps         extension: matching / colouring / backbone via MIS
//!   sop          extension: SOP selection-time statistics (Science'11 models)
//!   potential    extension: Theorem 1 potential coverage per schedule
//!   fuzz         extension: adversarial scenario fuzzer (worst-case search;
//!                writes a replayable corpus, --corpus sets the path)
//!   all          everything above, in order
//!
//! `xp replay <file>` re-executes a corpus written by `xp fuzz` and exits
//! non-zero unless every entry reproduces byte-identically.
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::ExitCode;

use mis_experiments::{
    applications, decay, faults, fig3, fig5, fuzz, grid_beeps, lower_bound, potential, quality,
    race, robustness, sop, tails, Report,
};

#[derive(Debug, Clone)]
struct Options {
    experiment: String,
    quick: bool,
    seed: Option<u64>,
    trials: Option<usize>,
    jobs: Option<usize>,
    shards: Option<usize>,
    science: bool,
    backend: Option<mis_experiments::Backend>,
    on: Option<race::RaceSurface>,
    out: Option<String>,
    corpus: Option<String>,
}

/// Experiments that build their simulations from `sim_config()`, and so
/// honour `--shards`.
const SHARDS_EXPERIMENTS: [&str; 3] = ["robustness", "faults", "decay"];

/// Experiments that serve their graphs through `run_on_backend`, and so
/// honour `--backend`.
const BACKEND_EXPERIMENTS: [&str; 1] = ["decay"];

fn usage() -> &'static str {
    "usage: xp <fig3|fig5|grid|lower-bound|tails|robustness|faults|race|quality|decay|apps|sop|potential|fuzz|all> \
     [--quick] [--seed N] [--trials N] [--jobs N] [--shards N] [--science] \
     [--backend csr|compressed|disk] \
     [--on base|line|product|induced] [--out FILE] [--corpus FILE]\n       xp replay <file> [--jobs N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let experiment = it.next().ok_or_else(|| usage().to_owned())?.clone();
    let mut opts = Options {
        experiment,
        quick: false,
        seed: None,
        trials: None,
        jobs: None,
        shards: None,
        science: false,
        backend: None,
        on: None,
        out: None,
        corpus: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--science" => opts.science = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                opts.trials = Some(v.parse().map_err(|_| format!("bad trial count {v:?}"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let jobs: usize = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(jobs);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let shards: usize = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                opts.shards = Some(shards);
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value")?;
                opts.backend = Some(mis_experiments::Backend::parse(v).ok_or_else(|| {
                    format!("unknown backend {v:?} (expected csr|compressed|disk)")
                })?);
            }
            "--on" => {
                let v = it.next().ok_or("--on needs a value")?;
                opts.on = Some(race::RaceSurface::parse(v).ok_or_else(|| {
                    format!("unknown race surface {v:?} (expected base|line|product|induced)")
                })?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                opts.out = Some(v.clone());
            }
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a file path")?;
                opts.corpus = Some(v.clone());
            }
            other => {
                // `xp replay <file>` takes its corpus as a positional
                // argument.
                if opts.experiment == "replay" && opts.corpus.is_none() && !other.starts_with('-') {
                    opts.corpus = Some(other.to_owned());
                } else {
                    return Err(format!("unknown flag {other:?}\n{}", usage()));
                }
            }
        }
    }
    // A flag the experiment would silently ignore is an error instead.
    for (flag, given, honoured_by) in [
        ("--shards", opts.shards.is_some(), &SHARDS_EXPERIMENTS[..]),
        (
            "--backend",
            opts.backend.is_some(),
            &BACKEND_EXPERIMENTS[..],
        ),
    ] {
        if given && !honoured_by.contains(&opts.experiment.as_str()) {
            return Err(format!(
                "{flag} is honoured only by {}; `{}` would ignore it",
                honoured_by.join(", "),
                opts.experiment
            ));
        }
    }
    Ok(opts)
}

fn run_fig3(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        fig3::Fig3Config::quick()
    } else {
        fig3::Fig3Config::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("fig3: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Figure 3 — rounds to MIS on G(n, ½)".into(),
        fig3::run(&config).render(),
    )
}

fn run_fig5(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        fig5::Fig5Config::quick()
    } else {
        fig5::Fig5Config::paper()
    };
    if opts.science {
        config = config.with_science();
    }
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("fig5: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Figure 5 — mean beeps per node on G(n, ½)".into(),
        fig5::run(&config).render(),
    )
}

fn run_grid(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        grid_beeps::GridBeepsConfig::quick()
    } else {
        grid_beeps::GridBeepsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("grid: shapes {:?}, {} trials", config.grids, config.trials);
    (
        "§5 / Theorem 6 — beeps per node on rectangular grids".into(),
        grid_beeps::run(&config).render(),
    )
}

fn run_lower_bound(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        lower_bound::LowerBoundConfig::quick()
    } else {
        lower_bound::LowerBoundConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "lower-bound: targets {:?}, {} trials",
        config.target_sizes, config.trials
    );
    (
        "Theorem 1 — clique-union lower-bound family".into(),
        lower_bound::run(&config).render(),
    )
}

fn run_tails(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        tails::TailsConfig::quick()
    } else {
        tails::TailsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("tails: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Theorem 2 — termination-time tails".into(),
        tails::run(&config).render(),
    )
}

fn run_robustness(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        robustness::RobustnessConfig::quick()
    } else {
        robustness::RobustnessConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("robustness: n = {}, {} trials", config.n, config.trials);
    (
        "§6 — robustness ablations".into(),
        robustness::run(&config).render(),
    )
}

fn run_faults(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        faults::FaultsConfig::quick()
    } else {
        faults::FaultsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "faults: n = {}, loss rates {:?}, {} trials",
        config.n, config.loss_rates, config.trials
    );
    (
        "Extension — fault injection".into(),
        faults::run(&config).render(),
    )
}

fn run_race(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        race::RaceConfig::quick()
    } else {
        race::RaceConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    if let Some(surface) = opts.on {
        config.surface = surface;
    }
    eprintln!(
        "race: {} trials per workload, surface {}",
        config.trials,
        config.surface.name()
    );
    let title = match config.surface {
        race::RaceSurface::Base => "Extension — baseline race".to_owned(),
        surface => format!(
            "Extension — baseline race on the lazy {} view",
            surface.name()
        ),
    };
    (title, race::run(&config).render())
}

fn run_quality(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        quality::QualityConfig::quick()
    } else {
        quality::QualityConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("quality: {} trials per workload", config.trials);
    (
        "Extension — MIS size vs exact optimum".into(),
        quality::run(&config).render(),
    )
}

fn run_decay(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        decay::DecayConfig::quick()
    } else {
        decay::DecayConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("decay: n = {}, {} trials", config.n, config.trials);
    (
        "Extension — active-node decay".into(),
        decay::run(&config).render(),
    )
}

fn run_apps(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        applications::AppsConfig::quick()
    } else {
        applications::AppsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("apps: {} trials per workload", config.trials);
    (
        "Extension — MIS as a building block".into(),
        applications::run(&config).render(),
    )
}

fn run_sop(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        sop::SopConfig::quick()
    } else {
        sop::SopConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "sop: {} trials per model on a {}x{} hex tissue",
        config.trials, config.side, config.side
    );
    (
        "Extension — SOP selection-time statistics".into(),
        sop::run(&config).render(),
    )
}

fn run_potential(opts: &Options) -> (String, String) {
    let config = if opts.quick {
        potential::PotentialConfig::quick()
    } else {
        potential::PotentialConfig::paper()
    };
    eprintln!(
        "potential: {} sizes, cap {}",
        config.log_sizes.len(),
        config.cap
    );
    (
        "Extension — Theorem 1 potential coverage".into(),
        potential::run(&config).render(),
    )
}

fn run_fuzz(opts: &Options) -> (String, String) {
    let mut config = if opts.quick {
        fuzz::FuzzConfig::quick()
    } else {
        fuzz::FuzzConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.eval_runs = t.max(1);
    }
    if let Some(j) = opts.jobs {
        config.jobs = j;
    }
    eprintln!(
        "fuzz: G({}, d ≈ {}), budget {}, {} generations × {} candidates, {} eval runs",
        config.n,
        config.mean_degree,
        config.loss_budget,
        config.generations,
        config.population,
        config.eval_runs
    );
    let results = fuzz::run(&config);
    let path = opts.corpus.as_deref().unwrap_or("worst_scenarios.json");
    match std::fs::write(path, results.corpus_string()) {
        Ok(()) => eprintln!("wrote corpus {path} (replay with `xp replay {path}`)"),
        Err(e) => eprintln!("failed to write corpus {path}: {e}"),
    }
    (
        "Extension — adversarial scenario fuzzer".into(),
        results.render(),
    )
}

fn run_replay(opts: &Options) -> ExitCode {
    let Some(path) = opts.corpus.as_deref() else {
        eprintln!("replay needs a corpus file: xp replay <file>\n{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = match fuzz::replay_str(&text, opts.jobs.unwrap_or(0)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("## Replay — {path}\n\n{}", results.render());
    if results.all_match() {
        ExitCode::SUCCESS
    } else {
        eprintln!("replay mismatch: {path} no longer reproduces byte-identically");
        ExitCode::FAILURE
    }
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
    if let Some(jobs) = opts.jobs {
        mis_experiments::set_default_jobs(jobs);
        eprintln!("running trials on {jobs} worker thread(s)");
    }
    if let Some(shards) = opts.shards {
        mis_experiments::set_default_shards(Some(shards));
        eprintln!(
            "beeping simulations use counter-mode rng with {} intra-run shard(s)",
            if shards == 0 {
                "auto".to_owned()
            } else {
                shards.to_string()
            }
        );
    }
    if let Some(backend) = opts.backend {
        mis_experiments::set_default_backend(backend);
        eprintln!("adjacency served from the {} backend", backend.name());
    }
    if opts.experiment == "replay" {
        return run_replay(&opts);
    }

    type Runner = fn(&Options) -> (String, String);
    let plan: Vec<Runner> = match opts.experiment.as_str() {
        "fig3" => vec![run_fig3],
        "fig5" => vec![run_fig5],
        "grid" => vec![run_grid],
        "lower-bound" => vec![run_lower_bound],
        "tails" => vec![run_tails],
        "robustness" => vec![run_robustness],
        "faults" => vec![run_faults],
        "race" => vec![run_race],
        "quality" => vec![run_quality],
        "decay" => vec![run_decay],
        "apps" => vec![run_apps],
        "sop" => vec![run_sop],
        "potential" => vec![run_potential],
        "fuzz" => vec![run_fuzz],
        "all" => vec![
            run_fig3,
            run_fig5,
            run_grid,
            run_lower_bound,
            run_tails,
            run_robustness,
            run_faults,
            run_race,
            run_quality,
            run_decay,
            run_apps,
            run_sop,
            run_potential,
            run_fuzz,
        ],
        other => {
            eprintln!("unknown experiment {other:?}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let mut report = Report::new();
    for runner in plan {
        // detlint: allow(D03) -- progress display only; never feeds results or seeds
        let started = std::time::Instant::now();
        let (title, body) = runner(&opts);
        eprintln!("  …done in {:.1?}", started.elapsed());
        println!("## {title}\n\n{body}");
        report.push_section(title, body);
    }

    if let Some(path) = &opts.out {
        match std::fs::File::create(path)
            .and_then(|mut f| f.write_all(report.to_markdown().as_bytes()))
        {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_experiment_and_flags() {
        let opts = parse(&[
            "fig3", "--quick", "--seed", "9", "--trials", "12", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(opts.experiment, "fig3");
        assert!(opts.quick);
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.trials, Some(12));
        assert_eq!(opts.jobs, Some(4));
        assert!(!opts.science);
        assert_eq!(opts.on, None);
        assert_eq!(opts.out, None);
    }

    #[test]
    fn parses_race_surface() {
        for (value, surface) in [
            ("base", race::RaceSurface::Base),
            ("line", race::RaceSurface::Line),
            ("product", race::RaceSurface::Product),
            ("induced", race::RaceSurface::Induced),
        ] {
            let opts = parse(&["race", "--on", value]).unwrap();
            assert_eq!(opts.on, Some(surface));
        }
        assert!(parse(&["race", "--on"]).is_err());
        let err = parse(&["race", "--on", "torus"]).unwrap_err();
        assert!(err.contains("torus"));
        assert!(err.contains("base|line|product|induced"));
    }

    #[test]
    fn rejects_zero_jobs() {
        assert!(parse(&["fig3", "--jobs", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["fig3", "--jobs"]).is_err());
        assert!(parse(&["fig3", "--jobs", "many"]).is_err());
    }

    #[test]
    fn parses_shards() {
        let opts = parse(&["decay", "--quick", "--shards", "4"]).unwrap();
        assert_eq!(opts.shards, Some(4));
        // 0 = auto-detect, 1 = counter-mode sequential — both valid.
        assert_eq!(parse(&["decay", "--shards", "0"]).unwrap().shards, Some(0));
        assert_eq!(parse(&["decay", "--shards", "1"]).unwrap().shards, Some(1));
        assert_eq!(parse(&["decay"]).unwrap().shards, None);
        assert!(parse(&["decay", "--shards"]).is_err());
        assert!(parse(&["decay", "--shards", "many"]).is_err());
    }

    #[test]
    fn parses_backend() {
        use mis_experiments::Backend;
        for (value, backend) in [
            ("csr", Backend::Csr),
            ("compressed", Backend::Compressed),
            ("disk", Backend::Disk),
        ] {
            let opts = parse(&["decay", "--backend", value]).unwrap();
            assert_eq!(opts.backend, Some(backend));
        }
        assert_eq!(parse(&["decay"]).unwrap().backend, None);
        assert!(parse(&["decay", "--backend"]).is_err());
        let err = parse(&["decay", "--backend", "ram"]).unwrap_err();
        assert!(err.contains("ram"));
        assert!(err.contains("csr|compressed|disk"));
    }

    /// Every experiment `xp` dispatches, with the module that runs it.
    const EXPERIMENT_SOURCES: [(&str, &str); 14] = [
        ("fig3", include_str!("fig3.rs")),
        ("fig5", include_str!("fig5.rs")),
        ("grid", include_str!("grid_beeps.rs")),
        ("lower-bound", include_str!("lower_bound.rs")),
        ("tails", include_str!("tails.rs")),
        ("robustness", include_str!("robustness.rs")),
        ("faults", include_str!("faults.rs")),
        ("race", include_str!("race.rs")),
        ("quality", include_str!("quality.rs")),
        ("decay", include_str!("decay.rs")),
        ("apps", include_str!("applications.rs")),
        ("sop", include_str!("sop.rs")),
        ("potential", include_str!("potential.rs")),
        ("fuzz", include_str!("fuzz.rs")),
    ];

    #[test]
    fn shards_and_backend_are_honoured_or_rejected() {
        let experiments = EXPERIMENT_SOURCES
            .iter()
            .map(|&(name, source)| (name, Some(source)))
            .chain([("all", None), ("replay", None)]);
        for (name, source) in experiments {
            for (flag, value, hook, honoured_by) in [
                ("--shards", "2", "sim_config()", &SHARDS_EXPERIMENTS[..]),
                (
                    "--backend",
                    "disk",
                    "run_on_backend(",
                    &BACKEND_EXPERIMENTS[..],
                ),
            ] {
                let accepted = honoured_by.contains(&name);
                // An experiment honours the flag exactly when its module
                // reads the override the flag installs.
                if let Some(source) = source {
                    assert_eq!(
                        source.contains(hook),
                        accepted,
                        "{name}: {flag} acceptance disagrees with its module"
                    );
                }
                match parse(&[name, flag, value]) {
                    Ok(_) => assert!(accepted, "{name} accepted {flag} it ignores"),
                    Err(e) => {
                        assert!(!accepted, "{name} rejected {flag}: {e}");
                        assert!(e.contains(flag) && e.contains(name), "{e}");
                        for honouring in honoured_by {
                            assert!(e.contains(honouring), "{e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parses_out_and_science() {
        let opts = parse(&["fig5", "--science", "--out", "report.md"]).unwrap();
        assert!(opts.science);
        assert_eq!(opts.out.as_deref(), Some("report.md"));
    }

    #[test]
    fn rejects_missing_experiment() {
        assert!(parse(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse(&["fig3", "--loud"]).unwrap_err();
        assert!(err.contains("--loud"));
        assert!(err.contains("usage"));
    }

    #[test]
    fn rejects_flag_without_value() {
        assert!(parse(&["fig3", "--seed"]).is_err());
        assert!(parse(&["fig3", "--trials"]).is_err());
        assert!(parse(&["fig3", "--out"]).is_err());
    }

    #[test]
    fn rejects_non_numeric_values() {
        assert!(parse(&["fig3", "--seed", "abc"]).is_err());
        assert!(parse(&["fig3", "--trials", "-2"]).is_err());
    }

    #[test]
    fn usage_lists_every_experiment() {
        for name in [
            "fig3",
            "fig5",
            "grid",
            "lower-bound",
            "tails",
            "robustness",
            "faults",
            "race",
            "quality",
            "decay",
            "apps",
            "sop",
            "potential",
            "fuzz",
            "replay",
            "all",
        ] {
            assert!(usage().contains(name), "usage is missing {name}");
        }
    }

    #[test]
    fn parses_corpus_flag() {
        let opts = parse(&["fuzz", "--quick", "--corpus", "out.json"]).unwrap();
        assert_eq!(opts.corpus.as_deref(), Some("out.json"));
        assert!(parse(&["fuzz", "--corpus"]).is_err());
    }

    #[test]
    fn replay_takes_a_positional_corpus_file() {
        let opts = parse(&["replay", "corpus.json", "--jobs", "2"]).unwrap();
        assert_eq!(opts.experiment, "replay");
        assert_eq!(opts.corpus.as_deref(), Some("corpus.json"));
        assert_eq!(opts.jobs, Some(2));
        // A second positional is still rejected, as is one for any other
        // experiment.
        assert!(parse(&["replay", "a.json", "b.json"]).is_err());
        assert!(parse(&["fig3", "corpus.json"]).is_err());
        // --corpus works for replay too.
        let opts = parse(&["replay", "--corpus", "c.json"]).unwrap();
        assert_eq!(opts.corpus.as_deref(), Some("c.json"));
    }
}
