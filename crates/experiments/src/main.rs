//! `xp` — the experiment driver.
//!
//! ```text
//! xp <experiment> [flags]   run one experiment (or `all`, in order)
//! xp replay <file> [--jobs N]
//! ```
//!
//! Run `xp` without arguments for the experiments and the flags each one
//! honours. [`EXPERIMENTS`] is the single source of both: a flag the chosen
//! experiment would ignore is rejected at parse time, naming the
//! experiments that accept it, and `all` accepts only the flags every
//! experiment honours. `xp replay <file>` re-executes a corpus written by
//! `xp fuzz` and exits non-zero unless every entry reproduces
//! byte-identically.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::ExitCode;

use mis_experiments::{
    applications, decay, faults, fig3, fig5, fuzz, grid_beeps, lower_bound, potential, quality,
    race, robustness, sop, tails, Backend, ExecCtx, Report,
};

/// A command-line flag some experiment may honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Quick,
    Seed,
    Trials,
    Jobs,
    Shards,
    Science,
    Backend,
    On,
    Out,
    Corpus,
}

impl Flag {
    /// This flag's bit in a flag set.
    const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// Every flag with its spelling and value placeholder, in usage order.
const FLAGS: [(Flag, &str, &str); 10] = [
    (Flag::Quick, "--quick", ""),
    (Flag::Seed, "--seed", " N"),
    (Flag::Trials, "--trials", " N"),
    (Flag::Jobs, "--jobs", " N"),
    (Flag::Shards, "--shards", " N"),
    (Flag::Science, "--science", ""),
    (Flag::Backend, "--backend", " csr|compressed|disk"),
    (Flag::On, "--on", " base|line|product|induced"),
    (Flag::Out, "--out", " FILE"),
    (Flag::Corpus, "--corpus", " FILE"),
];

/// The flags every trial-based experiment honours.
const TRIALS: u16 =
    Flag::Quick.bit() | Flag::Seed.bit() | Flag::Trials.bit() | Flag::Jobs.bit() | Flag::Out.bit();

/// The flags `xp replay` honours (its corpus may also come positionally).
const REPLAY: u16 = Flag::Jobs.bit() | Flag::Corpus.bit();

/// An experiment `xp` runs.
struct Experiment {
    name: &'static str,
    about: &'static str,
    /// The library module's source file under `src/`: the flag-contract
    /// test checks that a module claiming `--shards`, `--backend` or
    /// `--jobs` reads the matching part of the [`ExecCtx`].
    #[cfg_attr(not(test), allow(dead_code))]
    module: &'static str,
    /// Returns the report section: title and body.
    run: fn(&Options, &ExecCtx) -> (String, String),
    /// The flags it honours, one [`Flag::bit`] each.
    flags: u16,
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        name: "fig3",
        about: "Figure 3: rounds vs n on G(n, ½)",
        module: "fig3.rs",
        run: run_fig3,
        flags: TRIALS,
    },
    Experiment {
        name: "fig5",
        about: "Figure 5: beeps per node vs n",
        module: "fig5.rs",
        run: run_fig5,
        flags: TRIALS | Flag::Science.bit(),
    },
    Experiment {
        name: "grid",
        about: "§5: beeps per node on rectangular grids",
        module: "grid_beeps.rs",
        run: run_grid,
        flags: TRIALS,
    },
    Experiment {
        name: "lower-bound",
        about: "Theorem 1: clique-union family separation",
        module: "lower_bound.rs",
        run: run_lower_bound,
        flags: TRIALS,
    },
    Experiment {
        name: "tails",
        about: "Theorem 2: termination-time tails",
        module: "tails.rs",
        run: run_tails,
        flags: TRIALS,
    },
    Experiment {
        name: "robustness",
        about: "§6: parameter ablations",
        module: "robustness.rs",
        run: run_robustness,
        flags: TRIALS | Flag::Shards.bit(),
    },
    Experiment {
        name: "faults",
        about: "extension: message loss & late wake-ups",
        module: "faults.rs",
        run: run_faults,
        flags: TRIALS | Flag::Shards.bit(),
    },
    Experiment {
        name: "race",
        about: "extension: baselines comparison (--on races a lazy derived view)",
        module: "race.rs",
        run: run_race,
        flags: TRIALS | Flag::On.bit(),
    },
    Experiment {
        name: "quality",
        about: "extension: MIS sizes vs exact optimum",
        module: "quality.rs",
        run: run_quality,
        flags: TRIALS,
    },
    Experiment {
        name: "decay",
        about: "extension: active-node decay curves",
        module: "decay.rs",
        run: run_decay,
        flags: TRIALS | Flag::Shards.bit() | Flag::Backend.bit(),
    },
    Experiment {
        name: "apps",
        about: "extension: matching / colouring / backbone via MIS",
        module: "applications.rs",
        run: run_apps,
        flags: TRIALS,
    },
    Experiment {
        name: "sop",
        about: "extension: SOP selection-time statistics (Science'11 models)",
        module: "sop.rs",
        run: run_sop,
        flags: TRIALS,
    },
    Experiment {
        name: "potential",
        about: "extension: Theorem 1 potential coverage per schedule",
        module: "potential.rs",
        run: run_potential,
        flags: Flag::Quick.bit() | Flag::Jobs.bit() | Flag::Out.bit(),
    },
    Experiment {
        name: "fuzz",
        about: "extension: adversarial scenario fuzzer (writes a replayable corpus)",
        module: "fuzz.rs",
        run: run_fuzz,
        flags: TRIALS | Flag::Corpus.bit(),
    },
];

/// The flags `experiment` honours, or `None` for an unknown name. `all`
/// honours only what every experiment does.
fn honoured_flags(experiment: &str) -> Option<u16> {
    match experiment {
        "all" => Some(EXPERIMENTS.iter().fold(u16::MAX, |set, e| set & e.flags)),
        "replay" => Some(REPLAY),
        name => EXPERIMENTS.iter().find(|e| e.name == name).map(|e| e.flags),
    }
}

/// `flags` spelled out as usage text.
fn flag_list(flags: u16) -> String {
    FLAGS
        .iter()
        .filter(|(flag, ..)| flags & flag.bit() != 0)
        .map(|(_, name, value)| format!(" [{name}{value}]"))
        .collect()
}

fn usage() -> String {
    let mut text = format!(
        "usage: xp <experiment> [flags]\n       xp replay <file>{}\n\n\
         experiments, with the flags each honours:\n",
        flag_list(REPLAY & !Flag::Corpus.bit())
    );
    let all = ("all", "everything above, in order", honoured_flags("all"));
    let rows = EXPERIMENTS.iter().map(|e| (e.name, e.about, Some(e.flags)));
    for (name, about, flags) in rows.chain([all]) {
        let flags = flag_list(flags.unwrap_or_default());
        text += &format!("  {name:<12} {about}\n  {:<12}{flags}\n", "");
    }
    text
}

#[derive(Debug, Clone, Default)]
struct Options {
    experiment: String,
    quick: bool,
    seed: Option<u64>,
    trials: Option<usize>,
    jobs: Option<usize>,
    shards: Option<usize>,
    science: bool,
    backend: Option<Backend>,
    on: Option<race::RaceSurface>,
    out: Option<String>,
    corpus: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let experiment = it.next().ok_or_else(usage)?.clone();
    let honoured = honoured_flags(&experiment)
        .ok_or_else(|| format!("unknown experiment {experiment:?}\n{}", usage()))?;
    let mut opts = Options {
        experiment,
        ..Options::default()
    };
    while let Some(arg) = it.next() {
        let Some(&(flag, name, _)) = FLAGS.iter().find(|(_, name, _)| name == arg) else {
            // `xp replay <file>` takes its corpus as a positional argument.
            if opts.experiment == "replay" && opts.corpus.is_none() && !arg.starts_with('-') {
                opts.corpus = Some(arg.clone());
                continue;
            }
            return Err(format!("unknown flag {arg:?}\n{}", usage()));
        };
        // A flag the experiment would silently ignore is an error instead.
        if honoured & flag.bit() == 0 {
            let accepting: Vec<&str> = EXPERIMENTS
                .iter()
                .map(|e| e.name)
                .chain(["all", "replay"])
                .filter(|&e| honoured_flags(e).is_some_and(|set| set & flag.bit() != 0))
                .collect();
            return Err(format!(
                "{name} is honoured only by {}; `{}` would ignore it",
                accepting.join(", "),
                opts.experiment
            ));
        }
        if flag == Flag::Quick {
            opts.quick = true;
            continue;
        }
        if flag == Flag::Science {
            opts.science = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {v:?}");
        match flag {
            Flag::Seed => opts.seed = Some(v.parse().map_err(|_| bad("seed"))?),
            Flag::Trials => opts.trials = Some(v.parse().map_err(|_| bad("trial count"))?),
            Flag::Jobs => match v.parse().map_err(|_| bad("job count"))? {
                0 => return Err("--jobs must be at least 1".to_owned()),
                jobs => opts.jobs = Some(jobs),
            },
            Flag::Shards => opts.shards = Some(v.parse().map_err(|_| bad("shard count"))?),
            Flag::Backend => {
                opts.backend = Some(Backend::parse(v).ok_or_else(|| {
                    format!("unknown backend {v:?} (expected csr|compressed|disk)")
                })?);
            }
            Flag::On => {
                opts.on = Some(race::RaceSurface::parse(v).ok_or_else(|| {
                    format!("unknown race surface {v:?} (expected base|line|product|induced)")
                })?);
            }
            Flag::Out => opts.out = Some(v.clone()),
            Flag::Corpus => opts.corpus = Some(v.clone()),
            Flag::Quick | Flag::Science => unreachable!("switches take no value"),
        }
    }
    Ok(opts)
}

/// An experiment's `paper()` config, or `quick()` under `--quick`, with
/// `--seed` and `--trials` applied.
macro_rules! config {
    ($opts:expr, $config:ty) => {{
        let mut config = if $opts.quick {
            <$config>::quick()
        } else {
            <$config>::paper()
        };
        if let Some(s) = $opts.seed {
            config.seed = s;
        }
        if let Some(t) = $opts.trials {
            config.trials = t;
        }
        config
    }};
}

fn run_fig3(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, fig3::Fig3Config);
    eprintln!("fig3: sizes {:?}, {} trials", config.sizes, config.trials);
    let body = fig3::run(&config, ctx).render();
    ("Figure 3 — rounds to MIS on G(n, ½)".into(), body)
}

fn run_fig5(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let mut config = config!(opts, fig5::Fig5Config);
    if opts.science {
        config = config.with_science();
    }
    eprintln!("fig5: sizes {:?}, {} trials", config.sizes, config.trials);
    let body = fig5::run(&config, ctx).render();
    ("Figure 5 — mean beeps per node on G(n, ½)".into(), body)
}

fn run_grid(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, grid_beeps::GridBeepsConfig);
    eprintln!("grid: shapes {:?}, {} trials", config.grids, config.trials);
    let body = grid_beeps::run(&config, ctx).render();
    (
        "§5 / Theorem 6 — beeps per node on rectangular grids".into(),
        body,
    )
}

fn run_lower_bound(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, lower_bound::LowerBoundConfig);
    eprintln!(
        "lower-bound: targets {:?}, {} trials",
        config.target_sizes, config.trials
    );
    let body = lower_bound::run(&config, ctx).render();
    ("Theorem 1 — clique-union lower-bound family".into(), body)
}

fn run_tails(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, tails::TailsConfig);
    eprintln!("tails: sizes {:?}, {} trials", config.sizes, config.trials);
    let body = tails::run(&config, ctx).render();
    ("Theorem 2 — termination-time tails".into(), body)
}

fn run_robustness(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, robustness::RobustnessConfig);
    eprintln!("robustness: n = {}, {} trials", config.n, config.trials);
    let body = robustness::run(&config, ctx).render();
    ("§6 — robustness ablations".into(), body)
}

fn run_faults(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, faults::FaultsConfig);
    eprintln!(
        "faults: n = {}, loss rates {:?}, {} trials",
        config.n, config.loss_rates, config.trials
    );
    let body = faults::run(&config, ctx).render();
    ("Extension — fault injection".into(), body)
}

fn run_race(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let mut config = config!(opts, race::RaceConfig);
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
    (title, race::run(&config, ctx).render())
}

fn run_quality(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, quality::QualityConfig);
    eprintln!("quality: {} trials per workload", config.trials);
    let body = quality::run(&config, ctx).render();
    ("Extension — MIS size vs exact optimum".into(), body)
}

fn run_decay(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, decay::DecayConfig);
    eprintln!("decay: n = {}, {} trials", config.n, config.trials);
    let body = decay::run(&config, ctx).render();
    ("Extension — active-node decay".into(), body)
}

fn run_apps(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, applications::AppsConfig);
    eprintln!("apps: {} trials per workload", config.trials);
    let body = applications::run(&config, ctx).render();
    ("Extension — MIS as a building block".into(), body)
}

fn run_sop(opts: &Options, ctx: &ExecCtx) -> (String, String) {
    let config = config!(opts, sop::SopConfig);
    eprintln!(
        "sop: {} trials per model on a {}x{} hex tissue",
        config.trials, config.side, config.side
    );
    let body = sop::run(&config, ctx).render();
    ("Extension — SOP selection-time statistics".into(), body)
}

fn run_potential(opts: &Options, ctx: &ExecCtx) -> (String, String) {
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
    let body = potential::run(&config, ctx).render();
    ("Extension — Theorem 1 potential coverage".into(), body)
}

fn run_fuzz(opts: &Options, ctx: &ExecCtx) -> (String, String) {
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
    eprintln!(
        "fuzz: G({}, d ≈ {}), budget {}, {} generations × {} candidates, {} eval runs",
        config.n,
        config.mean_degree,
        config.loss_budget,
        config.generations,
        config.population,
        config.eval_runs
    );
    let results = fuzz::run(&config, ctx);
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

fn run_replay(opts: &Options, ctx: &ExecCtx) -> ExitCode {
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
    let results = match fuzz::replay_str(&text, ctx) {
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
    let ctx = ExecCtx {
        jobs: opts.jobs.unwrap_or(0),
        shards: opts.shards,
        backend: opts.backend.unwrap_or_default(),
    };
    eprintln!("{ctx}");
    if opts.experiment == "replay" {
        return run_replay(&opts, &ctx);
    }

    let mut report = Report::new();
    for experiment in EXPERIMENTS
        .iter()
        .filter(|e| opts.experiment == "all" || opts.experiment == e.name)
    {
        // detlint: allow(D03) -- progress display only; never feeds results or seeds
        let started = std::time::Instant::now();
        let (title, body) = (experiment.run)(&opts, &ctx);
        eprintln!("  …done in {:.1?}", started.elapsed());
        println!("## {title}\n\n{body}");
        report.push_section(title, body);
    }

    if let Some(path) = &opts.out {
        let text = format!("{ctx}\n\n{}", report.to_markdown());
        match std::fs::File::create(path).and_then(|mut f| f.write_all(text.as_bytes())) {
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

    /// A value each flag parses, so every pair reaches the honour check.
    fn sample_value(flag: Flag) -> Option<&'static str> {
        match flag {
            Flag::Quick | Flag::Science => None,
            Flag::Seed => Some("3"),
            Flag::Trials | Flag::Jobs | Flag::Shards => Some("2"),
            Flag::Backend => Some("disk"),
            Flag::On => Some("line"),
            Flag::Out => Some("report.md"),
            Flag::Corpus => Some("corpus.json"),
        }
    }

    /// What an experiment calls when it reads a flag's value: first in its
    /// library module, through the part of the [`ExecCtx`] the flag sets,
    /// then in its runner in this file. `--out` is read by `main` for
    /// every experiment.
    fn readers(flag: Flag) -> (&'static [&'static str], &'static [&'static str]) {
        match flag {
            Flag::Shards => (&["ctx.sim_config()"], &[]),
            Flag::Backend => (&["ctx.on_backend("], &[]),
            Flag::Jobs => (&["ctx.run_trials(", "ctx.jobs"], &[]),
            Flag::Quick => (&[], &["opts.quick", "config!("]),
            Flag::Seed => (&[], &["opts.seed", "config!("]),
            Flag::Trials => (&[], &["opts.trials", "config!("]),
            Flag::Science => (&[], &["opts.science"]),
            Flag::On => (&[], &["opts.on"]),
            Flag::Corpus => (&[], &["opts.corpus"]),
            Flag::Out => (&[], &[]),
        }
    }

    /// `text` with all whitespace removed, so a call split across lines
    /// by rustfmt still matches.
    fn squeeze(text: &str) -> String {
        text.split_whitespace().collect()
    }

    #[test]
    fn an_experiment_claims_exactly_the_flags_it_reads() {
        let main = include_str!("main.rs");
        for e in &EXPERIMENTS {
            let path = format!("{}/src/{}", env!("CARGO_MANIFEST_DIR"), e.module);
            let module = squeeze(&std::fs::read_to_string(&path).unwrap());
            let start = main
                .find(&format!("\nfn run_{}(", e.name.replace('-', "_")))
                .unwrap_or_else(|| panic!("no runner for {}", e.name));
            let runner = squeeze(&main[start..start + main[start..].find("\n}\n").unwrap()]);
            for (flag, spelling, _) in FLAGS {
                let claimed = e.flags & flag.bit() != 0;
                for (hooks, source) in [(readers(flag).0, &module), (readers(flag).1, &runner)] {
                    if !hooks.is_empty() {
                        let reads = hooks.iter().any(|hook| source.contains(hook));
                        assert_eq!(reads, claimed, "{}: {spelling} claim vs source", e.name);
                    }
                }
            }
        }
    }

    #[test]
    fn every_flag_is_honoured_or_rejected() {
        for name in EXPERIMENTS.iter().map(|e| e.name).chain(["all", "replay"]) {
            let honoured = honoured_flags(name).unwrap();
            for (flag, spelling, _) in FLAGS {
                let accepted = honoured & flag.bit() != 0;
                let mut args = vec![name, spelling];
                args.extend(sample_value(flag));
                match parse(&args) {
                    Ok(_) => assert!(accepted, "{name} accepted {spelling} it ignores"),
                    Err(e) => {
                        assert!(!accepted, "{name} rejected {spelling}: {e}");
                        assert!(e.contains(spelling) && e.contains(name), "{e}");
                        for other in EXPERIMENTS.iter().filter(|o| o.flags & flag.bit() != 0) {
                            assert!(e.contains(other.name), "{e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_honours_what_every_experiment_honours() {
        assert!(parse(&["all", "--quick", "--jobs", "2", "--out", "r.md"]).is_ok());
        // `potential` is pure computation: no seed, no trials.
        for args in [["all", "--seed", "3"], ["all", "--trials", "2"]] {
            assert!(parse(&args).unwrap_err().contains("`all` would ignore it"));
        }
        assert!(parse(&["potential", "--quick", "--seed", "3"]).is_err());
        assert!(parse(&["fig3", "--quick", "--science"]).is_err());
        assert!(parse(&["sop", "--on", "product"]).is_err());
        let err = parse(&["replay", "c.json", "--quick"]).unwrap_err();
        assert!(err.contains("--quick") && err.contains("replay"), "{err}");
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
    fn usage_lists_every_experiment_with_its_flags() {
        let text = usage();
        for e in &EXPERIMENTS {
            assert!(text.contains(e.name), "usage is missing {}", e.name);
            assert!(
                text.contains(&flag_list(e.flags)),
                "usage is missing {}'s flags",
                e.name
            );
        }
        assert!(text.contains("replay") && text.contains("all"));
    }

    #[test]
    fn rejects_unknown_experiment() {
        let err = parse(&["nonsense"]).unwrap_err();
        assert!(
            err.contains("unknown experiment") && err.contains("usage"),
            "{err}"
        );
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
