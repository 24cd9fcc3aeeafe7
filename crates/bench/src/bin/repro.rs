//! Reproduction driver: prints the rows/series of every paper table and
//! figure, and runs campaign presets through the parallel engine —
//! in-process, or sharded across forked worker processes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ivc-bench --bin repro -- all        # every experiment
//! cargo run --release -p ivc-bench --bin repro -- a2 d3      # a subset
//! IVC_FULL=1 cargo run --release -p ivc-bench --bin repro -- all   # full-fidelity sweeps
//!
//! # Campaign presets (smoke, a1-a6, b1-b3, defense, rooms, d1-d6)
//! # through the engine:
//! cargo run --release -p ivc-bench --bin repro -- campaign smoke --workers 2
//! cargo run --release -p ivc-bench --bin repro -- campaign a6 --shards 4 --workers 2
//!
//! # The same shard contract as standalone steps (file transfer is the
//! # only coupling, so the three can run on different machines).  Partials
//! # travel in the compact columnar format (ivc-trial-columns-v1) when the
//! # --out file ends in .bin, and as JSON when it ends in .json; the merge
//! # streams them one at a time and accepts either:
//! cargo run --release -p ivc-bench --bin repro -- shard-plan a6 --shards 4 --out-dir jobs/
//! cargo run --release -p ivc-bench --bin repro -- shard-worker --job jobs/a6-carrier-frequency.shard-0-of-4.job.json --out parts/part0.bin
//! cargo run --release -p ivc-bench --bin repro -- shard-merge --out a6.json parts/*.bin
//!
//! # A worker that enrolled the corpus or trained a detector itself leaves
//! # that set-up next to its partial (parts/part0.setup.bin, format
//! # ivc-setup-v1); --setup hands it to later workers of the same build,
//! # which load it instead of rebuilding it (a bundle from another build
//! # is refused with a warning).  The archive bytes are the same either way:
//! cargo run --release -p ivc-bench --bin repro -- shard-worker --job jobs/a6-carrier-frequency.shard-1-of-4.job.json --setup parts/part0.setup.bin --out parts/part1.bin
//!
//! # Re-encode one binary partial archive as JSON for human inspection:
//! cargo run --release -p ivc-bench --bin repro -- export-json parts/part0.bin --out part0.json
//!
//! # Supervised sharding: retries, straggler re-issue, checkpoint/resume.
//! cargo run --release -p ivc-bench --bin repro -- orchestrate smoke --shards 2 --workers 2
//! cargo run --release -p ivc-bench --bin repro -- orchestrate smoke --shards 2 --resume DIR
//!
//! # Per-stage time attribution for a preset (telemetry-instrumented run;
//! # with --shards the table covers the merged fleet of worker processes):
//! cargo run --release -p ivc-bench --bin repro -- profile a1
//! cargo run --release -p ivc-bench --bin repro -- profile smoke --shards 2
//!
//! # Compare two committed bench snapshots (exit 1 past the threshold):
//! cargo run --release -p ivc-bench --bin repro -- bench-diff BENCH_pr7.json fresh.json
//!
//! # Flags:
//! #   --workers N             worker threads (default: all cores; per process when sharded)
//! #   --shards N              fork N shard-worker processes per campaign
//! #   --setup FILE            shard-worker: load the enrolled recogniser and trained
//! #                           detectors from this ivc-setup-v1 bundle instead of
//! #                           building them (orchestrate and campaign --shards pass it
//! #                           to their workers themselves)
//! #   --partial-format F      wire format for shard partials: columns (default) or json
//! #                           (campaign --shards and orchestrate)
//! #   --archive DIR           write each campaign's JSON report into DIR
//! #   --max-retries N         extra attempts per failed shard (orchestrate; default 2)
//! #   --straggler-timeout S   re-issue attempts running longer than S seconds (orchestrate)
//! #   --resume DIR            resume from the checkpoints in DIR (orchestrate)
//! #   --metrics FILE          write span/counter metrics JSON (ivc-metrics-v1;
//! #                           fleet-merged across workers when sharded)
//! #   --trace FILE            write a Chrome trace-event JSON (chrome://tracing / Perfetto)
//! #   --max-regress PCT       bench-diff regression threshold in percent (default 25)
//! ```

use ivc_bench::*;
use ivc_core::telemetry;
use ivc_experiments::orchestrate::{OrchestratorConfig, ENV_FAULT_SHARD, ENV_SHARD_ATTEMPT};
use ivc_experiments::shard::{
    merge_shard_files, metrics_sidecar_path, run_shard, shard_job_file_name, PartialFormat,
    ShardArchive, ShardJob, ShardPlan,
};
use ivc_experiments::{default_workers, presets, setup, CampaignReport};
use std::path::{Path, PathBuf};

/// What the invocation asked the driver to do.
enum Mode {
    /// Render paper experiments (the default; empty or `all` = everything).
    Experiments(Vec<String>),
    /// Run campaign presets through the engine.
    Campaign(Vec<String>),
    /// Write shard job files for presets (`--shards`, `--out-dir`).
    ShardPlanFiles(Vec<String>),
    /// Execute one shard job file (`--job`, `--out`).
    ShardWorker,
    /// Merge partial archives into a final report (`--out`, inputs).
    ShardMerge(Vec<PathBuf>),
    /// Re-encode one partial archive as JSON (`export-json IN --out OUT`).
    ExportJson(PathBuf),
    /// Run campaign presets under the supervising orchestrator
    /// (`--shards`, optional `--max-retries`/`--straggler-timeout`/
    /// `--resume`).
    Orchestrate(Vec<String>),
    /// Profile campaign presets: run with telemetry enabled and print
    /// the per-stage time-attribution table (default `--workers 1`, so
    /// stage totals track wall clock; with `--shards N` the table is the
    /// merged fleet of forked worker processes).
    Profile(Vec<String>),
    /// Compare two bench snapshots (`bench-diff OLD NEW`), exiting
    /// non-zero when a bench entry's mean regressed past `--max-regress`.
    BenchDiff(PathBuf, PathBuf),
}

struct Options {
    workers: Option<usize>,
    archive: Option<PathBuf>,
    shards: Option<usize>,
    job: Option<PathBuf>,
    setup: Option<PathBuf>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    max_retries: Option<usize>,
    straggler_timeout: Option<f64>,
    resume: Option<PathBuf>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    max_regress: Option<f64>,
    partial_format: Option<PartialFormat>,
}

impl Options {
    /// `--workers`, defaulting to the machine's parallelism.
    fn worker_threads(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }
}

/// The next token as a flag's value, rejecting another flag in that slot
/// (so `--archive --workers 2` errors instead of archiving to "--workers").
fn flag_value<'a, I: Iterator<Item = &'a String>>(
    iter: &mut std::iter::Peekable<I>,
    flag: &str,
    wants: &str,
) -> Result<&'a String, String> {
    match iter.peek() {
        Some(value) if !value.starts_with("--") => Ok(iter.next().expect("peeked")),
        _ => Err(format!("{flag} needs {wants}")),
    }
}

fn parse_args(args: &[String]) -> Result<(Mode, Options), String> {
    let mut options = Options {
        workers: None,
        archive: None,
        shards: None,
        job: None,
        setup: None,
        out: None,
        out_dir: None,
        max_retries: None,
        straggler_timeout: None,
        resume: None,
        metrics: None,
        trace: None,
        max_regress: None,
        partial_format: None,
    };
    let mut subcommand: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workers" => {
                let value = flag_value(&mut iter, "--workers", "a number")?;
                let workers = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --workers value '{value}'"))?;
                if workers == 0 {
                    return Err("invalid --workers value '0' (need at least 1)".to_string());
                }
                options.workers = Some(workers);
            }
            "--shards" => {
                let value = flag_value(&mut iter, "--shards", "a number")?;
                let shards = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --shards value '{value}'"))?;
                if shards == 0 {
                    return Err("invalid --shards value '0' (need at least 1)".to_string());
                }
                options.shards = Some(shards);
            }
            "--archive" => {
                let value = flag_value(&mut iter, "--archive", "a directory")?;
                options.archive = Some(PathBuf::from(value));
            }
            "--job" => {
                let value = flag_value(&mut iter, "--job", "a shard job file")?;
                options.job = Some(PathBuf::from(value));
            }
            "--setup" => {
                let value = flag_value(&mut iter, "--setup", "a set-up bundle file")?;
                options.setup = Some(PathBuf::from(value));
            }
            "--out" => {
                let value = flag_value(&mut iter, "--out", "an output file")?;
                options.out = Some(PathBuf::from(value));
            }
            "--out-dir" => {
                let value = flag_value(&mut iter, "--out-dir", "an output directory")?;
                options.out_dir = Some(PathBuf::from(value));
            }
            "--max-retries" => {
                let value = flag_value(&mut iter, "--max-retries", "a number")?;
                let retries = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --max-retries value '{value}'"))?;
                options.max_retries = Some(retries);
            }
            "--straggler-timeout" => {
                let value = flag_value(&mut iter, "--straggler-timeout", "seconds")?;
                let seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --straggler-timeout value '{value}'"))?;
                if !(seconds > 0.0) || !seconds.is_finite() {
                    return Err(format!(
                        "invalid --straggler-timeout value '{value}' (need positive seconds)"
                    ));
                }
                options.straggler_timeout = Some(seconds);
            }
            "--resume" => {
                let value = flag_value(&mut iter, "--resume", "a checkpoint directory")?;
                options.resume = Some(PathBuf::from(value));
            }
            "--metrics" => {
                let value = flag_value(&mut iter, "--metrics", "an output file")?;
                options.metrics = Some(PathBuf::from(value));
            }
            "--trace" => {
                let value = flag_value(&mut iter, "--trace", "an output file")?;
                options.trace = Some(PathBuf::from(value));
            }
            "--partial-format" => {
                let value = flag_value(&mut iter, "--partial-format", "'columns' or 'json'")?;
                options.partial_format =
                    Some(PartialFormat::parse(value).map_err(|e| e.to_string())?);
            }
            "--max-regress" => {
                let value = flag_value(&mut iter, "--max-regress", "a percentage")?;
                let pct = value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --max-regress value '{value}'"))?;
                if !(pct > 0.0) || !pct.is_finite() {
                    return Err(format!(
                        "invalid --max-regress value '{value}' (need a positive percentage)"
                    ));
                }
                options.max_regress = Some(pct);
            }
            name @ ("campaign" | "shard-plan" | "shard-worker" | "shard-merge" | "export-json"
            | "orchestrate" | "profile" | "bench-diff")
                if subcommand.is_none() =>
            {
                // A subcommand after positionals would silently demote
                // them (or itself) to experiment ids: refuse up front.
                if !positionals.is_empty() {
                    return Err(format!(
                        "'{name}' cannot be combined with experiment ids ({})",
                        positionals.join(", ")
                    ));
                }
                subcommand = Some(name.to_string());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => positionals.push(other.to_string()),
        }
    }
    // Each flag belongs to specific subcommands; a misplaced flag is an
    // error, never silently ignored.
    let reject_flag = |set: bool, flag: &str, wants: &str| -> Result<(), String> {
        if set {
            return Err(format!("{flag} applies to {wants} only"));
        }
        Ok(())
    };
    let subcommand = subcommand.as_deref();
    if matches!(
        subcommand,
        Some("shard-plan" | "shard-merge" | "export-json" | "bench-diff")
    ) {
        reject_flag(
            options.workers.is_some(),
            "--workers",
            "experiment runs and the campaign and shard-worker subcommands",
        )?;
    }
    if !matches!(
        subcommand,
        Some("campaign" | "shard-plan" | "orchestrate" | "profile")
    ) {
        reject_flag(
            options.shards.is_some(),
            "--shards",
            "the campaign, shard-plan, orchestrate and profile subcommands",
        )?;
    }
    if !matches!(subcommand, Some("bench-diff")) {
        reject_flag(
            options.max_regress.is_some(),
            "--max-regress",
            "the bench-diff subcommand",
        )?;
    }
    if !matches!(subcommand, Some("campaign" | "orchestrate")) {
        reject_flag(
            options.partial_format.is_some(),
            "--partial-format",
            "the campaign (with --shards) and orchestrate subcommands",
        )?;
    }
    if !matches!(subcommand, None | Some("campaign" | "orchestrate")) {
        reject_flag(
            options.archive.is_some(),
            "--archive",
            "experiment runs and the campaign and orchestrate subcommands",
        )?;
    }
    if !matches!(subcommand, Some("orchestrate")) {
        reject_flag(
            options.max_retries.is_some(),
            "--max-retries",
            "the orchestrate subcommand",
        )?;
        reject_flag(
            options.straggler_timeout.is_some(),
            "--straggler-timeout",
            "the orchestrate subcommand",
        )?;
        reject_flag(
            options.resume.is_some(),
            "--resume",
            "the orchestrate subcommand",
        )?;
    }
    if matches!(
        subcommand,
        Some("shard-plan" | "shard-worker" | "shard-merge" | "export-json" | "bench-diff")
    ) {
        reject_flag(
            options.metrics.is_some(),
            "--metrics",
            "experiment runs and the campaign, orchestrate and profile subcommands",
        )?;
        reject_flag(
            options.trace.is_some(),
            "--trace",
            "experiment runs and the campaign, orchestrate and profile subcommands",
        )?;
    }
    if !matches!(subcommand, Some("shard-worker")) {
        reject_flag(
            options.job.is_some(),
            "--job",
            "the shard-worker subcommand",
        )?;
        reject_flag(
            options.setup.is_some(),
            "--setup",
            "the shard-worker subcommand",
        )?;
    }
    if !matches!(
        subcommand,
        Some("shard-worker" | "shard-merge" | "export-json")
    ) {
        reject_flag(
            options.out.is_some(),
            "--out",
            "the shard-worker, shard-merge and export-json subcommands",
        )?;
    }
    if !matches!(subcommand, Some("shard-plan")) {
        reject_flag(
            options.out_dir.is_some(),
            "--out-dir",
            "the shard-plan subcommand",
        )?;
    }
    let mode = match subcommand {
        None => Mode::Experiments(positionals),
        Some("campaign") => {
            if positionals.is_empty() {
                return Err(format!(
                    "campaign needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            // An in-process campaign writes no partials, so a requested
            // wire format would be silently meaningless.
            if options.partial_format.is_some() && options.shards.is_none() {
                return Err("--partial-format needs --shards N (an in-process campaign \
                            writes no partial archives)"
                    .to_string());
            }
            Mode::Campaign(positionals)
        }
        Some("shard-plan") => {
            if positionals.is_empty() {
                return Err(format!(
                    "shard-plan needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            if options.shards.is_none() {
                return Err("shard-plan needs --shards N".to_string());
            }
            if options.out_dir.is_none() {
                return Err("shard-plan needs --out-dir DIR".to_string());
            }
            Mode::ShardPlanFiles(positionals)
        }
        Some("shard-worker") => {
            if !positionals.is_empty() {
                return Err(format!(
                    "shard-worker takes no positional arguments (got '{}')",
                    positionals.join(" ")
                ));
            }
            if options.job.is_none() {
                return Err("shard-worker needs --job FILE".to_string());
            }
            if options.out.is_none() {
                return Err("shard-worker needs --out FILE".to_string());
            }
            Mode::ShardWorker
        }
        Some("shard-merge") => {
            if options.out.is_none() {
                return Err("shard-merge needs --out FILE".to_string());
            }
            if positionals.is_empty() {
                return Err("shard-merge needs at least one partial archive".to_string());
            }
            Mode::ShardMerge(positionals.into_iter().map(PathBuf::from).collect())
        }
        Some("export-json") => {
            if options.out.is_none() {
                return Err("export-json needs --out FILE".to_string());
            }
            if positionals.len() != 1 {
                return Err(
                    "export-json needs exactly one partial archive: export-json IN --out OUT"
                        .to_string(),
                );
            }
            Mode::ExportJson(PathBuf::from(positionals.into_iter().next().expect("one")))
        }
        Some("orchestrate") => {
            if positionals.is_empty() {
                return Err(format!(
                    "orchestrate needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            if options.shards.is_none() {
                return Err("orchestrate needs --shards N".to_string());
            }
            Mode::Orchestrate(positionals)
        }
        Some("profile") => {
            if positionals.is_empty() {
                return Err(format!(
                    "profile needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            Mode::Profile(positionals)
        }
        Some("bench-diff") => {
            if positionals.len() != 2 {
                return Err(
                    "bench-diff needs exactly two snapshot files: bench-diff OLD NEW".to_string(),
                );
            }
            let mut paths = positionals.into_iter().map(PathBuf::from);
            Mode::BenchDiff(paths.next().expect("two"), paths.next().expect("two"))
        }
        Some(_) => unreachable!(),
    };
    Ok((mode, options))
}

fn archive_report(report: &CampaignReport, dir: &Path) -> ivc_core::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.spec.name));
    report.save(&path)?;
    Ok(path)
}

/// Archives every report into the `--archive` directory (when set).
/// Returns `false` if any write failed, so callers can fail the process —
/// a requested archive that was not produced must not exit 0.
#[must_use]
fn archive_all(reports: &[CampaignReport], archive: &Option<PathBuf>) -> bool {
    let Some(dir) = archive else {
        return true;
    };
    let mut ok = true;
    for report in reports {
        match archive_report(report, dir) {
            Ok(path) => println!("archived {}", path.display()),
            Err(e) => {
                eprintln!("archiving {} failed: {e}", report.spec.name);
                ok = false;
            }
        }
    }
    ok
}

/// Prints a campaign report's summary table and per-curve attack ranges —
/// shared by the in-process and sharded campaign paths, so the two differ
/// in nothing but how the trials were executed.
fn print_reports(reports: &[CampaignReport]) {
    for report in reports {
        println!("{}", report.summary_table().render());
        for curve in &report.curves {
            println!(
                "range at >= 0.8 success [{}]: {} m",
                curve.label,
                curve
                    .range_at_success_rate(0.8)
                    .map(|d| format!("{d:.1}"))
                    .unwrap_or_else(|| "-".into())
            );
        }
        println!();
    }
}

/// A one-line error followed by a non-zero exit: every runtime failure
/// path of the driver funnels through here (exit 2 is reserved for
/// argument parsing).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn run_campaigns(
    presets_named: &[String],
    fidelity: Fidelity,
    options: &Options,
    workers: usize,
    worker_metrics: &mut Vec<telemetry::Snapshot>,
) {
    for preset in presets_named {
        let reports = match options.shards {
            None => run_campaign_preset(preset, fidelity, workers),
            Some(num_shards) => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("locating the shard-worker binary: {e}").into());
                exe.and_then(|exe| {
                    // Unique per run: pids recycle, and a failed earlier
                    // run legitimately leaves its directory behind.
                    let scratch = unique_scratch_dir(&format!("shards-{preset}"));
                    let result = run_campaign_preset_sharded(
                        preset,
                        fidelity,
                        num_shards,
                        workers,
                        &exe,
                        &scratch,
                        options.partial_format.unwrap_or_default(),
                    )
                    .and_then(|reports| {
                        // Collect the workers' telemetry sidecars before
                        // the scratch directory disappears; a missing
                        // sidecar is a hard error (an under-reported
                        // fleet document would be worse than none).
                        if options.metrics.is_some() {
                            let specs = presets::by_name(preset, fidelity.quick())
                                .expect("preset ran above");
                            for spec in &specs {
                                worker_metrics
                                    .extend(collect_worker_metrics(spec, num_shards, &scratch)?);
                            }
                        }
                        Ok(reports)
                    });
                    // Clean up on success only: a failed run's job files
                    // and partials are the evidence the error points at.
                    match result {
                        Ok(reports) => {
                            let _ = std::fs::remove_dir_all(&scratch);
                            Ok(reports)
                        }
                        Err(e) if scratch.exists() => Err(format!(
                            "{e} (job files and partials kept in {})",
                            scratch.display()
                        )
                        .into()),
                        Err(e) => Err(e),
                    }
                })
            }
        };
        match reports {
            Ok(reports) => {
                print_reports(&reports);
                if !archive_all(&reports, &options.archive) {
                    std::process::exit(1);
                }
            }
            Err(e) => fail(format_args!("campaign {preset} failed: {e}")),
        }
    }
}

/// Runs campaign presets under the supervising orchestrator.  Without
/// `--resume` the checkpoints go to a fresh unique scratch directory,
/// removed on success and kept on failure (the failure message names it,
/// so an interrupted run can be resumed); with `--resume DIR` the run
/// picks up the surviving checkpoints in DIR first.
fn run_orchestrate(
    presets_named: &[String],
    fidelity: Fidelity,
    options: &Options,
    workers: usize,
    worker_metrics: &mut Vec<telemetry::Snapshot>,
) {
    let num_shards = options.shards.expect("checked at parse time");
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => fail(format_args!("locating the shard-worker binary: {e}")),
    };
    let scratch = options
        .resume
        .clone()
        .unwrap_or_else(|| unique_scratch_dir("orchestrate"));
    let config = OrchestratorConfig {
        max_retries: options.max_retries.unwrap_or(2),
        straggler_timeout: options
            .straggler_timeout
            .map(std::time::Duration::from_secs_f64),
        partial_format: options.partial_format.unwrap_or_default(),
        ..OrchestratorConfig::new(num_shards)
    };
    let mut stderr = std::io::stderr();
    for preset in presets_named {
        let reports = run_campaign_preset_orchestrated(
            preset,
            fidelity,
            &config,
            workers,
            &exe,
            &scratch,
            &mut stderr,
        );
        match reports {
            Ok(reports) => {
                print_reports(&reports);
                if !archive_all(&reports, &options.archive) {
                    std::process::exit(1);
                }
            }
            Err(e) if scratch.exists() => fail(format_args!(
                "campaign {preset} failed: {e} (checkpoints kept in {}; pick up where it \
                 stopped with --resume {})",
                scratch.display(),
                scratch.display()
            )),
            Err(e) => fail(format_args!("campaign {preset} failed: {e}")),
        }
    }
    // Collect the workers' telemetry sidecars (renamed alongside their
    // checkpoints by the orchestrator) before the scratch directory
    // disappears; missing worker telemetry is a hard error.
    if options.metrics.is_some() {
        for preset in presets_named {
            let specs = presets::by_name(preset, fidelity.quick()).expect("presets ran above");
            for spec in &specs {
                match collect_worker_metrics(spec, num_shards, &scratch) {
                    Ok(snapshots) => worker_metrics.extend(snapshots),
                    Err(e) => fail(format_args!(
                        "{e} (checkpoints kept in {})",
                        scratch.display()
                    )),
                }
            }
        }
    }
    // The structured run manifests are part of the run's record: copy
    // them into the archive directory (when one was asked for) before
    // the scratch directory disappears.
    if let Some(dir) = &options.archive {
        if let Err(e) = copy_manifests(&scratch, dir) {
            fail(format_args!("archiving run manifests: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Copies every `<spec>.manifest.jsonl` run manifest from the scratch
/// directory into the archive directory, so the structured event record
/// of an orchestrated run survives scratch cleanup.
fn copy_manifests(scratch: &Path, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(scratch)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".manifest.jsonl") {
            let to = dir.join(name);
            std::fs::copy(entry.path(), &to)?;
            println!("archived {}", to.display());
        }
    }
    Ok(())
}

fn run_shard_plan(presets_named: &[String], fidelity: Fidelity, options: &Options) {
    let num_shards = options.shards.expect("checked at parse time");
    let out_dir = options.out_dir.as_ref().expect("checked at parse time");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        fail(format_args!("creating {}: {e}", out_dir.display()));
    }
    for preset in presets_named {
        let specs = match presets::by_name(preset, fidelity.quick()) {
            Some(specs) => specs,
            None => fail(format_args!(
                "unknown campaign preset '{preset}' (available: {})",
                presets::PRESET_NAMES.join(", ")
            )),
        };
        for spec in &specs {
            let plan = match ShardPlan::partition(spec, num_shards) {
                Ok(plan) => plan,
                Err(e) => fail(format_args!("planning {}: {e}", spec.name)),
            };
            for job in plan.jobs() {
                let path = out_dir.join(shard_job_file_name(&spec.name, &job.shard));
                if let Err(e) = job.save(&path) {
                    fail(e);
                }
                println!(
                    "wrote {} ({} jobs: slots [{}, {}))",
                    path.display(),
                    job.shard.num_jobs(),
                    job.shard.start_job,
                    job.shard.end_job,
                );
            }
        }
    }
}

/// Creates the parent directory of an output file up front, so a typo'd
/// path fails before the work runs, not after minutes of computation.
fn ensure_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fail(format_args!("creating {}: {e}", parent.display()));
            }
        }
    }
}

fn run_shard_worker(options: &Options) {
    let job_path = options.job.as_ref().expect("checked at parse time");
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    let job = match ShardJob::load(job_path) {
        Ok(job) => job,
        Err(e) => fail(e),
    };
    // CI fault injection: `IVC_FAULT_SHARD=<i>` makes the *first* attempt
    // at shard i exit non-zero (the orchestrator stamps the attempt index
    // into IVC_SHARD_ATTEMPT; absent means attempt 0), so the retry path
    // is exercised by a real worker-process failure.
    if let Ok(value) = std::env::var(ENV_FAULT_SHARD) {
        let attempt = std::env::var(ENV_SHARD_ATTEMPT)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        if value.parse::<usize>().ok() == Some(job.shard.shard_index) && attempt == 0 {
            fail(format_args!(
                "injected fault: failing first attempt at shard {} ({ENV_FAULT_SHARD}={value})",
                job.shard.shard_index
            ));
        }
    }
    // Workers always collect telemetry: the coordinator merges the
    // sidecars into the fleet-wide metrics document, and without them a
    // sharded `--metrics` run would silently report coordinator overhead
    // only.  The sidecar is written after the archive, so a failed
    // attempt leaves neither file behind.
    telemetry::reset();
    telemetry::set_enabled(true);
    let start = std::time::Instant::now();
    // A set-up bundle only ever saves work: one that fails to load (a
    // foreign build, a damaged file) costs a rebuild, never a result.
    if let Some(setup) = &options.setup {
        if let Err(e) = setup::install_bundle_file(setup) {
            eprintln!("warning: ignoring set-up bundle {}: {e}", setup.display());
        }
    }
    let detectors = setup::shard_detectors(&job.spec, job.shard.start_job, job.shard.end_job);
    let builds_setup = !setup::memos_cover(&job.spec, &detectors);
    let outcome = run_shard(&job, options.worker_threads());
    let wall_s = start.elapsed().as_secs_f64();
    telemetry::set_enabled(false);
    let archive = match outcome {
        Ok(archive) => archive,
        Err(e) => fail(format_args!("running shard {}: {e}", job.shard.shard_index)),
    };
    if let Err(e) = archive.save(out_path) {
        fail(e);
    }
    let snapshot = telemetry::snapshot().with_source(&format!(
        "shard-{}-of-{}",
        job.shard.shard_index, job.shard.num_shards
    ));
    if let Err(e) = write_metrics_file(&metrics_sidecar_path(out_path), &snapshot, wall_s) {
        fail(e);
    }
    // Return whatever set-up this worker had to build, so the coordinator
    // can ship it to later workers instead of having them rebuild it.
    if builds_setup {
        if let Some(bundle) = setup::SetupBundle::from_memos(&job.spec, &detectors) {
            let sidecar = setup::setup_sidecar_path(out_path);
            if let Err(e) = bundle.save(&sidecar) {
                eprintln!("warning: could not return the worker's set-up: {e}");
            }
        }
    }
    println!(
        "shard {}/{} of '{}': {} trial(s) -> {}",
        job.shard.shard_index,
        job.shard.num_shards,
        job.spec.name,
        job.shard.num_jobs(),
        out_path.display(),
    );
}

fn run_shard_merge(partial_paths: &[PathBuf], options: &Options) {
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    // Streaming merge: each partial (columnar or JSON, detected from its
    // bytes) is loaded, folded into the per-cell accumulators and dropped
    // before the next — the driver never holds every shard's records.
    let report = match merge_shard_files(partial_paths) {
        Ok(report) => report,
        Err(e) => fail(e),
    };
    if let Err(e) = report.save(out_path) {
        fail(e);
    }
    println!(
        "merged {} shard(s) of '{}' ({} trials) -> {}",
        partial_paths.len(),
        report.spec.name,
        report.spec.num_trials(),
        out_path.display(),
    );
}

fn run_export_json(input: &Path, options: &Options) {
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    let archive = match ShardArchive::load(input) {
        Ok(archive) => archive,
        Err(e) => fail(e),
    };
    // Always JSON, whatever the --out file is called: that is the point
    // of the subcommand.
    if let Err(e) = std::fs::write(out_path, archive.to_json_string()) {
        fail(format_args!("writing {}: {e}", out_path.display()));
    }
    println!(
        "exported shard {}/{} of '{}' ({} trial(s)) as JSON -> {}",
        archive.shard.shard_index,
        archive.shard.num_shards,
        archive.spec.name,
        archive.records.len(),
        out_path.display(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let fidelity = Fidelity::from_env();

    // Telemetry export: fail on an unwritable destination before the run,
    // then collect for the whole invocation and write at the end.  The
    // profile subcommand manages its own per-preset collection instead.
    let telemetry_on = options.metrics.is_some() || options.trace.is_some();
    if let Some(path) = &options.metrics {
        ensure_parent_dir(path);
    }
    if let Some(path) = &options.trace {
        ensure_parent_dir(path);
    }
    let is_profile = matches!(mode, Mode::Profile(_));
    if telemetry_on && !is_profile {
        telemetry::reset();
        telemetry::set_enabled(true);
    }
    let run_start = std::time::Instant::now();
    // Worker sidecar snapshots collected by the sharded paths, merged
    // into the fleet-wide `--metrics` document at the end of the run.
    let mut worker_metrics: Vec<telemetry::Snapshot> = Vec::new();

    match mode {
        Mode::ShardWorker => {
            // Workers are quiet children of a sharded campaign: no banner,
            // their stdout is the one summary line.
            run_shard_worker(&options);
        }
        Mode::ShardMerge(partials) => {
            run_shard_merge(&partials, &options);
        }
        Mode::ExportJson(input) => {
            run_export_json(&input, &options);
        }
        Mode::ShardPlanFiles(presets_named) => {
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); shards: {}\n",
                options.shards.unwrap_or(1)
            );
            run_shard_plan(&presets_named, fidelity, &options);
        }
        Mode::Campaign(presets_named) => {
            // When sharding without an explicit --workers, split the
            // machine across the concurrent worker processes instead of
            // giving each one every core (num_shards x all-cores threads
            // would thrash, not speed up).
            let workers = match options.shards {
                Some(num_shards) => options
                    .workers
                    .unwrap_or_else(|| (default_workers() / num_shards).max(1)),
                None => options.worker_threads(),
            };
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}{}\n",
                options
                    .shards
                    .map(|n| format!("; shards: {n}"))
                    .unwrap_or_default(),
            );
            run_campaigns(
                &presets_named,
                fidelity,
                &options,
                workers,
                &mut worker_metrics,
            );
        }
        Mode::Orchestrate(presets_named) => {
            let num_shards = options.shards.expect("checked at parse time");
            // Same core-splitting default as sharded campaign mode.
            let workers = options
                .workers
                .unwrap_or_else(|| (default_workers() / num_shards).max(1));
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}; \
                 shards: {num_shards} (orchestrated)\n"
            );
            run_orchestrate(
                &presets_named,
                fidelity,
                &options,
                workers,
                &mut worker_metrics,
            );
        }
        Mode::Profile(presets_named) => {
            // One worker by default: stages then run back-to-back, so
            // their totals track wall clock instead of overlapping.
            // Sharded profiles split the cores like sharded campaigns.
            let workers = match options.shards {
                Some(num_shards) => options
                    .workers
                    .unwrap_or_else(|| (default_workers() / num_shards).max(1)),
                None => options.workers.unwrap_or(1),
            };
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}{} \
                 (profiling)\n",
                options
                    .shards
                    .map(|n| format!("; shards: {n}"))
                    .unwrap_or_default(),
            );
            for preset in &presets_named {
                let result = match options.shards {
                    None => profile_campaign_preset(preset, fidelity, workers),
                    Some(num_shards) => std::env::current_exe()
                        .map_err(|e| format!("locating the shard-worker binary: {e}").into())
                        .and_then(|exe| {
                            let scratch = unique_scratch_dir(&format!("profile-{preset}"));
                            let result = profile_campaign_preset_sharded(
                                preset, fidelity, num_shards, workers, &exe, &scratch,
                            );
                            match result {
                                Ok(profile) => {
                                    let _ = std::fs::remove_dir_all(&scratch);
                                    Ok(profile)
                                }
                                Err(e) if scratch.exists() => Err(format!(
                                    "{e} (job files and partials kept in {})",
                                    scratch.display()
                                )
                                .into()),
                                Err(e) => Err(e),
                            }
                        }),
                };
                match result {
                    Ok(profile) => {
                        println!("{}", profile.table.render());
                        println!(
                            "stages account for {:.2} s of {:.2} s wall ({:.1}%)\n",
                            profile.stage_total_s,
                            profile.wall_s,
                            100.0 * profile.stage_total_s / profile.wall_s.max(f64::EPSILON),
                        );
                        write_telemetry_files(&options, &profile.snapshot, profile.wall_s);
                    }
                    Err(e) => fail(format_args!("profile {preset} failed: {e}")),
                }
            }
        }
        Mode::BenchDiff(old_path, new_path) => {
            let threshold = options.max_regress.unwrap_or(25.0);
            let read = |path: &Path| -> String {
                std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format_args!("reading {}: {e}", path.display())))
            };
            let (old_text, new_text) = (read(&old_path), read(&new_path));
            match bench_diff(&old_text, &new_text, threshold) {
                Ok(report) => {
                    println!("{}", report.table.render());
                    if !report.regressions.is_empty() {
                        fail(format_args!(
                            "{} bench regression(s) past {threshold}%: {}",
                            report.regressions.len(),
                            report.regressions.join("; ")
                        ));
                    }
                    println!("no bench regression past {threshold}%");
                }
                Err(e) => fail(e),
            }
        }
        Mode::Experiments(experiments) => {
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {}\n",
                options.worker_threads()
            );
            let selected: Vec<String> =
                if experiments.is_empty() || experiments.iter().any(|a| a == "all") {
                    vec![
                        "a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "rooms", "d1", "d3",
                        "d4", "d5", "d6",
                    ]
                    .into_iter()
                    .map(String::from)
                    .collect()
                } else {
                    experiments
                };
            let mut archives_ok = true;
            let mut experiments_ok = true;
            for experiment in &selected {
                let result = run_one(experiment, fidelity, &options, &mut archives_ok);
                match result {
                    Ok(output) => println!("{output}"),
                    Err(e) => {
                        eprintln!("experiment {experiment} failed: {e}");
                        experiments_ok = false;
                    }
                }
            }
            if !archives_ok || !experiments_ok {
                std::process::exit(1);
            }
        }
    }

    if telemetry_on && !is_profile {
        telemetry::set_enabled(false);
        let local = telemetry::snapshot();
        let wall_s = run_start.elapsed().as_secs_f64();
        // The metrics document is fleet-wide: the coordinator's snapshot
        // merged with every worker sidecar.  The Chrome trace stays
        // process-local by design (merging drops per-event detail), so it
        // is written from the coordinator's own snapshot.
        if let Some(path) = &options.metrics {
            let fleet = if worker_metrics.is_empty() {
                local.clone()
            } else {
                match merge_fleet_metrics(local.clone(), &worker_metrics) {
                    Ok(fleet) => fleet,
                    Err(e) => fail(e),
                }
            };
            if let Err(e) = write_metrics_file(path, &fleet, wall_s) {
                fail(e);
            }
            println!("metrics written to {}", path.display());
        }
        if let Some(path) = &options.trace {
            if let Err(e) = write_trace_file(path, &local) {
                fail(e);
            }
            println!("trace written to {}", path.display());
        }
    }
}

/// Writes the `--metrics` / `--trace` documents from a snapshot — shared
/// by the whole-invocation path and the per-preset profile subcommand.
fn write_telemetry_files(options: &Options, snapshot: &telemetry::Snapshot, wall_s: f64) {
    if let Some(path) = &options.metrics {
        if let Err(e) = write_metrics_file(path, snapshot, wall_s) {
            fail(e);
        }
        println!("metrics written to {}", path.display());
    }
    if let Some(path) = &options.trace {
        if let Err(e) = write_trace_file(path, snapshot) {
            fail(e);
        }
        println!("trace written to {}", path.display());
    }
}

fn run_one(
    name: &str,
    fidelity: Fidelity,
    options: &Options,
    archives_ok: &mut bool,
) -> ivc_core::Result<String> {
    Ok(match name {
        "a1" => {
            let (table, report) = fig_a1_leakage_vs_power(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a2" => {
            let (table, series, report) =
                fig_a2_accuracy_vs_distance(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            let mut out = table.render();
            for s in series {
                out.push_str(&format!(
                    "range at >= 0.8 accuracy [{}]: {:.1} m\n",
                    s.name,
                    s.last_x_with_y_at_least(0.8).unwrap_or(0.0)
                ));
            }
            out
        }
        "a3" => {
            let (table, report) = fig_a3_accuracy_vs_speakers(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a4" => {
            let (table, report) = fig_a4_leakage_vs_speakers(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "rooms" => {
            let (table, report) = fig_rooms_sweep(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a5" => {
            let (table, report) = tab_a5_range_per_device(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a6" => {
            let (table, report) = fig_a6_carrier_frequency(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b1" => {
            let (table, report) = tab_b1_range_vs_power(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b2" => {
            let (table, report) = fig_b2_spectrogram_triplet(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b3" => {
            let (table, reports) = tab_b3_success_rate(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(&reports, &options.archive);
            table.render()
        }
        "d1" | "d2" => {
            let (table, report) = fig_d1_d2_feature_separation(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d3" => {
            let (table, report) = fig_d3_roc(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d4" => {
            let (table, report) = tab_d4_detection_grid(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d5" => {
            let (table, reports) = fig_d5_noise_robustness(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(&reports, &options.archive);
            table.render()
        }
        "d6" => {
            let (table, report) = fig_d6_adaptive_attacker(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        other => return Err(format!("unknown experiment id '{other}'").into()),
    })
}
