//! The end-to-end campaign benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --repro PATH
//! perfbench record-references FIRST_SEED LAST_SEED
//! ```
//!
//! One invocation sets up, runs the named workload's timed phase in a
//! closed loop (one caller waiting for each result) for at least `S`
//! seconds, checks every output, and prints its metrics — the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1` — ending
//! with one JSON line.  `run.sh` builds this binary and `repro` (the
//! fleet's worker) and passes `--repro`.  See `README.md` for the
//! workloads and metrics.

mod archive;
mod campaign;
mod inputs;
mod layers;
mod measure;

use ivc_core::telemetry;
use ivc_experiments::prelude::*;
use layers::Layers;
use measure::{digest, median, median_rate, peak_rss_mb, ratio, Metrics, Rep};
use std::path::{Path, PathBuf};
use std::result::Result;

/// Report digests of the in-process, 1-worker run, per workload and seed
/// (`workload<TAB>seed<TAB>digest`), from `record-references`.
const REFERENCES: &str = include_str!("../references.tsv");

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    RoomSweep,
    TrialRepeat,
    Fleet,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("room-sweep", Workload::RoomSweep),
        ("trial-repeat", Workload::TrialRepeat),
        ("fleet", Workload::Fleet),
    ];

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut repro = None;
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--repro" => repro = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be a positive number".to_string());
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            repro,
        })
    }
}

/// What one invocation reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    notes: Vec<String>,
}

impl Outcome {
    fn new(reps: &[&[Rep]], metrics: Metrics) -> Outcome {
        let all = reps.iter().flat_map(|r| r.iter());
        let attempted = all.clone().map(|r| r.items).sum();
        let failed = all.filter(|r| !r.ok).map(|r| r.items).sum();
        Outcome {
            attempted,
            failed,
            metrics,
            notes: Vec::new(),
        }
    }
}

/// The end-to-end metrics of an untraced timed phase.
fn end_to_end(reps: &[Rep], setup_s: &[f64]) -> Metrics {
    let attempted: usize = reps.iter().map(|r| r.items).sum();
    let completed: usize = reps.iter().filter(|r| r.ok).map(|r| r.items).sum();
    let mut metrics = Metrics::default();
    metrics.push("trials_per_s", median_rate(reps), "1/s");
    metrics.push("setup_s", median(setup_s), "s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.push(
        "completed_fraction",
        ratio(completed as f64, attempted as f64),
        "ratio",
    );
    metrics
}

/// The reference report digest for `workload` at `seed`: the recorded one,
/// or — for a seed outside the table — the in-process 1-worker run's,
/// computed now (untimed).
fn reference_digest(workload: &str, seed: u64, spec: &CampaignSpec) -> Result<String, String> {
    let recorded = REFERENCES.lines().find_map(|line| {
        let mut fields = line.split('\t');
        (fields.next() == Some(workload) && fields.next() == Some(&seed.to_string()))
            .then(|| fields.next().map(str::to_string))
            .flatten()
    });
    match recorded {
        Some(reference) => Ok(reference),
        None => {
            eprintln!(
                "no recorded reference for {workload} seed {seed}; computing it with 1 worker"
            );
            let report = run_campaign(spec, 1).map_err(|e| e.to_string())?;
            Ok(digest(report.to_json_string().as_bytes()))
        }
    }
}

/// Runs the telemetry-traced copy of a timed phase.
fn traced<T>(phase: impl FnOnce() -> T) -> (T, telemetry::Snapshot) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let result = phase();
    telemetry::set_enabled(false);
    (result, telemetry::snapshot())
}

fn in_process(options: &Options) -> Result<Outcome, String> {
    let (name, spec) = match options.workload {
        Workload::RoomSweep => ("room-sweep", inputs::room_sweep(options.seed)),
        _ => ("trial-repeat", inputs::trial_repeat(options.seed)),
    };
    let workers = default_workers().min(2);
    let setup = campaign::time_setup(spec.detectors[0].as_ref(), campaign::SETUP_SAMPLES)?;
    run_campaign(&inputs::warm_up(&spec), workers).map_err(|e| format!("warm-up: {e}"))?;
    let reference = reference_digest(name, options.seed, &spec)?;
    let untraced = campaign::run_in_process(&spec, workers, &reference, options.seconds);
    if !options.trace {
        let metrics = end_to_end(&untraced.reps, &setup.total_s);
        return Ok(Outcome::new(&[&untraced.reps], metrics));
    }
    let (traced, snapshot) =
        traced(|| campaign::run_in_process(&spec, workers, &reference, options.seconds));
    let mut layers = Layers::default();
    let line = traced.record(&snapshot, &mut layers);
    setup.record(&mut layers);
    layers.set(
        "trace.overhead_trials_per_s",
        median_rate(&traced.reps) - median_rate(&untraced.reps),
    );
    let mut outcome = Outcome::new(&[&untraced.reps, &traced.reps], layers.into_metrics());
    outcome.notes.push(line);
    Ok(outcome)
}

fn fleet(options: &Options, work_dir: &Path) -> Result<Outcome, String> {
    let repro = options
        .repro
        .as_ref()
        .ok_or("the fleet workload needs --repro (run it through run.sh)")?;
    let repro = repro
        .canonicalize()
        .map_err(|e| format!("{}: {e}", repro.display()))?;
    let spec = inputs::trial_repeat(options.seed);
    let reference = reference_digest("trial-repeat", options.seed, &spec)?;
    let (reps, observations) =
        campaign::run_fleet(&spec, &repro, work_dir, &reference, options.seconds);
    if !options.trace {
        // The fleet's set-up happens inside each worker process: its
        // samples are every worker's set-up spans.
        let setup_s: Vec<f64> = observations
            .iter()
            .flat_map(|o| o.setup_s.clone())
            .collect();
        return Ok(Outcome::new(&[&reps], end_to_end(&reps, &setup_s)));
    }
    // Workers trace in every run, so this one phase is both the traced
    // and the untraced one: the tracing overhead is already inside
    // `trials_per_s`, and `trace.overhead_trials_per_s` reads 0.
    let mut layers = Layers::default();
    let line = campaign::record_fleet(&observations, &mut layers);
    let probe = archive::run(options.seed, work_dir, options.seconds, &mut layers)
        .map_err(|e| format!("archive probe: {e}"))?;
    let growth = archive::decode_growth(options.seed, archive::RECORDS, work_dir)
        .map_err(|e| format!("decode growth: {e}"))?;
    layers.set("report.decode_growth", growth);
    let mut outcome = Outcome::new(&[&reps, &probe], layers.into_metrics());
    outcome.notes.push(line);
    Ok(outcome)
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run(options: &Options) -> Result<Outcome, String> {
    let work_dir = WorkDir::create()?;
    match options.workload {
        Workload::RoomSweep | Workload::TrialRepeat => in_process(options),
        Workload::Fleet => fleet(options, &work_dir.0),
    }
}

/// Prints the reference digests of both in-process campaign workloads
/// for every seed in `[first, last]`, in the `references.tsv` format.
fn record_references(first: u64, last: u64) -> Result<(), String> {
    for seed in first..=last {
        for (name, spec) in [
            ("room-sweep", inputs::room_sweep(seed)),
            ("trial-repeat", inputs::trial_repeat(seed)),
        ] {
            let report = run_campaign(&spec, 1).map_err(|e| e.to_string())?;
            println!(
                "{name}\t{seed}\t{}",
                digest(report.to_json_string().as_bytes())
            );
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record-references") {
        let seed = |i: usize| args.get(i).and_then(|s| s.parse::<u64>().ok());
        let result = match (seed(1), seed(2)) {
            (Some(first), Some(last)) => record_references(first, last),
            _ => Err("usage: perfbench record-references FIRST_SEED LAST_SEED".to_string()),
        };
        if let Err(e) = result {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = outcome.failed == 0 && outcome.metrics.all_finite();
    print!("{}", outcome.metrics.human_lines());
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_core::JsonValue;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|metric| {
                let field = |f: &str| {
                    metric
                        .get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let e2e = end_to_end(&[], &[1.0]);
        let names: Vec<String> = e2e.names().map(str::to_string).collect();
        let declared_e2e: Vec<String> =
            declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, declared_e2e);
        let per_layer: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn options_parse_the_benchmark_command_line() {
        let args: Vec<String> = "--workload fleet --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let options = Options::parse(&args).unwrap();
        assert_eq!(options.workload, Workload::Fleet);
        assert_eq!(options.seed, 3);
        assert!(options.trace);
        assert!(Options::parse(&args[..6]).is_err());
        assert!(Workload::parse("nope").is_err());
    }

    #[test]
    fn references_are_well_formed() {
        for line in REFERENCES.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 3, "{line}");
            assert!(["room-sweep", "trial-repeat"].contains(&fields[0]));
            assert!(fields[1].parse::<u64>().is_ok());
            assert!(fields[2].contains(':'));
        }
    }
}
