//! The campaign workloads: `room-sweep` and `trial-repeat` run in this
//! process through `run_campaign`; `fleet` runs the `trial-repeat` spec
//! through `orchestrate` with forked `repro shard-worker` processes.

use crate::layers::{self, Layers};
use crate::measure::{digest, median, percentile, ratio, repeat_for, Rep};
use ivc_core::json::JsonValue;
use ivc_core::telemetry::Snapshot;
use ivc_core::{prepare_cache, PrepareContext};
use ivc_experiments::prelude::*;
use ivc_speech::recognizer::Recognizer;
use std::hint::black_box;
use std::path::Path;
use std::result::Result;
use std::time::Instant;

/// Set-up samples taken per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 3;

/// Timings of the one-time set-up a campaign process pays: corpus
/// enrollment, detector training and the Prepare context.
pub struct Setup {
    pub total_s: Vec<f64>,
    pub recognizer_s: Vec<f64>,
    pub detector_train_s: Vec<f64>,
}

/// Performs the set-up `samples` times from scratch (the program's own
/// memos are bypassed by calling the constructors directly).
pub fn time_setup(detector: Option<&DetectorSpec>, samples: usize) -> Result<Setup, String> {
    let mut setup = Setup {
        total_s: Vec::new(),
        recognizer_s: Vec::new(),
        detector_train_s: Vec::new(),
    };
    for _ in 0..samples {
        let start = Instant::now();
        let recognizer = Recognizer::with_default_corpus().map_err(|e| e.to_string())?;
        let enrolled = Instant::now();
        let model = detector
            .map(train_detector_model)
            .transpose()
            .map_err(|e| e.to_string())?;
        let trained = Instant::now();
        let ctx = PrepareContext::new().map_err(|e| e.to_string())?;
        let done = Instant::now();
        black_box((recognizer, model, ctx));
        setup.total_s.push((done - start).as_secs_f64());
        setup.recognizer_s.push((enrolled - start).as_secs_f64());
        setup
            .detector_train_s
            .push((trained - enrolled).as_secs_f64());
    }
    Ok(setup)
}

impl Setup {
    pub fn record(&self, layers: &mut Layers) {
        layers.set("setup.recognizer_s", median(&self.recognizer_s));
        layers.set("setup.detector_train_s", median(&self.detector_train_s));
    }
}

/// Whether a campaign result matches the reference digest of its JSON
/// bytes; mismatches and errors are reported on stderr.
fn report_matches(result: ivc_experiments::Result<CampaignReport>, reference: &str) -> bool {
    match result {
        Ok(report) => {
            let got = digest(report.to_json_string().as_bytes());
            if got != reference {
                eprintln!("output check failed: report digest {got}, expected {reference}");
            }
            got == reference
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            false
        }
    }
}

/// What the in-process timed phase saw of the Prepare cache.
pub struct InProcess {
    pub reps: Vec<Rep>,
    /// Largest live-entry count right after the per-campaign `clear()`:
    /// 0 proves every campaign started cold.
    pub entries_at_start: usize,
    /// Largest cache footprint at the end of a campaign, in bytes.
    pub peak_cache_bytes: usize,
}

/// Runs `spec` on `workers` threads, one cold-cache campaign after another,
/// for at least `seconds`, checking every report against `reference`.
pub fn run_in_process(
    spec: &CampaignSpec,
    workers: usize,
    reference: &str,
    seconds: f64,
) -> InProcess {
    let mut entries_at_start = 0;
    let mut peak_cache_bytes = 0;
    let reps = repeat_for(seconds, || {
        prepare_cache::clear();
        entries_at_start = entries_at_start.max(prepare_cache::stats().entries);
        let start = Instant::now();
        let result = run_campaign(spec, workers);
        let seconds = start.elapsed().as_secs_f64();
        peak_cache_bytes = peak_cache_bytes.max(prepare_cache::stats().bytes);
        Rep {
            items: spec.num_trials(),
            seconds,
            ok: report_matches(result, reference),
        }
    });
    InProcess {
        reps,
        entries_at_start,
        peak_cache_bytes,
    }
}

impl InProcess {
    /// Per-layer metrics of a traced phase whose telemetry is `snapshot`.
    pub fn record(&self, snapshot: &Snapshot, layers: &mut Layers) -> String {
        layers.campaign(snapshot, self.reps.len());
        layers.set("prepare_cache.peak_mb", self.peak_cache_bytes as f64 / 1e6);
        layers.set(
            "prepare_cache.entries_at_start",
            self.entries_at_start as f64,
        );
        let wall_s: f64 = self.reps.iter().map(|r| r.seconds).sum();
        let coverage = ratio(layers::covered_seconds(snapshot), wall_s);
        layers.set("trace.coverage", coverage);
        layers::coverage_line(snapshot, wall_s, coverage)
    }
}

/// What one orchestrated campaign left behind in its scratch directory.
pub struct FleetObservation {
    /// Fleet-merged worker telemetry.
    pub workers: Snapshot,
    /// Each worker's set-up seconds (enrollment, context, training).
    pub setup_s: Vec<f64>,
    /// Sum of the workers' `run_shard` wall clocks.
    pub worker_wall_s: f64,
    /// Per-shard issue-to-checkpoint seconds, from the run manifest.
    pub shard_s: Vec<f64>,
    pub attempts_per_shard: f64,
    pub orchestrate_s: f64,
}

/// Runs `spec` as [`crate::inputs::FLEET_SHARDS`] forked `repro
/// shard-worker` processes (one worker thread each) under `orchestrate`,
/// one fresh scratch directory per campaign, for at least `seconds`.
/// Workers always write telemetry sidecars, so every campaign is traced;
/// the sidecars and the run manifest are read after the campaign's clock
/// stops.  A campaign whose sidecars or manifest are missing fails.
pub fn run_fleet(
    spec: &CampaignSpec,
    repro: &Path,
    work_dir: &Path,
    reference: &str,
    seconds: f64,
) -> (Vec<Rep>, Vec<FleetObservation>) {
    let mut observations = Vec::new();
    let mut next = 0;
    let reps = repeat_for(seconds, || {
        let dir = work_dir.join(format!("fleet-{next}"));
        next += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let config = OrchestratorConfig::new(crate::inputs::FLEET_SHARDS);
        let mut launcher = ProcessLauncher::new(repro, 1);
        let start = Instant::now();
        let result = orchestrate(spec, &config, &dir, &mut launcher, &mut std::io::sink());
        let orchestrate_s = start.elapsed().as_secs_f64();
        let ok = match result {
            Ok(run) => {
                let observed = match observe_fleet(spec, &dir, &run.stats, orchestrate_s) {
                    Ok(observation) => {
                        observations.push(observation);
                        true
                    }
                    Err(e) => {
                        eprintln!("fleet telemetry unreadable: {e}");
                        false
                    }
                };
                report_matches(Ok(run.report), reference) && observed
            }
            Err(e) => report_matches(Err(e), reference),
        };
        let _ = std::fs::remove_dir_all(&dir);
        Rep {
            items: spec.num_trials(),
            seconds: orchestrate_s,
            ok,
        }
    });
    (reps, observations)
}

fn observe_fleet(
    spec: &CampaignSpec,
    dir: &Path,
    stats: &OrchestratorStats,
    orchestrate_s: f64,
) -> Result<FleetObservation, String> {
    let plan =
        ShardPlan::partition(spec, crate::inputs::FLEET_SHARDS).map_err(|e| e.to_string())?;
    let mut workers: Option<Snapshot> = None;
    let mut setup_s = Vec::new();
    let mut worker_wall_s = 0.0;
    for shard in &plan.shards {
        let sidecar = metrics_sidecar_path(&dir.join(shard_archive_file_name_with(
            &spec.name,
            shard,
            PartialFormat::Columns,
        )));
        let text =
            std::fs::read_to_string(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| e.to_string())?;
        worker_wall_s += doc.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let snapshot = Snapshot::from_metrics_json(&doc).map_err(|e| e.to_string())?;
        setup_s.push(layers::setup_seconds(&snapshot));
        match &mut workers {
            Some(merged) => merged.merge(&snapshot),
            None => workers = Some(snapshot),
        }
    }
    let manifest = std::fs::read_to_string(dir.join(manifest_file_name(&spec.name)))
        .map_err(|e| format!("run manifest: {e}"))?;
    let mut issued = vec![None; plan.shards.len()];
    let mut done = vec![None; plan.shards.len()];
    for line in manifest.lines() {
        let event = JsonValue::parse(line).map_err(|e| e.to_string())?;
        let field = |name: &str| event.get(name).and_then(JsonValue::as_f64);
        let (Some(shard), Some(t_s)) = (field("shard"), field("t_s")) else {
            continue;
        };
        let slot = match event.get("kind").and_then(JsonValue::as_str) {
            Some("shard_issued") => &mut issued,
            Some("shard_done") => &mut done,
            _ => continue,
        };
        if let Some(entry) = slot.get_mut(shard as usize) {
            entry.get_or_insert(t_s);
        }
    }
    let shard_s = issued
        .iter()
        .zip(&done)
        .map(|(start, end)| match (start, end) {
            (Some(start), Some(end)) => Ok(end - start),
            _ => Err("manifest lacks a shard's issue or completion".to_string()),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(FleetObservation {
        workers: workers.ok_or("no shards")?,
        setup_s,
        worker_wall_s,
        shard_s,
        attempts_per_shard: ratio(stats.launched as f64, stats.shards as f64),
        orchestrate_s,
    })
}

/// Per-layer metrics of the traced fleet phase: worker telemetry merged
/// over every campaign, straggler and coordinator gaps from the manifests.
pub fn record_fleet(observations: &[FleetObservation], layers: &mut Layers) -> String {
    let Some(first) = observations.first() else {
        return "coverage: no fleet telemetry was collected".to_string();
    };
    let mut workers = first.workers.clone();
    for observation in &observations[1..] {
        workers.merge(&observation.workers);
    }
    layers.campaign(&workers, observations.len());
    let mean_s = |name: &str| workers.span(name).map_or(0.0, |s| s.mean_ns() as f64 / 1e9);
    layers.set("setup.recognizer_s", mean_s("campaign.setup"));
    layers.set("setup.detector_train_s", mean_s("campaign.detector_train"));
    let worker_wall_s: f64 = observations.iter().map(|o| o.worker_wall_s).sum();
    layers.set(
        "fleet.worker_setup_share",
        ratio(layers::setup_seconds(&workers), worker_wall_s),
    );
    let per_campaign = |f: &dyn Fn(&FleetObservation) -> f64| {
        median(&observations.iter().map(f).collect::<Vec<_>>())
    };
    layers.set(
        "fleet.shard_max_over_p50",
        per_campaign(&|o| ratio(percentile(&o.shard_s, 1.0), median(&o.shard_s))),
    );
    layers.set(
        "fleet.coordinator_overhead_s",
        per_campaign(&|o| o.orchestrate_s - percentile(&o.shard_s, 1.0)),
    );
    layers.set(
        "fleet.attempts_per_shard",
        per_campaign(&|o| o.attempts_per_shard),
    );
    // The shards run side by side, so each one's named layers are set
    // against the coordinator's wall clock: coverage is their mean share.
    let orchestrate_s: f64 = observations.iter().map(|o| o.orchestrate_s).sum();
    let per_shard_named_s =
        layers::top_level_seconds(&workers) / crate::inputs::FLEET_SHARDS as f64;
    let coverage = ratio(per_shard_named_s, orchestrate_s);
    layers.set("trace.coverage", coverage);
    layers::coverage_line(&workers, orchestrate_s, coverage)
}
