//! The set-up bundle across real worker processes: two back-to-back
//! orchestrated campaigns in one coordinator process.  The first run's
//! workers enroll and train for themselves and return their set-up; the
//! second run's workers load the bundle the coordinator ships instead.
//! Both archives must be byte-identical to a run that never saw a bundle.
//!
//! This file is its own test binary on purpose: the coordinator's
//! recogniser and detector memos are process-wide, and the first run must
//! start with them empty.

use ivc_core::json::JsonValue;
use ivc_experiments::orchestrate::{
    orchestrate, OrchestratorConfig, ProcessLauncher, ThreadLauncher,
};
use ivc_experiments::setup::{setup_file_name, SetupBundle};
use ivc_experiments::shard::{
    merge_shards, metrics_sidecar_path, shard_archive_file_name, shard_job_file_name, ShardArchive,
    ShardPlan,
};
use ivc_experiments::{manifest_file_name, run_campaign, CampaignSpec, DeliverySpec, DetectorSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

/// 2 cells × 2 trials scored by a tiny trained detector.
fn spec() -> CampaignSpec {
    CampaignSpec {
        detectors: vec![Some(DetectorSpec {
            label: "tiny detector".to_string(),
            distances_m: vec![1.5],
            num_speaker_variants: 3,
            command_indices: vec![0],
            max_voice_duration_s: 0.6,
            ..DetectorSpec::standard(true)
        })],
        deliveries: vec![
            DeliverySpec::legitimate("talker 68 dB", 68.0),
            DeliverySpec::array("6-element array, 60 W", 6, 60.0, 40_000.0),
        ],
        distances_m: vec![1.0],
        trials_per_cell: 2,
        base_seed: 11,
        max_voice_duration_s: 0.6,
        ..CampaignSpec::new("setup-fleet")
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ivc-setup-fleet-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The whole campaign as one shard in a fresh worker process with no
/// bundle: the in-process result, computed where this process's memos
/// cannot reach it.
fn fresh_process_report(spec: &CampaignSpec, dir: &Path) -> String {
    let plan = ShardPlan::partition(spec, 1).unwrap();
    let job = &plan.jobs()[0];
    let job_path = dir.join(shard_job_file_name(&spec.name, &job.shard));
    let out_path = dir.join("whole.bin");
    job.save(&job_path).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["shard-worker", "--workers", "2", "--job"])
        .arg(&job_path)
        .arg("--out")
        .arg(&out_path)
        .status()
        .unwrap();
    assert!(status.success(), "fresh worker failed: {status}");
    let partial = ShardArchive::load(&out_path).unwrap();
    merge_shards(vec![partial]).unwrap().to_json_string()
}

fn manifest_kinds(dir: &Path, spec: &CampaignSpec) -> Vec<String> {
    std::fs::read_to_string(dir.join(manifest_file_name(&spec.name)))
        .unwrap()
        .lines()
        .map(|line| {
            JsonValue::parse(line)
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// How many of the run's shard workers loaded a shipped bundle, from the
/// `setup.bundle_loaded` counter of their telemetry sidecars.
fn workers_that_loaded_a_bundle(dir: &Path, spec: &CampaignSpec, shards: usize) -> usize {
    let plan = ShardPlan::partition(spec, shards).unwrap();
    plan.shards
        .iter()
        .filter(|shard| {
            let sidecar =
                metrics_sidecar_path(&dir.join(shard_archive_file_name(&spec.name, shard)));
            let doc = JsonValue::parse(&std::fs::read_to_string(&sidecar).unwrap()).unwrap();
            doc.get("counters")
                .and_then(JsonValue::as_array)
                .is_some_and(|counters| {
                    counters.iter().any(|c| {
                        c.get("name").and_then(JsonValue::as_str) == Some("setup.bundle_loaded")
                    })
                })
        })
        .count()
}

fn leftover_setup_sidecars(dir: &Path, spec: &CampaignSpec) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".setup.bin") && *n != setup_file_name(&spec.name))
        .collect()
}

#[test]
fn second_campaign_workers_load_the_bundle_and_the_bytes_do_not_move() {
    let spec = spec();
    let baseline_dir = scratch_dir("baseline");
    let baseline = fresh_process_report(&spec, &baseline_dir);
    assert!(
        SetupBundle::from_memos(&spec, &[0]).is_none(),
        "this process must start without a recogniser"
    );
    let config = OrchestratorConfig::new(2);
    let mut reports = Vec::new();
    let mut dirs = Vec::new();
    for run in ["first", "second"] {
        let dir = scratch_dir(run);
        let mut launcher = ProcessLauncher::new(env!("CARGO_BIN_EXE_repro"), 1);
        let mut status = Vec::new();
        let outcome = orchestrate(&spec, &config, &dir, &mut launcher, &mut status)
            .unwrap_or_else(|e| panic!("{run} run: {e}\n{}", String::from_utf8_lossy(&status)));
        reports.push(outcome.report.to_json_string());
        dirs.push(dir);
    }

    // First run: nothing to ship at the start, so every worker built its
    // own set-up and the coordinator absorbed the first returned copy.
    let first = manifest_kinds(&dirs[0], &spec);
    let position = |kinds: &[String], kind: &str| kinds.iter().position(|k| k == kind);
    assert!(position(&first, "setup_absorbed").is_some(), "{first:?}");
    assert_eq!(workers_that_loaded_a_bundle(&dirs[0], &spec, 2), 0);
    let bundle = SetupBundle::from_memos(&spec, &[0]).expect("absorbed recogniser");
    assert_eq!(bundle.detectors().len(), 1, "absorbed detector");

    // Second run: every worker loaded the shipped bundle and none had
    // anything to return.
    let second = manifest_kinds(&dirs[1], &spec);
    assert_eq!(position(&second, "setup_absorbed"), None, "{second:?}");
    assert!(dirs[1].join(setup_file_name(&spec.name)).exists());
    assert_eq!(workers_that_loaded_a_bundle(&dirs[1], &spec, 2), 2);
    for dir in &dirs {
        assert!(
            leftover_setup_sidecars(dir, &spec).is_empty(),
            "{:?}",
            leftover_setup_sidecars(dir, &spec)
        );
    }

    assert_eq!(
        reports[0], baseline,
        "cold workers changed the archive bytes"
    );
    assert_eq!(
        reports[1], baseline,
        "the shipped bundle changed the archive bytes"
    );
    // The coordinator's absorbed set-up scores in-process runs identically,
    // and thread workers, which share it, get no bundle file.
    assert_eq!(run_campaign(&spec, 2).unwrap().to_json_string(), baseline);
    let thread_dir = scratch_dir("threads");
    let mut status = Vec::new();
    let outcome = orchestrate(
        &spec,
        &config,
        &thread_dir,
        &mut ThreadLauncher::new(1),
        &mut status,
    )
    .unwrap();
    assert_eq!(outcome.report.to_json_string(), baseline);
    assert!(!thread_dir.join(setup_file_name(&spec.name)).exists());
    for dir in dirs.iter().chain([&baseline_dir, &thread_dir]) {
        std::fs::remove_dir_all(dir).ok();
    }
}
