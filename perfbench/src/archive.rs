//! The archive codec probe of the `fleet` workload's traced run: seeded
//! synthetic trial records go through the coordinator's write and read
//! paths with no DSP at all — columnar partials saved, streamed back
//! through the merge, the report archived as JSON and loaded again.  The
//! fleet's own archives hold too few trials for these costs to show.

use crate::inputs::{archive_spec, synthetic_partials};
use crate::layers::Layers;
use crate::measure::{digest, median, ratio, repeat_for, Rep};
use ivc_experiments::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records round-tripped per unit.  When this benchmark was written,
/// report decoding was quadratic in the archive's size; at this size a
/// round trip takes one to three seconds, nearly all of it decode.
pub const RECORDS: usize = 512;

/// The inputs of the probe: partials in memory and the reference merge.
struct Inputs {
    spec: CampaignSpec,
    partials: Vec<ShardArchive>,
    /// The in-memory merge of `partials` and its archived JSON bytes.
    expected: CampaignReport,
    expected_json: String,
}

/// Builds the seeded records, their partials and the reference report.
fn setup(seed: u64, records: usize) -> ivc_experiments::Result<Inputs> {
    let spec = archive_spec(seed, records);
    let partials = synthetic_partials(&spec, seed)?;
    let expected = merge_shards(partials.clone())?;
    let expected_json = expected.to_json_string();
    Ok(Inputs {
        spec,
        partials,
        expected,
        expected_json,
    })
}

/// Split timings of one round trip.
#[derive(Default)]
struct Split {
    partial_encode_s: f64,
    partial_decode_s: f64,
    absorb_s: f64,
    finish_s: f64,
    report_encode_s: f64,
    report_decode_s: f64,
    partial_bytes: u64,
    report_bytes: u64,
}

/// Round-trips the probe's inputs for at least `seconds` and records the
/// median time of each codec layer.  The merge runs as its constituent
/// public calls (`ShardArchive::load` + `ShardMerger`) so decode and
/// absorb are timed apart; `merge_shard_files` does exactly these steps.
pub fn run(
    seed: u64,
    dir: &Path,
    seconds: f64,
    layers: &mut Layers,
) -> ivc_experiments::Result<Vec<Rep>> {
    let inputs = setup(seed, RECORDS)?;
    let trials = inputs.spec.num_trials();
    let mut splits = Vec::new();
    let reps = repeat_for(seconds, || {
        let start = Instant::now();
        let mut times = Split::default();
        let outcome = round_trip(&inputs, dir, &mut times);
        let seconds = start.elapsed().as_secs_f64();
        let ok = match outcome {
            Ok((merged, loaded)) => matches_reference(&inputs, &merged, &loaded),
            Err(e) => {
                eprintln!("archive round trip failed: {e}");
                false
            }
        };
        splits.push(times);
        Rep {
            items: trials,
            seconds,
            ok,
        }
    });
    let med = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let trials = trials as f64;
    layers.set("partial.encode_s", med(|s| s.partial_encode_s));
    layers.set("partial.decode_s", med(|s| s.partial_decode_s));
    layers.set("merge.absorb_s", med(|s| s.absorb_s));
    layers.set("merge.finish_s", med(|s| s.finish_s));
    layers.set("report.encode_s", med(|s| s.report_encode_s));
    layers.set("report.decode_s", med(|s| s.report_decode_s));
    layers.set(
        "partial.bytes_per_trial",
        med(|s| s.partial_bytes as f64) / trials,
    );
    layers.set(
        "report.bytes_per_trial",
        med(|s| s.report_bytes as f64) / trials,
    );
    Ok(reps)
}

fn partial_path(dir: &Path, spec: &CampaignSpec, shard: &ShardRange) -> PathBuf {
    dir.join(shard_archive_file_name_with(
        &spec.name,
        shard,
        PartialFormat::Columns,
    ))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One round trip, timed into `times`; returns the merged report and the
/// report loaded back.
fn round_trip(
    inputs: &Inputs,
    dir: &Path,
    times: &mut Split,
) -> ivc_experiments::Result<(CampaignReport, CampaignReport)> {
    let lap = |since: &mut Instant| {
        let now = Instant::now();
        let seconds = (now - *since).as_secs_f64();
        *since = now;
        seconds
    };
    let mut clock = Instant::now();
    let paths: Vec<PathBuf> = inputs
        .partials
        .iter()
        .map(|partial| {
            let path = partial_path(dir, &inputs.spec, &partial.shard);
            partial.save(&path).map(|()| path)
        })
        .collect::<ivc_experiments::Result<_>>()?;
    times.partial_encode_s = lap(&mut clock);
    times.partial_bytes = paths.iter().map(|p| file_len(p)).sum();
    let mut merger = ShardMerger::new(inputs.spec.clone())?;
    for path in &paths {
        lap(&mut clock);
        let shard = ShardArchive::load(path)?;
        times.partial_decode_s += lap(&mut clock);
        merger.absorb(shard)?;
        times.absorb_s += lap(&mut clock);
    }
    let merged = merger.finish()?;
    times.finish_s = lap(&mut clock);
    let report_path = dir.join("archive-roundtrip.report.json");
    lap(&mut clock);
    merged.save(&report_path)?;
    times.report_encode_s = lap(&mut clock);
    let loaded = CampaignReport::load(&report_path)?;
    times.report_decode_s = lap(&mut clock);
    times.report_bytes = file_len(&report_path);
    Ok((merged, loaded))
}

/// The output check: the loaded report re-encodes to exactly the bytes
/// of the in-memory merge, and its per-cell statistics equal that merge's.
fn matches_reference(inputs: &Inputs, merged: &CampaignReport, loaded: &CampaignReport) -> bool {
    let reencoded = loaded.to_json_string();
    let bytes_ok = reencoded == inputs.expected_json;
    let stats_ok = loaded.cells.len() == inputs.expected.cells.len()
        && loaded
            .cells
            .iter()
            .zip(&inputs.expected.cells)
            .all(|(got, want)| got.stats == want.stats);
    let merge_ok = *merged == inputs.expected;
    if !(bytes_ok && stats_ok && merge_ok) {
        eprintln!(
            "output check failed: re-encoded {} vs expected {}, stats equal {stats_ok}, \
             merge equal {merge_ok}",
            digest(reencoded.as_bytes()),
            digest(inputs.expected_json.as_bytes())
        );
    }
    bytes_ok && stats_ok && merge_ok
}

/// Report decode time at twice `records` over the decode time at
/// `records`, each loaded once: 2.0 is linear.
pub fn decode_growth(seed: u64, records: usize, dir: &Path) -> ivc_experiments::Result<f64> {
    let decode_s = |records: usize| {
        let inputs = setup(seed, records)?;
        let path = dir.join("growth.report.json");
        inputs.expected.save(&path)?;
        let start = Instant::now();
        let loaded = CampaignReport::load(&path)?;
        let seconds = start.elapsed().as_secs_f64();
        if loaded != inputs.expected {
            return Err(ExperimentError::Merge(format!(
                "the {records}-record report did not load back equal"
            )));
        }
        Ok(seconds)
    };
    Ok(ratio(decode_s(2 * records)?, decode_s(records)?))
}
