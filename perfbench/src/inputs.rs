//! Seeded workload inputs.
//!
//! The benchmark seed is the only source of variation: campaign workloads
//! map it to the spec's `base_seed`, and the archive probe draws its
//! synthetic trial records from it.  The program under test only ever sees
//! the generated specs and records.

use ivc_acoustics::microphone::DevicePreset;
use ivc_defense::features::DefenseFeatures;
use ivc_experiments::prelude::*;
use ivc_room::RoomPreset;
use ivc_speech::commands::corpus;

/// Trials per cell of `trial-repeat` (and `fleet`, which runs the same spec).
pub const REPEAT_TRIALS_PER_CELL: usize = 24;
/// Shards of the `fleet` workload, one worker thread each.
pub const FLEET_SHARDS: usize = 2;
/// Cells of the archive probe's campaign.
pub const ARCHIVE_CELLS: usize = 32;
/// Partial archives the archive probe's records are split into.
pub const ARCHIVE_PARTIALS: usize = 16;
/// Voice-duration cap of the campaign workloads, in seconds (the quick
/// fidelity the paper presets use).
const VOICE_CAP_S: f64 = 1.1;

/// The campaign `base_seed` for a benchmark seed.  The multiplier is odd,
/// so distinct seeds always give distinct base seeds, and small seeds sit
/// far enough apart that their per-trial seeds never overlap.
pub fn base_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1001).wrapping_add(1)
}

/// `room-sweep`: four room presets x three distances x two attack
/// deliveries, one trial per cell, no detector.
pub fn room_sweep(seed: u64) -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::array("array (12 elements, 100 W)", 12, 100.0, 40_000.0),
            DeliverySpec::single_speaker("single speaker, 18.7 W", 18.7, 40_000.0),
        ],
        rooms: vec![
            Some(RoomPreset::Office),
            Some(RoomPreset::ConferenceRoom),
            Some(RoomPreset::Corridor),
            Some(RoomPreset::ThroughDoorway),
        ],
        distances_m: vec![1.0, 2.0, 3.0],
        base_seed: base_seed(seed),
        max_voice_duration_s: VOICE_CAP_S,
        ..CampaignSpec::new("room-sweep")
    }
}

/// `trial-repeat` (and `fleet`): two devices x one 8-element 60 W array at
/// 2 m, many trials per cell, scored by the standard detector.
pub fn trial_repeat(seed: u64) -> CampaignSpec {
    CampaignSpec {
        detectors: vec![Some(DetectorSpec::standard(true))],
        devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
        deliveries: vec![DeliverySpec::array(
            "array (8 elements, 60 W)",
            8,
            60.0,
            40_000.0,
        )],
        distances_m: vec![2.0],
        trials_per_cell: REPEAT_TRIALS_PER_CELL,
        base_seed: base_seed(seed),
        max_voice_duration_s: VOICE_CAP_S,
        ..CampaignSpec::new("trial-repeat")
    }
}

/// The warm-up campaign run before the timed phase: it fills the
/// process-wide recognizer and detector memos of `timed` and touches every
/// pipeline stage, but shares no Prepare product with it (another command,
/// room and distance, so every cache key differs).
pub fn warm_up(timed: &CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        detectors: timed.detectors.clone(),
        deliveries: timed.deliveries.clone(),
        rooms: vec![Some(RoomPreset::Anechoic)],
        command_indices: vec![2],
        distances_m: vec![1.5],
        max_voice_duration_s: VOICE_CAP_S,
        ..CampaignSpec::new("warm-up")
    }
}

/// The archive probe's campaign: 2 detector entries x 4 deliveries x
/// 4 distances = 32 cells, `trials` records in all.
pub fn archive_spec(seed: u64, trials: usize) -> CampaignSpec {
    CampaignSpec {
        detectors: vec![None, Some(DetectorSpec::standard(true))],
        deliveries: vec![
            DeliverySpec::legitimate("legitimate talker, 65 dB", 65.0),
            DeliverySpec::single_speaker("single speaker, 18.7 W", 18.7, 40_000.0),
            DeliverySpec::array("array (8 elements, 60 W)", 8, 60.0, 40_000.0),
            DeliverySpec::array("array (12 elements, 100 W)", 12, 100.0, 40_000.0),
        ],
        command_indices: vec![0, 1],
        distances_m: vec![1.0, 3.0],
        trials_per_cell: trials.div_ceil(ARCHIVE_CELLS).max(1),
        base_seed: base_seed(seed),
        max_voice_duration_s: VOICE_CAP_S,
        recording_band_summary: Some(BandSummarySpec {
            bands: 8,
            max_hz: 8_000.0,
        }),
        ..CampaignSpec::new("archive-roundtrip")
    }
}

/// SplitMix64: a tiny, well-mixed deterministic generator, so the
/// benchmark's inputs depend on nothing but the seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Synthetic trial records for `spec`, split into its
/// [`ARCHIVE_PARTIALS`]-way shard plan.  Values vary the way real records
/// do: recognised words are subsets of the cell's command of varying
/// length, leakage fields are `None` for legitimate deliveries (and
/// sometimes missing for attacks), and detector probabilities exist only
/// on the detector cells.
pub fn synthetic_partials(
    spec: &CampaignSpec,
    seed: u64,
) -> ivc_experiments::Result<Vec<ShardArchive>> {
    let plan = ShardPlan::partition(spec, ARCHIVE_PARTIALS)?;
    let cells = spec.cells();
    let commands = corpus();
    let mut rng = SplitMix64::new(seed ^ 0xA5C1_F00D_0000_0000);
    let partials = plan
        .shards
        .iter()
        .map(|range| {
            let records = range
                .jobs(spec.trials_per_cell)
                .map(|(cell_index, trial_index)| {
                    let cell = &cells[cell_index];
                    let words = &commands[spec.command_index(cell)].words;
                    let is_attack = spec.deliveries[cell.coords.delivery_index]
                        .delivery
                        .is_attack();
                    let has_detector = spec.detectors[cell.coords.detector_index].is_some();
                    synthetic_record(
                        &mut rng,
                        cell_index,
                        trial_index,
                        spec,
                        words,
                        is_attack,
                        has_detector,
                    )
                })
                .collect();
            ShardArchive {
                spec: spec.clone(),
                shard: *range,
                records,
            }
        })
        .collect();
    Ok(partials)
}

fn synthetic_record(
    rng: &mut SplitMix64,
    cell_index: usize,
    trial_index: usize,
    spec: &CampaignSpec,
    words: &[(&'static str, Vec<&'static str>)],
    is_attack: bool,
    has_detector: bool,
) -> TrialRecord {
    let keep = rng.range(0.2, 1.0);
    let recognized_words: Vec<String> = words
        .iter()
        .filter(|_| rng.chance(keep))
        .map(|(word, _)| word.to_string())
        .collect();
    let word_accuracy = recognized_words.len() as f64 / words.len() as f64;
    let leak = is_attack && rng.chance(0.9);
    let bands = spec
        .recording_band_summary
        .as_ref()
        .map(|b| (0..b.bands).map(|_| rng.range(-90.0, -10.0)).collect());
    TrialRecord {
        cell_index,
        trial_index,
        seed: spec.trial_seed(trial_index),
        accepted: word_accuracy == 1.0 && rng.chance(0.9),
        word_accuracy,
        recognized_words,
        bystander_spl_db: leak.then(|| rng.range(30.0, 90.0)),
        bystander_spl_dba: leak.then(|| rng.range(10.0, 70.0)),
        bystander_voice_spl_db: leak.then(|| rng.range(0.0, 60.0)),
        leak_audible: leak.then(|| rng.chance(0.3)),
        power_shortfall_w: if is_attack && rng.chance(0.3) {
            rng.range(0.0, 20.0)
        } else {
            0.0
        },
        defense_features: (0..DefenseFeatures::DIMENSION)
            .map(|_| rng.range(-5.0, 5.0))
            .collect(),
        detection_probability: has_detector.then(|| rng.unit()),
        recording_band_summary_db: bands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_specs_are_a_pure_function_of_the_seed() {
        for make in [room_sweep, trial_repeat] {
            assert_eq!(make(7), make(7));
            assert_ne!(make(7), make(8));
            assert!(make(7).validate().is_ok());
        }
        assert_eq!(warm_up(&trial_repeat(3)), warm_up(&trial_repeat(4)));
    }

    #[test]
    fn base_seeds_never_share_trial_seeds_for_small_seeds() {
        let a = base_seed(5);
        let b = base_seed(6);
        assert!(b - a > REPEAT_TRIALS_PER_CELL as u64);
    }

    #[test]
    fn synthetic_records_are_a_pure_function_of_the_seed() {
        let spec = archive_spec(11, 256);
        assert_eq!(spec.num_cells(), ARCHIVE_CELLS);
        let a = synthetic_partials(&spec, 11).unwrap();
        let b = synthetic_partials(&spec, 11).unwrap();
        let c = synthetic_partials(&archive_spec(12, 256), 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a[0].records, c[0].records);
        assert_eq!(a.len(), ARCHIVE_PARTIALS);
        let records: Vec<&TrialRecord> = a.iter().flat_map(|p| &p.records).collect();
        assert_eq!(records.len(), spec.num_trials());
        // The variety the archive codecs must handle is actually present.
        assert!(records.iter().any(|r| r.bystander_spl_db.is_none()));
        assert!(records.iter().any(|r| r.bystander_spl_db.is_some()));
        assert!(records.iter().any(|r| r.detection_probability.is_none()));
        assert!(records.iter().any(|r| r.detection_probability.is_some()));
        let lengths: std::collections::BTreeSet<usize> =
            records.iter().map(|r| r.recognized_words.len()).collect();
        assert!(lengths.len() > 2, "recognised-word counts should vary");
        // The records merge into a valid report.
        assert!(merge_shards(a).is_ok());
    }
}
