//! The worker set-up bundle, [`ivc-setup-v1`](SETUP_FORMAT): the enrolled
//! default-corpus recogniser and the trained detectors a shard scores
//! with, shipped to shard workers as a file so each worker process loads
//! its set-up instead of re-enrolling the corpus and re-training the
//! detectors before its first trial.
//!
//! Layout (everything little-endian, built on [`ivc_core::columns`]):
//!
//! ```text
//! str   format tag      "ivc-setup-v1" (length-prefixed)
//! u64   content key     FNV-1a 64, see below
//! u64   build id        SETUP_BUILD_ID of the build that wrote the bundle
//! u64   template count
//! col × count           one recogniser template each:
//!                         u64 corpus command index
//!                         f64 hop_s, f64 first_frame_time_s
//!                         u64 frame count, u64 frame dimension,
//!                         f64 × count × dimension (frames, row-major)
//!                         u64 word count, (u64 start, u64 end) per word
//! col   detectors       u64 detector count, then per detector:
//!                         str  the DetectorSpec's Debug form (memo key)
//!                         u64 dimension, f64 bias,
//!                         f64 × dimension each: weights, means, stds
//! ```
//!
//! `f64` values travel as raw IEEE-754 bits, so a decoded model is
//! bit-identical to the one that was encoded and a worker that loads the
//! bundle writes exactly the archive bytes it would have written after
//! building its own set-up.  Every template is its own column, so a
//! bundle is written and read one template at a time: a coordinator
//! shipping or absorbing one never holds the encoded templates next to
//! the decoded ones.
//!
//! The **content key** is FNV-1a 64 over the format tag, the `Debug` forms
//! of the default [`RecognizerConfig`] and of the command corpus, and each
//! detector's memo key in bundle order (every part length-prefixed).  A
//! loader recomputes it with its *own* recogniser config and corpus, so a
//! bundle enrolled by a build with a different config or corpus — or one
//! whose detector keys were altered — is rejected, never silently used.
//!
//! The key names *what* was built, not *how*: two builds with the same
//! config, corpus and detector specs but different synthesis, MFCC or
//! training code would agree on it.  The **build id**
//! ([`SETUP_BUILD_ID`]) covers that: a hash of the sources of every crate
//! that synthesises, enrolls, trains or scores, computed at compile time.
//! A loader rejects a bundle whose build id is not its own, so a bundle
//! only ever travels between binaries built from the same sources.
//!
//! ## How the bundle moves
//!
//! A coordinator never enrolls or trains on its own.  When its
//! process-wide memos already hold the set-up of a spec, it writes
//! [`setup_file_name`] into its scratch directory for the workers it
//! forks ([`write_bundle`], or `ProcessLauncher` under `orchestrate`),
//! and they load it (`repro shard-worker --setup FILE`).  A worker
//! that had to build any of its set-up itself leaves a
//! [`setup_sidecar_path`] file next to its partial; the coordinator
//! absorbs it into its memos ([`absorb_sidecar`]), so every worker of
//! every later campaign skips enrollment and training.

use crate::error::{ExperimentError, Result};
use crate::executor::{
    detector_memo_key, install_detector, install_recognizer, memoized_detector, memoized_recognizer,
};
use crate::grid::CampaignSpec;
use ivc_core::columns as col;
use ivc_core::telemetry;
use ivc_defense::classifier::LogisticRegression;
use ivc_speech::commands::{corpus, VoiceCommand};
use ivc_speech::mfcc::MfccFrames;
use ivc_speech::recognizer::{CommandTemplate, Recognizer, RecognizerConfig};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Format tag of the set-up bundle.
pub const SETUP_FORMAT: &str = "ivc-setup-v1";

/// This build's identity in set-up bundles: FNV-1a 64 over the sources of
/// the crates whose code decides the enrolled and trained models (see
/// `build.rs`).  It changes with any edit to those sources.
pub const SETUP_BUILD_ID: u64 = include!(concat!(env!("OUT_DIR"), "/source_hash"));

/// The set-up a shard worker would otherwise build: the enrolled
/// default-corpus recogniser plus trained detectors keyed by their
/// [`DetectorSpec`](crate::DetectorSpec) `Debug` form.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupBundle {
    recognizer: Arc<Recognizer>,
    detectors: Vec<(String, Arc<LogisticRegression>)>,
}

fn decode_err(e: impl std::fmt::Display) -> ExperimentError {
    ExperimentError::decode(format!("set-up bundle: {e}"))
}

/// FNV-1a 64 over length-prefixed parts.
fn fnv1a64<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        feed(&(part.len() as u64).to_le_bytes());
        feed(part);
    }
    hash
}

impl SetupBundle {
    /// A bundle of `recognizer` (which must be enrolled with the default
    /// corpus and config) and `(memo key, model)` detectors.
    pub fn new(
        recognizer: Arc<Recognizer>,
        detectors: Vec<(String, Arc<LogisticRegression>)>,
    ) -> Self {
        SetupBundle {
            recognizer,
            detectors,
        }
    }

    /// What this process's memos can supply for the detector-axis entries
    /// `detector_indices` of `spec`: `None` until the recogniser memo is
    /// filled.  Detectors this process has not trained or loaded are left
    /// out (a worker builds those itself).  Never enrolls or trains.
    pub fn from_memos(spec: &CampaignSpec, detector_indices: &[usize]) -> Option<SetupBundle> {
        let recognizer = memoized_recognizer()?;
        let mut detectors: Vec<(String, Arc<LogisticRegression>)> = Vec::new();
        for &index in detector_indices {
            let Some(detector) = &spec.detectors[index] else {
                continue;
            };
            let key = detector_memo_key(detector);
            if detectors.iter().any(|(k, _)| *k == key) {
                continue;
            }
            if let Some(model) = memoized_detector(&key) {
                detectors.push((key, model));
            }
        }
        Some(SetupBundle {
            recognizer,
            detectors,
        })
    }

    /// The enrolled recogniser.
    pub fn recognizer(&self) -> &Recognizer {
        &self.recognizer
    }

    /// The trained detectors, as `(memo key, model)` in bundle order.
    pub fn detectors(&self) -> &[(String, Arc<LogisticRegression>)] {
        &self.detectors
    }

    /// The bundle's content key (see the module docs).  Decoding rebuilds
    /// the recogniser with the default config, so a bundle enrolled under
    /// any other config carries a key no decoder accepts.
    pub fn key(&self) -> u64 {
        let config = format!("{:?}", self.recognizer.config());
        let commands = format!("{:?}", corpus());
        let mut parts = vec![SETUP_FORMAT, config.as_str(), commands.as_str()];
        parts.extend(self.detectors.iter().map(|(key, _)| key.as_str()));
        fnv1a64(parts.into_iter().map(str::as_bytes))
    }

    /// Seeds this process's recogniser and detector memos with the
    /// bundle; entries the memos already hold are kept.
    pub fn install(&self) {
        install_recognizer(Arc::clone(&self.recognizer));
        for (key, model) in &self.detectors {
            install_detector(key.clone(), Arc::clone(model));
        }
    }

    /// Serialises the bundle to its deterministic bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Writes the bundle's bytes to `out`, one template at a time.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let templates = self.recognizer.templates();
        let mut buf = Vec::new();
        col::put_str(&mut buf, SETUP_FORMAT);
        col::put_u64(&mut buf, self.key());
        col::put_u64(&mut buf, SETUP_BUILD_ID);
        col::put_u64(&mut buf, templates.len() as u64);
        out.write_all(&buf)?;
        for template in templates {
            buf.clear();
            col::put_column(&mut buf, |c| put_template(c, template));
            out.write_all(&buf)?;
        }
        buf.clear();
        col::put_column(&mut buf, |c| {
            col::put_u64(c, self.detectors.len() as u64);
            for (key, model) in &self.detectors {
                col::put_str(c, key);
                col::put_u64(c, model.weights().len() as u64);
                col::put_f64(c, model.bias());
                for values in [model.weights(), model.feature_means(), model.feature_stds()] {
                    for value in values {
                        col::put_f64(c, *value);
                    }
                }
            }
        });
        out.write_all(&buf)
    }

    /// Parses bundle bytes, rejecting a wrong format tag, another
    /// build's id, a content key that does not match this build's
    /// recogniser config and corpus, and truncated or trailing bytes.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<SetupBundle> {
        SetupBundle::read_from(&mut bytes)
    }

    /// [`SetupBundle::from_bytes`] over a stream, decoding one template
    /// at a time.
    pub fn read_from(input: &mut impl Read) -> Result<SetupBundle> {
        let mut frame = Vec::new();
        read_frame(input, &mut frame)?;
        let format = String::from_utf8_lossy(&frame);
        if format != SETUP_FORMAT {
            return Err(ExperimentError::decode(format!(
                "unsupported set-up bundle format '{format}' (expected '{SETUP_FORMAT}')"
            )));
        }
        let key = read_u64(input)?;
        let build = read_u64(input)?;
        if build != SETUP_BUILD_ID {
            return Err(ExperimentError::decode(format!(
                "set-up bundle written by another build (build id {build:016x}, this build is \
                 {SETUP_BUILD_ID:016x}); its models may differ from the ones this build makes"
            )));
        }
        let config = RecognizerConfig::default();
        let recognizer = {
            let commands = corpus();
            let count = read_u64(input)?;
            let mut templates = Vec::with_capacity(commands.len());
            for _ in 0..count {
                read_frame(input, &mut frame)?;
                let mut c = col::Cursor::new(&frame);
                templates.push(take_template(&mut c, &commands, &config)?);
                c.expect_end().map_err(decode_err)?;
            }
            Recognizer::from_parts(config, templates)
        };
        let detectors = {
            read_frame(input, &mut frame)?;
            let mut c = col::Cursor::new(&frame);
            let count = c.take_len().map_err(decode_err)?;
            let mut detectors = Vec::new();
            for _ in 0..count {
                let key = c.take_str().map_err(decode_err)?.to_string();
                let dimension = c.take_len().map_err(decode_err)?;
                let bias = c.take_f64().map_err(decode_err)?;
                let weights = take_f64s(&mut c, dimension)?;
                let means = take_f64s(&mut c, dimension)?;
                let stds = take_f64s(&mut c, dimension)?;
                let model = LogisticRegression::from_parts(weights, bias, means, stds)
                    .map_err(decode_err)?;
                detectors.push((key, Arc::new(model)));
            }
            c.expect_end().map_err(decode_err)?;
            detectors
        };
        if input.read(&mut [0u8]).map_err(read_err)? != 0 {
            return Err(decode_err("trailing bytes after the detector column"));
        }
        let bundle = SetupBundle {
            recognizer: Arc::new(recognizer),
            detectors,
        };
        let expected = bundle.key();
        if key != expected {
            return Err(ExperimentError::decode(format!(
                "set-up bundle key mismatch: the file carries {key:016x}, this build expects \
                 {expected:016x} (built with another recogniser config, corpus or detector set)"
            )));
        }
        Ok(bundle)
    }

    /// Writes the bundle to `path` (through a temporary file and a
    /// rename, so a reader never sees a half-written bundle).
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        let written = std::fs::File::create(&tmp).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            self.write_to(&mut out)?;
            out.flush()
        });
        written
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                ExperimentError::Io(format!("writing {}: {e}", path.display()))
            })
    }

    /// Reads a bundle back from `path`.
    pub fn load(path: &Path) -> Result<SetupBundle> {
        let file = std::fs::File::open(path)
            .map_err(|e| ExperimentError::Io(format!("reading {}: {e}", path.display())))?;
        SetupBundle::read_from(&mut std::io::BufReader::new(file)).map_err(|e| match e {
            ExperimentError::Decode(reason) => {
                ExperimentError::decode(format!("{}: {reason}", path.display()))
            }
            ExperimentError::Io(reason) => {
                ExperimentError::Io(format!("{}: {reason}", path.display()))
            }
            other => other,
        })
    }
}

/// A read failure: the input ending early is a truncated bundle.
fn read_err(e: std::io::Error) -> ExperimentError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        decode_err("truncated")
    } else {
        ExperimentError::Io(format!("reading a set-up bundle: {e}"))
    }
}

fn read_u64(input: &mut impl Read) -> Result<u64> {
    let mut bytes = [0u8; 8];
    input.read_exact(&mut bytes).map_err(read_err)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Reads one length-prefixed frame (a string or a column) into `frame`.
/// The payload grows as it arrives, so a corrupt length fails on the
/// short read, not on a huge allocation.
fn read_frame(input: &mut impl Read, frame: &mut Vec<u8>) -> Result<()> {
    let len = read_u64(input)?;
    frame.clear();
    input
        .by_ref()
        .take(len)
        .read_to_end(frame)
        .map_err(read_err)?;
    if frame.len() as u64 != len {
        return Err(decode_err(format!(
            "truncated: a {len}-byte frame ends after {} byte(s)",
            frame.len()
        )));
    }
    Ok(())
}

/// Appends one recogniser template: command index, frame timing, the
/// frames row-major, then the word frame ranges.
fn put_template(out: &mut Vec<u8>, template: &CommandTemplate) {
    let frames = template.frames();
    col::put_u64(out, template.command.id.0 as u64);
    col::put_f64(out, frames.hop_s);
    col::put_f64(out, frames.first_frame_time_s);
    let dimension = frames.frames.first().map_or(0, Vec::len);
    debug_assert!(frames.frames.iter().all(|f| f.len() == dimension));
    col::put_u64(out, frames.frames.len() as u64);
    col::put_u64(out, dimension as u64);
    for value in frames.frames.iter().flatten() {
        col::put_f64(out, *value);
    }
    let ranges = template.word_frame_ranges();
    col::put_u64(out, ranges.len() as u64);
    for &(start, end) in ranges {
        col::put_u64(out, start as u64);
        col::put_u64(out, end as u64);
    }
}

/// Reads one template written by [`put_template`].
fn take_template(
    c: &mut col::Cursor<'_>,
    commands: &[VoiceCommand],
    config: &RecognizerConfig,
) -> Result<CommandTemplate> {
    let index = c.take_len().map_err(decode_err)?;
    let command = commands
        .get(index)
        .cloned()
        .ok_or_else(|| decode_err(format!("template command index {index} outside the corpus")))?;
    let hop_s = c.take_f64().map_err(decode_err)?;
    let first_frame_time_s = c.take_f64().map_err(decode_err)?;
    let num_frames = c.take_len().map_err(decode_err)?;
    let dimension = c.take_len().map_err(decode_err)?;
    if dimension != config.mfcc.frame_dimension() {
        return Err(decode_err(format!(
            "template frames have dimension {dimension}, expected {}",
            config.mfcc.frame_dimension()
        )));
    }
    let mut frames = Vec::with_capacity(bounded(c, num_frames, dimension * 8));
    for _ in 0..num_frames {
        frames.push(take_f64s(c, dimension)?);
    }
    let num_words = c.take_len().map_err(decode_err)?;
    let mut ranges = Vec::with_capacity(bounded(c, num_words, 16));
    for _ in 0..num_words {
        ranges.push((
            c.take_len().map_err(decode_err)?,
            c.take_len().map_err(decode_err)?,
        ));
    }
    let frames = MfccFrames {
        frames,
        hop_s,
        first_frame_time_s,
    };
    CommandTemplate::from_parts(command, frames, ranges).map_err(decode_err)
}

/// A capacity for `count` items of `item_bytes` each that the cursor's
/// remaining bytes can actually back, so a corrupt count fails on the
/// read, not on a huge allocation.
fn bounded(c: &col::Cursor<'_>, count: usize, item_bytes: usize) -> usize {
    count.min(c.remaining() / item_bytes.max(1))
}

fn take_f64s(c: &mut col::Cursor<'_>, count: usize) -> Result<Vec<f64>> {
    let mut values = Vec::with_capacity(bounded(c, count, 8));
    for _ in 0..count {
        values.push(c.take_f64().map_err(decode_err)?);
    }
    Ok(values)
}

/// Whether this process's memos hold the whole set-up of the
/// detector-axis entries `detector_indices` of `spec`: the recogniser and
/// every trained detector those entries name.
pub fn memos_cover(spec: &CampaignSpec, detector_indices: &[usize]) -> bool {
    memoized_recognizer().is_some()
        && detector_indices
            .iter()
            .all(|&index| match &spec.detectors[index] {
                None => true,
                Some(detector) => memoized_detector(&detector_memo_key(detector)).is_some(),
            })
}

/// Every detector-axis entry of `spec`.
pub(crate) fn all_detectors(spec: &CampaignSpec) -> Vec<usize> {
    (0..spec.detectors.len()).collect()
}

/// The detector-axis entries the cell-major job range `[start_job,
/// end_job)` of `spec` scores with — the detectors a shard of that range
/// trains or loads.
pub fn shard_detectors(spec: &CampaignSpec, start_job: usize, end_job: usize) -> Vec<usize> {
    crate::executor::touched_detectors(&spec.cells(), spec.trials_per_cell, start_job, end_job)
}

/// The bundle file an orchestrated or forked run of `spec_name` ships to
/// its workers, inside the run's scratch directory.
pub fn setup_file_name(spec_name: &str) -> String {
    format!("{spec_name}.setup.bin")
}

/// Where a shard worker writing its partial to `partial_path` returns the
/// set-up it built itself: the partial's name with its `.bin`/`.json`
/// extension replaced by `.setup.bin`.
pub fn setup_sidecar_path(partial_path: &Path) -> PathBuf {
    crate::shard::sidecar_path(partial_path, "setup.bin")
}

/// Coordinator side: writes the bundle this process's memos hold for
/// `spec` into `dir` as [`setup_file_name`] and returns its path, or
/// `None` when the memos hold no recogniser yet (the workers then build
/// their own set-up and return it).
pub fn write_bundle(spec: &CampaignSpec, dir: &Path) -> Result<Option<PathBuf>> {
    let Some(bundle) = SetupBundle::from_memos(spec, &all_detectors(spec)) else {
        return Ok(None);
    };
    let path = dir.join(setup_file_name(&spec.name));
    bundle.save(&path)?;
    Ok(Some(path))
}

/// Coordinator side: absorbs the set-up sidecar a worker left next to
/// `partial_path` (if any) into this process's memos and deletes it.
/// Returns whether the memos gained anything.  A sidecar that fails to
/// load, or carries a detector `spec` does not name, is discarded: the
/// bundle only ever saves work, so a bad one costs a rebuild, never a
/// wrong result.
pub fn absorb_sidecar(spec: &CampaignSpec, partial_path: &Path) -> bool {
    let sidecar = setup_sidecar_path(partial_path);
    if !sidecar.exists() {
        return false;
    }
    let all = all_detectors(spec);
    let absorbed = !memos_cover(spec, &all)
        && match SetupBundle::load(&sidecar) {
            Ok(bundle) => {
                let known: Vec<String> = spec
                    .detectors
                    .iter()
                    .flatten()
                    .map(detector_memo_key)
                    .collect();
                let foreign = bundle.detectors.iter().any(|(key, _)| !known.contains(key));
                if !foreign {
                    bundle.install();
                }
                !foreign
            }
            Err(_) => false,
        };
    let _ = std::fs::remove_file(&sidecar);
    absorbed
}

/// Worker side: loads the bundle at `path` into this process's memos,
/// inside a `campaign.setup` telemetry span (the set-up it replaces).
pub fn install_bundle_file(path: &Path) -> Result<()> {
    let _span = telemetry::span("campaign.setup");
    SetupBundle::load(path)?.install();
    telemetry::add_count("setup.bundle_loaded", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made two-template recogniser and one detector: no
    /// enrollment or training runs, so the test is fast and the bytes are
    /// platform-independent.
    fn tiny_bundle() -> SetupBundle {
        let commands = corpus();
        let dimension = RecognizerConfig::default().mfcc.frame_dimension();
        let templates = [0usize, 2]
            .iter()
            .map(|&index| {
                let command = commands[index].clone();
                let words = command.num_words();
                let frames = MfccFrames {
                    frames: (0..3)
                        .map(|f| {
                            (0..dimension)
                                .map(|d| (index * 100 + f * 10 + d) as f64 * -0.125)
                                .collect()
                        })
                        .collect(),
                    hop_s: 0.01,
                    first_frame_time_s: 0.0125,
                };
                let ranges = (0..words).map(|w| (w % 3, w % 3 + 1)).collect();
                CommandTemplate::from_parts(command, frames, ranges).unwrap()
            })
            .collect();
        let recognizer = Recognizer::from_parts(RecognizerConfig::default(), templates);
        let model =
            LogisticRegression::from_parts(vec![0.5, -1.5], -0.0, vec![1.0, 2.0], vec![0.25, 4.0])
                .unwrap();
        SetupBundle::new(
            Arc::new(recognizer),
            vec![("a detector".to_string(), Arc::new(model))],
        )
    }

    #[test]
    fn bundle_round_trips_byte_exactly() {
        let bundle = tiny_bundle();
        let bytes = bundle.to_bytes();
        let decoded = SetupBundle::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, bundle);
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(
            decoded.detectors()[0].1.bias().to_bits(),
            (-0.0f64).to_bits(),
            "negative zero must survive"
        );
    }

    #[test]
    fn truncated_retagged_and_rekeyed_bundles_are_rejected() {
        let bytes = tiny_bundle().to_bytes();
        for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SetupBundle::from_bytes(&bytes[..cut]).is_err(),
                "accepted a bundle cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SetupBundle::from_bytes(&trailing).is_err());
        // A corrupt template length is a short read, not a huge allocation.
        let mut oversized = bytes.clone();
        let first_template = 8 + SETUP_FORMAT.len() + 3 * 8;
        oversized[first_template..first_template + 8]
            .copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let message = SetupBundle::from_bytes(&oversized).unwrap_err().to_string();
        assert!(message.contains("truncated"), "{message}");

        let mut retagged = Vec::new();
        col::put_str(&mut retagged, "ivc-setup-v0");
        retagged.extend_from_slice(&bytes[8 + SETUP_FORMAT.len()..]);
        let message = SetupBundle::from_bytes(&retagged).unwrap_err().to_string();
        assert!(message.contains("ivc-setup-v0"), "{message}");

        // The key sits right after the tag; flipping one bit of it is a
        // key mismatch, and so is renaming a detector after the fact.
        let mut rekeyed = bytes.clone();
        rekeyed[8 + SETUP_FORMAT.len()] ^= 1;
        let message = SetupBundle::from_bytes(&rekeyed).unwrap_err().to_string();
        assert!(message.contains("key mismatch"), "{message}");
        let mut renamed = bytes;
        let at = renamed
            .windows(b"a detector".len())
            .position(|w| w == b"a detector")
            .unwrap();
        renamed[at] = b'A';
        let message = SetupBundle::from_bytes(&renamed).unwrap_err().to_string();
        assert!(message.contains("key mismatch"), "{message}");
    }

    #[test]
    fn a_bundle_from_another_build_is_rejected() {
        let mut bytes = tiny_bundle().to_bytes();
        let build_at = 8 + SETUP_FORMAT.len() + 8;
        assert_eq!(
            bytes[build_at..build_at + 8],
            SETUP_BUILD_ID.to_le_bytes(),
            "the build id follows the content key"
        );
        bytes[build_at] ^= 1;
        let message = SetupBundle::from_bytes(&bytes).unwrap_err().to_string();
        assert!(message.contains("another build"), "{message}");
    }

    #[test]
    fn a_recogniser_with_another_config_cannot_travel() {
        // The bundle does not carry the config: decoding rebuilds the
        // default one, so the key must refuse anything else.
        let bundle = tiny_bundle();
        let config = RecognizerConfig {
            cepstral_mean_normalization: true,
            ..RecognizerConfig::default()
        };
        let other = SetupBundle::new(
            Arc::new(Recognizer::from_parts(
                config,
                bundle.recognizer().templates().to_vec(),
            )),
            bundle.detectors().to_vec(),
        );
        assert_ne!(other.key(), bundle.key());
        let message = SetupBundle::from_bytes(&other.to_bytes())
            .unwrap_err()
            .to_string();
        assert!(message.contains("key mismatch"), "{message}");
    }

    #[test]
    fn sidecar_paths_replace_the_partial_extension() {
        assert_eq!(
            setup_sidecar_path(Path::new("d/s.shard-0-of-2.part.bin")),
            Path::new("d/s.shard-0-of-2.part.setup.bin")
        );
        assert_eq!(
            setup_sidecar_path(Path::new("d/s.shard-0-of-2.part.attempt-7-0.json")),
            Path::new("d/s.shard-0-of-2.part.attempt-7-0.setup.bin")
        );
        assert_eq!(setup_file_name("smoke"), "smoke.setup.bin");
    }
}
