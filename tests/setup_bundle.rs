//! The `ivc-setup-v1` worker set-up bundle: a committed golden fixture
//! locks its bytes, damaged, foreign or other-build bundles are rejected,
//! and a model loaded from a bundle scores a recording bit for bit like
//! the model it was encoded from.
//!
//! To regenerate the fixture after an *intentional* format change:
//!
//! ```text
//! IVC_REGEN_FIXTURES=1 cargo test -p inaudible-voice-commands --test setup_bundle
//! ```

use inaudible_voice_commands::defense::classifier::LogisticRegression;
use inaudible_voice_commands::defense::features::DefenseFeatures;
use inaudible_voice_commands::experiments::{
    train_detector_model, DetectorSpec, SetupBundle, SETUP_BUILD_ID, SETUP_FORMAT,
};
use inaudible_voice_commands::speech::commands::corpus;
use inaudible_voice_commands::speech::mfcc::MfccFrames;
use inaudible_voice_commands::speech::recognizer::{CommandTemplate, Recognizer, RecognizerConfig};
use inaudible_voice_commands::speech::synthesis::{SpeakerProfile, Synthesizer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{name}"))
}

/// The fixture bundle: hand-written templates and detector weights (no
/// enrollment or training runs), so the bytes are deterministic across
/// platforms.  Values cover negative zero, a NaN payload and subnormals.
fn fixture_bundle() -> SetupBundle {
    let commands = corpus();
    let dimension = RecognizerConfig::default().mfcc.frame_dimension();
    let templates = [0usize, 3]
        .iter()
        .map(|&index| {
            let command = commands[index].clone();
            let ranges = (0..command.num_words()).map(|w| (w, w + 2)).collect();
            let frames = MfccFrames {
                frames: (0..4)
                    .map(|f| {
                        (0..dimension)
                            .map(|d| match (f, d) {
                                (0, 0) => -0.0,
                                (1, 1) => f64::from_bits(0x7ff8_0000_0000_0042),
                                (2, 2) => f64::MIN_POSITIVE / 4.0,
                                _ => (index * 64 + f * 16 + d) as f64 * -0.375,
                            })
                            .collect()
                    })
                    .collect(),
                hop_s: 0.01,
                first_frame_time_s: 0.0125,
            };
            CommandTemplate::from_parts(command, frames, ranges).unwrap()
        })
        .collect();
    let model = LogisticRegression::from_parts(
        vec![1.5, -0.25, 0.0, 3.0],
        -0.0,
        vec![-40.0, 0.5, 12.0, 1e-3],
        vec![2.0, 0.125, 1e-9, 4.0],
    )
    .unwrap();
    SetupBundle::new(
        Arc::new(Recognizer::from_parts(
            RecognizerConfig::default(),
            templates,
        )),
        vec![(
            format!("{:?}", DetectorSpec::standard(true)),
            Arc::new(model),
        )],
    )
}

/// Offset of the build id: after the format tag and the content key.
const BUILD_AT: usize = 8 + SETUP_FORMAT.len() + 8;

/// `bytes` with the build id field set to `build`.
fn with_build(mut bytes: Vec<u8>, build: u64) -> Vec<u8> {
    bytes[BUILD_AT..BUILD_AT + 8].copy_from_slice(&build.to_le_bytes());
    bytes
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn setup_fixture_is_locked_and_round_trips_byte_exactly() {
    let stamped = fixture_bundle().to_bytes();
    assert_eq!(
        stamped[BUILD_AT..BUILD_AT + 8],
        SETUP_BUILD_ID.to_le_bytes(),
        "a bundle carries the id of the build that wrote it"
    );
    // The build id changes with every source edit; the layout must not.
    // The committed fixture therefore carries build id 0.
    let bytes = with_build(stamped.clone(), 0);
    let path = fixture_path("setup-v1.bin");
    if std::env::var("IVC_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(&path, &bytes).unwrap();
    }
    let committed =
        std::fs::read(&path).unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    assert_eq!(
        bytes, committed,
        "setup-v1.bin drifted from the committed fixture; if the format change is intentional, \
         bump the format tag and regenerate with IVC_REGEN_FIXTURES=1"
    );

    // Stamped with this build's id, decode → encode reproduces the
    // committed bytes, and the decoded bundle is the fixture, NaN
    // payloads and negative zeros included.
    let loaded = SetupBundle::from_bytes(&with_build(committed.clone(), SETUP_BUILD_ID)).unwrap();
    assert_eq!(loaded.to_bytes(), stamped);
    assert_eq!(loaded.key(), fixture_bundle().key());
    let fixture = fixture_bundle();
    for (a, b) in loaded
        .recognizer()
        .templates()
        .iter()
        .zip(fixture.recognizer().templates())
    {
        assert_eq!(a.command, b.command);
        assert_eq!(a.word_frame_ranges(), b.word_frame_ranges());
        for (fa, fb) in a.frames().frames.iter().zip(&b.frames().frames) {
            assert_eq!(bits(fa), bits(fb));
        }
    }
    let (key, model) = &loaded.detectors()[0];
    assert_eq!(key, &fixture.detectors()[0].0);
    assert_eq!(model.bias().to_bits(), (-0.0f64).to_bits());
    assert_eq!(bits(model.feature_stds()), bits(&[2.0, 0.125, 1e-9, 4.0]));
}

#[test]
fn damaged_and_foreign_bundles_are_rejected() {
    let bytes = fixture_bundle().to_bytes();
    // Truncation anywhere — tag, key, recogniser column, detector column,
    // one byte short — and trailing bytes are errors, never partial reads.
    for cut in [
        0,
        4,
        12,
        24,
        40,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        assert!(
            SetupBundle::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(SetupBundle::from_bytes(&padded).is_err());

    // A wrong tag is named in the error, next to the expected one.
    let mut retagged = bytes.clone();
    let old_tag = b"ivc-setup-v0";
    assert_eq!(old_tag.len(), SETUP_FORMAT.len());
    retagged[8..8 + old_tag.len()].copy_from_slice(old_tag);
    let err = SetupBundle::from_bytes(&retagged).unwrap_err().to_string();
    assert!(
        err.contains("ivc-setup-v0") && err.contains(SETUP_FORMAT),
        "{err}"
    );

    // A key that does not match this build's recogniser config, corpus
    // and detector set is a mismatch, whoever computed it.
    let key_at = 8 + SETUP_FORMAT.len();
    let mut rekeyed = bytes.clone();
    rekeyed[key_at..key_at + 8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
    let err = SetupBundle::from_bytes(&rekeyed).unwrap_err().to_string();
    assert!(err.contains("key mismatch"), "{err}");

    // A bundle written by another build — whose synthesis, MFCC or
    // training code may differ under the same key — is refused, and so is
    // the committed fixture as it is on disk.
    let err = SetupBundle::from_bytes(&with_build(bytes, SETUP_BUILD_ID ^ 1))
        .unwrap_err()
        .to_string();
    assert!(err.contains("another build"), "{err}");
    let err = SetupBundle::load(&fixture_path("setup-v1.bin"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("another build"), "{err}");
}

#[test]
fn decoded_models_score_a_recording_bit_for_bit() {
    let recognizer = Arc::new(Recognizer::with_default_corpus().unwrap());
    let detector = DetectorSpec {
        distances_m: vec![1.5],
        num_speaker_variants: 3,
        command_indices: vec![0],
        max_voice_duration_s: 0.6,
        ..DetectorSpec::standard(true)
    };
    let model = Arc::new(train_detector_model(&detector).unwrap());
    let built = SetupBundle::new(
        Arc::clone(&recognizer),
        vec![(format!("{detector:?}"), Arc::clone(&model))],
    );
    let decoded = SetupBundle::from_bytes(&built.to_bytes()).unwrap();
    assert_eq!(decoded, built);

    // A fixed recording no template was enrolled from.
    let synth = Synthesizer::new(48_000.0).unwrap();
    let recording = synth
        .render(&corpus()[1], &SpeakerProfile::variant(5))
        .unwrap()
        .signal;
    let from_built = recognizer.recognize(&recording).unwrap();
    let from_decoded = decoded.recognizer().recognize(&recording).unwrap();
    assert_eq!(from_built.command, from_decoded.command);
    for (a, b) in [
        (from_built.best_distance, from_decoded.best_distance),
        (from_built.second_distance, from_decoded.second_distance),
        (from_built.word_accuracy, from_decoded.word_accuracy),
    ] {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let features = DefenseFeatures::extract(&recording).unwrap().to_vector();
    let p_built = model.predict_probability(&features).unwrap();
    let p_decoded = decoded.detectors()[0]
        .1
        .predict_probability(&features)
        .unwrap();
    assert_eq!(p_built.to_bits(), p_decoded.to_bits());
}
