//! Corrupt-input tests: every malformation class must surface as a
//! specific [`ArtifactError`], never a panic — including well-formed
//! payloads whose *values* would break type invariants.

use razorbus_artifact::{binary, decode, encode, json, ArtifactError, Encoding, MAGIC};
use razorbus_core::{TraceSummary, WindowedSummary};
use razorbus_traces::{Benchmark, TraceRecording};
use razorbus_units::VoltageGrid;

fn sample_bytes() -> Vec<u8> {
    let recording = TraceRecording::from_words(vec![1, 2, 3, 4]);
    encode("trace-recording", Encoding::Binary, &recording).unwrap()
}

#[test]
fn bad_magic_is_reported() {
    let mut bytes = sample_bytes();
    bytes[..4].copy_from_slice(b"NOPE");
    match decode::<TraceRecording>("trace-recording", &bytes) {
        Err(ArtifactError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn empty_and_tiny_files_error() {
    assert!(matches!(
        decode::<TraceRecording>("trace-recording", &[]),
        Err(ArtifactError::BadMagic { .. })
    ));
    assert!(matches!(
        decode::<TraceRecording>("trace-recording", &MAGIC),
        Err(ArtifactError::Truncated)
    ));
    assert!(matches!(
        decode::<TraceRecording>("trace-recording", &sample_bytes()[..9]),
        Err(ArtifactError::Truncated)
    ));
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[4] = 0xFF;
    bytes[5] = 0xFF;
    match decode::<TraceRecording>("trace-recording", &bytes) {
        Err(ArtifactError::UnsupportedVersion { found }) => assert_eq!(found, 0xFFFF),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_encoding_byte_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[6] = 9;
    assert!(matches!(
        decode::<TraceRecording>("trace-recording", &bytes),
        Err(ArtifactError::UnknownEncoding { found: 9 })
    ));
}

#[test]
fn kind_mismatch_is_reported_with_both_names() {
    let bytes = sample_bytes();
    match decode::<TraceRecording>("summary-bank", &bytes) {
        Err(ArtifactError::KindMismatch { expected, found }) => {
            assert_eq!(expected, "summary-bank");
            assert_eq!(found, "trace-recording");
        }
        other => panic!("expected KindMismatch, got {other:?}"),
    }
}

#[test]
fn payload_bit_rot_fails_the_checksum() {
    let mut bytes = sample_bytes();
    let payload_byte = bytes.len() - 8; // inside the last word, before the CRC
    bytes[payload_byte] ^= 0x01;
    assert!(matches!(
        decode::<TraceRecording>("trace-recording", &bytes),
        Err(ArtifactError::ChecksumMismatch)
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"extra");
    assert!(decode::<TraceRecording>("trace-recording", &bytes).is_err());
}

#[test]
fn binary_rejects_malformed_payloads() {
    // Out-of-range enum discriminant.
    assert!(binary::from_bytes::<Benchmark>(&0xFFu32.to_le_bytes()).is_err());
    // Invalid bool and option tags.
    assert!(binary::from_bytes::<bool>(&[2]).is_err());
    assert!(binary::from_bytes::<Option<u32>>(&[7]).is_err());
    // A length prefix larger than the remaining input errors before
    // allocating anything.
    assert!(matches!(
        binary::from_bytes::<Vec<u32>>(&u64::MAX.to_le_bytes()),
        Err(ArtifactError::Truncated)
    ));
    // Non-UTF-8 string content.
    let mut bytes = 2u64.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xFF, 0xFE]);
    assert!(binary::from_bytes::<String>(&bytes).is_err());
    // Trailing bytes after a complete value.
    assert!(binary::from_bytes::<u8>(&[1, 2]).is_err());
}

#[test]
fn json_rejects_malformed_text() {
    for text in [
        "",
        "{",
        "[1, 2",
        "{\"a\" 1}",
        "nul",
        "\"unterminated",
        "01x",
        "[1,]",
        "{\"a\": 1} trailing",
        "\"\\uD800\"",                                       // unpaired surrogate
        &format!("{}1{}", "[".repeat(200), "]".repeat(200)), // depth bomb
    ] {
        assert!(json::from_str::<u32>(text).is_err(), "accepted {text:?}");
    }
    // Type mismatches and domain errors.
    assert!(json::from_str::<u32>("-5").is_err());
    assert!(json::from_str::<u32>("1.5").is_err());
    assert!(json::from_str::<bool>("1").is_err());
    assert!(json::from_str::<Benchmark>("\"NotAProgram\"").is_err());
}

#[test]
fn json_rejects_unknown_and_duplicate_fields() {
    assert!(json::from_str::<TraceRecording>("{\"words\": [1], \"extra\": 0}").is_err());
    assert!(json::from_str::<TraceRecording>("{\"words\": [1], \"words\": [2]}").is_err());
    assert!(json::from_str::<TraceRecording>("{}").is_err());
}

#[test]
fn invariant_breaking_values_error_instead_of_panicking() {
    // An empty recording deserializes to an error, not a replay panic.
    assert!(json::from_str::<TraceRecording>("{\"words\": []}").is_err());
    // A summary whose histogram has the wrong shape is rejected.
    assert!(json::from_str::<TraceSummary>(
        "{\"hist\": [1, 2, 3], \"total_switched_cap_per_mm\": 1.0, \
         \"total_toggles\": 5, \"cycles\": 10}"
    )
    .is_err());
    // Zero-cycle summaries are rejected (every rate would divide by zero).
    let empty_hist = format!("[{}]", vec!["0"; 9 * 512].join(", "));
    assert!(json::from_str::<TraceSummary>(&format!(
        "{{\"hist\": {empty_hist}, \"total_switched_cap_per_mm\": 0.0, \
         \"total_toggles\": 0, \"cycles\": 0}}"
    ))
    .is_err());
    // A windowed summary needs a window, a positive window length, and
    // every window summarizing exactly that many cycles.
    let window = |cycles: u64| {
        format!(
            "{{\"hist\": {empty_hist}, \"total_switched_cap_per_mm\": 0.0, \
             \"total_toggles\": 0, \"cycles\": {cycles}}}"
        )
    };
    let windowed = |windows: &[String], len: u64| {
        format!(
            "{{\"windows\": [{}], \"window_len\": {len}}}",
            windows.join(", ")
        )
    };
    for (case, text) in [
        ("no window", windowed(&[], 10)),
        ("a zero length", windowed(&[window(10)], 0)),
        ("a short window", windowed(&[window(10), window(9)], 10)),
    ] {
        assert!(
            json::from_str::<WindowedSummary>(&text).is_err(),
            "accepted windowed summary with {case}"
        );
    }
    assert!(json::from_str::<WindowedSummary>(&windowed(&[window(10), window(10)], 10)).is_ok());
    // Compiled traces must keep arrays aligned with the cycle count and
    // every value in range — a CRC-clean but inconsistent payload errors
    // instead of replaying garbage.
    let compiled = |cycles: u64, toggles: &str, bins: &str, n_bits: u32| {
        format!(
            "{{\"cycles\": {cycles}, \"toggles\": {toggles}, \"bins\": {bins}, \
             \"switched\": [1.0, 2.0], \"n_bits\": {n_bits}, \"worst_load_ff\": 300.0, \
             \"best_load_ff\": 80.0, \"coupling_ratio\": 1.5}}"
        )
    };
    for (case, text) in [
        ("length mismatch", compiled(3, "[1, 2]", "[0, 0]", 32)),
        ("zero cycles", compiled(0, "[]", "[]", 32)),
        ("toggle over width", compiled(2, "[9, 0]", "[0, 0]", 8)),
        ("bin out of range", compiled(2, "[1, 1]", "[0, 600]", 32)),
        ("zero-bit bus", compiled(2, "[0, 0]", "[0, 0]", 0)),
        // A quiet cycle must carry bin 0 and 0 fF/mm: the second cycle
        // toggles nothing yet claims 2.0 fF/mm of switched capacitance,
        // which a replay would silently add to the energy account.
        ("quiet cycle with load", compiled(2, "[1, 0]", "[0, 0]", 32)),
        (
            "quiet cycle with bin",
            "{\"cycles\": 2, \"toggles\": [1, 0], \"bins\": [0, 3], \
             \"switched\": [1.0, 0.0], \"n_bits\": 32, \"worst_load_ff\": 300.0, \
             \"best_load_ff\": 80.0, \"coupling_ratio\": 1.5}"
                .to_string(),
        ),
    ] {
        assert!(
            json::from_str::<razorbus_core::CompiledTrace>(&text).is_err(),
            "accepted compiled trace with {case}"
        );
    }
    // Voltage grids must keep floor <= ceiling, positive step, exact span.
    for grid in [
        "{\"floor\": 1000, \"ceiling\": 900, \"step\": 20}",
        "{\"floor\": 900, \"ceiling\": 1000, \"step\": 0}",
        "{\"floor\": 900, \"ceiling\": 1000, \"step\": -20}",
        "{\"floor\": 900, \"ceiling\": 1010, \"step\": 20}",
    ] {
        assert!(
            json::from_str::<VoltageGrid>(grid).is_err(),
            "accepted {grid}"
        );
    }
}

#[test]
fn json_preserves_negative_zero_bits() {
    let text = json::to_string(&(-0.0f64)).unwrap();
    assert_eq!(text, "-0");
    let back: f64 = json::from_str(&text).unwrap();
    assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    // Plain integer zero still deserializes as an integer.
    assert_eq!(json::from_str::<i64>("0").unwrap(), 0);
    assert_eq!(json::from_str::<f64>("0").unwrap().to_bits(), 0);
}

#[test]
fn json_artifact_survives_reformatting_but_not_field_renames() {
    let recording = TraceRecording::from_words(vec![10, 20]);
    let text = json::to_string_pretty(&recording).unwrap();
    // Whitespace-insensitive, key-order-insensitive self-describing form.
    let squashed: String = text.split_whitespace().collect::<Vec<_>>().join("");
    assert_eq!(
        json::from_str::<TraceRecording>(&squashed).unwrap(),
        recording
    );
    let renamed = text.replace("words", "wrods");
    assert!(json::from_str::<TraceRecording>(&renamed).is_err());
}
