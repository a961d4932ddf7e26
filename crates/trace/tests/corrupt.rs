//! Hostile-input handling: truncation at every section boundary, bad
//! magic, unsupported versions, and structural corruption must all
//! produce a typed one-line error — never a panic. The binary maps
//! these to the runtime exit code (3).

use spear_isa::asm::Asm;
use spear_isa::reg::*;
use spear_isa::SpearBinary;
use spear_trace::{record, TraceError, TraceFile, MAGIC, VERSION};

fn sample_trace() -> Vec<u8> {
    let mut a = Asm::new();
    let xs = a.alloc_u64("xs", &[7, 11, 13, 17]);
    a.li(R1, xs as i64);
    a.li(R3, 4);
    a.li(R5, 0);
    a.label("loop");
    a.ld(R4, R1, 0);
    a.add(R5, R5, R4);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    let out = a.reserve("out", 8);
    a.li(R6, out as i64);
    a.sd(R5, R6, 0);
    a.halt();
    let b = SpearBinary::plain(a.finish().unwrap());
    record(&b, u64::MAX).expect("records").0
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_trace();
    bytes[0] ^= 0xff;
    let err = TraceFile::decode(&bytes).expect_err("bad magic");
    assert_eq!(err, TraceError::BadMagic);
    assert!(err.to_string().contains("bad magic"), "{err}");
}

#[test]
fn unsupported_version_is_rejected_and_named() {
    let mut bytes = sample_trace();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = TraceFile::decode(&bytes).expect_err("bad version");
    assert_eq!(err, TraceError::BadVersion { found: 99 });
    let msg = err.to_string();
    assert!(
        msg.contains("99") && msg.contains(&VERSION.to_string()),
        "diagnostic must name found and expected versions: {msg}"
    );
}

#[test]
fn truncation_at_every_point_is_an_error_never_a_panic() {
    let bytes = sample_trace();
    // Every strict prefix must fail loudly. This sweeps truncation
    // inside the magic, header fields, embedded image, and mid-record.
    for cut in 0..bytes.len() {
        let err = TraceFile::decode(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded successfully"));
        let msg = err.to_string();
        assert!(
            !msg.is_empty() && !msg.contains('\n'),
            "one-line diagnostic: {msg:?}"
        );
    }
}

#[test]
fn eof_mid_record_is_reported_as_truncation() {
    let bytes = sample_trace();
    // Chop the last payload byte but also fix up the stored payload
    // length so the cut lands *inside* the record stream rather than at
    // the section boundary.
    let full = TraceFile::decode(&bytes).unwrap();
    assert!(full.payload_bytes > 1, "sample payload too small to cut");

    // Locate the payload-length field: it sits 9 bytes before the
    // payload (length u64, then the encoding byte), and the payload is
    // the last `payload_bytes` of the file.
    let payload_start = bytes.len() - full.payload_bytes as usize;
    let len_field = payload_start - 9;
    let mut cut = bytes[..bytes.len() - 1].to_vec();
    cut[len_field..len_field + 8].copy_from_slice(&(full.payload_bytes - 1).to_le_bytes());

    let err = TraceFile::decode(&cut).expect_err("mid-record EOF");
    match err {
        TraceError::Truncated(_) | TraceError::Corrupt(_) => {}
        other => panic!("expected truncation/corruption, got {other:?}"),
    }
}

#[test]
fn unknown_payload_encoding_is_rejected() {
    let bytes = sample_trace();
    let full = TraceFile::decode(&bytes).unwrap();
    // The encoding byte immediately precedes the payload.
    let enc_field = bytes.len() - full.payload_bytes as usize - 1;
    let mut bad = bytes.clone();
    bad[enc_field] = 7;
    let err = TraceFile::decode(&bad).expect_err("unknown encoding");
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("encoding"), "{err}");
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_trace();
    bytes.extend_from_slice(b"junk");
    let err = TraceFile::decode(&bytes).expect_err("trailing bytes");
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("trailing"), "{err}");
}

#[test]
fn corrupt_image_is_rejected() {
    let mut bytes = sample_trace();
    // The embedded image starts at offset 20 with the SPEARBIN magic.
    bytes[20] ^= 0xff;
    let err = TraceFile::decode(&bytes).expect_err("bad image");
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("image"), "{err}");
}

#[test]
fn hostile_pthread_count_in_the_image_is_rejected_not_aborted() {
    let mut bytes = sample_trace();
    // The image length sits at 12..20 and the image at 20..; its last
    // four bytes are the p-thread count (zero for a plain binary).
    let image_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let count = 20 + image_len - 4;
    bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = TraceFile::decode(&bytes).expect_err("hostile count");
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("truncated"), "{err}");
}

#[test]
fn empty_and_tiny_inputs_fail_cleanly() {
    assert_eq!(
        TraceFile::decode(&[]).expect_err("empty"),
        TraceError::Truncated("magic")
    );
    assert_eq!(
        TraceFile::decode(&MAGIC[..4]).expect_err("half magic"),
        TraceError::Truncated("magic")
    );
    // Valid magic, then nothing.
    assert_eq!(
        TraceFile::decode(&MAGIC).expect_err("no version"),
        TraceError::Truncated("version")
    );
}
