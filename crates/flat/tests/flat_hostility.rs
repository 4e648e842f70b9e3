//! Satellite: hostile-input sweeps for the `TWIGFLT1` reader, mirroring
//! the owned deserializer's suite.
//!
//! The flat path raises the stakes over `TWIGCST`: sections are read
//! *lazily*, so a corrupt payload is not necessarily rejected at open —
//! the contract is layered instead:
//!
//! 1. Structural damage (truncation, bad table arithmetic, misaligned
//!    or overlapping sections) is a typed [`FlatError`] at open.
//! 2. Payload damage that survives open is caught by the per-section
//!    checksum on first touch: accessors degrade to safe defaults,
//!    estimates stay finite, `integrity_error()` reports the section.
//! 3. Nothing ever panics or over-reads, for *any* input bytes.
//!
//! All sweeps are deterministic (SplitMix64-seeded).

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_flat::format::{
    SectionKind, HEADER_LEN, PAYLOAD_OFFSET, SECTION_COUNT, TABLE_ENTRY_LEN, TABLE_OFFSET,
};
use twig_flat::{writer, FlatCst, FlatError};
use twig_tree::{DataTree, Twig};
use twig_util::SplitMix64;

fn sample_flat_bytes() -> Vec<u8> {
    let tree = DataTree::from_xml(concat!(
        "<dblp>",
        "<book><author>Anna</author><year>1999</year><title>TreeQL</title></book>",
        "<book><author>Bo</author><year>2000</year></book>",
        "<article><author>Cy</author><title>Twigs</title></article>",
        "</dblp>"
    ))
    .expect("sample XML parses");
    let cst =
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .expect("sample CST builds");
    writer::pack(&cst).expect("sample packs")
}

fn sample_query() -> Twig {
    Twig::parse(r#"book(author("A"),year("19"))"#).expect("query parses")
}

/// Estimation over a possibly-degraded summary must stay finite and
/// non-negative, and must never panic.
fn assert_estimates_sane(flat: &FlatCst, context: &str) {
    let query = sample_query();
    for algorithm in Algorithm::ALL {
        for kind in [CountKind::Presence, CountKind::Occurrence] {
            let estimate = flat.estimate(&query, algorithm, kind);
            assert!(
                estimate.is_finite() && estimate >= 0.0,
                "{context}: poisoned {algorithm} {kind:?}: {estimate}"
            );
        }
    }
}

/// Every prefix truncation is a typed error at open — the header and
/// section table are validated before any payload is trusted, and a cut
/// anywhere inside the payload area shrinks some section out of bounds.
#[test]
fn every_truncation_is_a_structured_error() {
    let bytes = sample_flat_bytes();
    for cut in 0..bytes.len() {
        match FlatCst::from_bytes(bytes[..cut].to_vec()) {
            Err(
                FlatError::TooShort
                | FlatError::BadMagic
                | FlatError::BadVersion(_)
                | FlatError::Malformed(_),
            ) => {}
            Err(other) => panic!("truncation at {cut}: unexpected error class {other}"),
            Ok(_) => panic!("truncation at {cut}/{} accepted", bytes.len()),
        }
    }
    assert!(FlatCst::from_bytes(bytes).is_ok());
}

/// Truncation exactly at every section boundary (start and end) — the
/// interesting cuts a torn write produces.
#[test]
fn truncation_at_every_section_boundary_rejected() {
    let bytes = sample_flat_bytes();
    let flat = FlatCst::from_bytes(bytes.clone()).expect("sample opens");
    let mut cuts = vec![0, HEADER_LEN, TABLE_OFFSET, PAYLOAD_OFFSET];
    for info in flat.sections() {
        cuts.push(info.offset);
        cuts.push(info.offset + info.len);
    }
    cuts.sort_unstable();
    cuts.dedup();
    drop(flat);
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        assert!(
            FlatCst::from_bytes(bytes[..cut].to_vec()).is_err(),
            "boundary truncation at {cut} accepted"
        );
    }
}

/// Bit flips in the header/section-table region: either rejected at
/// open, or (e.g. a checksum byte itself) surfaced lazily — never a
/// panic, never a wild read.
#[test]
fn header_and_table_bit_flips_never_panic() {
    let bytes = sample_flat_bytes();
    let mut rng = SplitMix64::new(0xF1A7_F11B);
    for round in 0..800 {
        let mut mutated = bytes.clone();
        let position = rng.index(PAYLOAD_OFFSET.min(mutated.len()));
        let bit = rng.next_below(8) as u8;
        mutated[position] ^= 1 << bit;
        match FlatCst::from_bytes(mutated) {
            Err(_) => {}
            Ok(flat) => {
                let _ = flat.verify();
                assert_estimates_sane(&flat, &format!("round {round} flip@{position}.{bit}"));
            }
        }
    }
}

/// Bit flips anywhere in the payload: open usually succeeds (lazy
/// policy), the touched section's checksum must then catch the damage —
/// `verify()` errs, accessors stay safe, estimates stay finite.
#[test]
fn payload_bit_flips_caught_by_lazy_checksums() {
    let bytes = sample_flat_bytes();
    let mut rng = SplitMix64::new(0xF1A7_C4EC);
    let mut caught = 0u32;
    for round in 0..600 {
        let mut mutated = bytes.clone();
        let span = mutated.len() - PAYLOAD_OFFSET;
        let position = PAYLOAD_OFFSET + rng.index(span);
        let bit = rng.next_below(8) as u8;
        mutated[position] ^= 1 << bit;
        match FlatCst::from_bytes(mutated) {
            Err(_) => {}
            Ok(flat) => {
                let verdict = flat.verify();
                // A flip inside a stored section must fail verification
                // (gap bytes between aligned sections are unprotected).
                let in_section = flat
                    .sections()
                    .iter()
                    .any(|info| position >= info.offset && position < info.offset + info.len);
                if in_section {
                    assert!(
                        verdict.is_err(),
                        "round {round}: flip@{position}.{bit} escaped checksums"
                    );
                    caught += 1;
                    assert!(
                        flat.integrity_error().is_some(),
                        "round {round}: checksum failure not recorded"
                    );
                }
                assert_estimates_sane(&flat, &format!("round {round} flip@{position}.{bit}"));
            }
        }
    }
    assert!(caught > 100, "sweep never hit a protected section ({caught})");
}

/// Hostile section tables: misaligned offsets, overlaps, offsets into
/// the header, out-of-bounds ends, duplicate and unknown kinds — all
/// typed `Malformed` errors.
#[test]
fn hostile_section_tables_rejected() {
    let bytes = sample_flat_bytes();
    let entry = |index: usize| TABLE_OFFSET + index * TABLE_ENTRY_LEN;

    // Misalign the first section's offset (+1 also moves it off 64).
    let mut misaligned = bytes.clone();
    let off = entry(0) + 8;
    let old = u64::from_le_bytes(misaligned[off..off + 8].try_into().unwrap());
    misaligned[off..off + 8].copy_from_slice(&(old + 1).to_le_bytes());
    assert!(matches!(
        FlatCst::from_bytes(misaligned),
        Err(FlatError::Malformed(_) | FlatError::Checksum { .. })
    ));

    // Point the second section at the first (overlap, still aligned).
    let mut overlapping = bytes.clone();
    let first_off = entry(0) + 8;
    let second_off = entry(1) + 8;
    let first = u64::from_le_bytes(overlapping[first_off..first_off + 8].try_into().unwrap());
    overlapping[second_off..second_off + 8].copy_from_slice(&first.to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(overlapping), Err(FlatError::Malformed(_))));

    // Send a section into the header area.
    let mut into_header = bytes.clone();
    into_header[first_off..first_off + 8].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(into_header), Err(FlatError::Malformed(_))));

    // Length that runs past the end of the file.
    let mut oob = bytes.clone();
    let len_off = entry(0) + 16;
    oob[len_off..len_off + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(oob), Err(FlatError::Malformed(_))));

    // Length so large offset+len overflows usize.
    let mut wrap = bytes.clone();
    wrap[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(wrap), Err(FlatError::Malformed(_))));

    // Duplicate kind: relabel entry 1 as entry 0's kind.
    let mut duplicate = bytes.clone();
    let kind0 = duplicate[entry(0)];
    duplicate[entry(1)] = kind0;
    assert!(matches!(FlatCst::from_bytes(duplicate), Err(FlatError::Malformed(_))));

    // Unknown kind id.
    let mut unknown = bytes.clone();
    unknown[entry(0)] = 200;
    assert!(matches!(FlatCst::from_bytes(unknown), Err(FlatError::Malformed(_))));

    // Wrong declared section count.
    let mut miscounted = bytes;
    miscounted[12..16].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(miscounted), Err(FlatError::Malformed(_))));
}

/// Invariant I1 (one signature slot per trie node) is enforced at open:
/// a `SIG_INDEX` section one slot short is a typed error, so nothing
/// downstream (estimators, the auditor) ever sees a misaligned table.
#[test]
fn short_signature_index_rejected_at_open() {
    let mut bytes = sample_flat_bytes();
    let sig_index = (0..SECTION_COUNT)
        .map(|index| TABLE_OFFSET + index * TABLE_ENTRY_LEN)
        .find(|&at| bytes[at..at + 4] == SectionKind::SigIndex.id().to_le_bytes())
        .expect("table lists SIG_INDEX");
    let len_at = sig_index + 16;
    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
    bytes[len_at..len_at + 8].copy_from_slice(&(len - 4).to_le_bytes());
    assert!(matches!(
        FlatCst::from_bytes(bytes),
        Err(FlatError::Malformed("node section size mismatch"))
    ));
}

/// Garbage and tiny inputs: typed errors, no panic, no huge allocation.
#[test]
fn garbage_inputs_rejected() {
    assert!(matches!(FlatCst::from_bytes(Vec::new()), Err(FlatError::TooShort)));
    assert!(matches!(FlatCst::from_bytes(b"TWIG".to_vec()), Err(FlatError::TooShort)));
    assert!(matches!(
        FlatCst::from_bytes(vec![0u8; 4096]),
        Err(FlatError::BadMagic | FlatError::TooShort)
    ));
    // Valid magic, hostile node_count: must not allocate proportionally.
    let mut hostile = vec![0u8; HEADER_LEN + SECTION_COUNT * TABLE_ENTRY_LEN];
    hostile[..8].copy_from_slice(b"TWIGFLT1");
    hostile[8..12].copy_from_slice(&1u32.to_le_bytes());
    hostile[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    hostile[60..64].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(FlatCst::from_bytes(hostile), Err(FlatError::Malformed(_))));
}

/// A corrupt parent chain (cycle bait) must not hang or panic a
/// root-ward walk: parents must strictly decrease, so the reader treats
/// a forward pointer as corruption and returns an empty token path.
#[test]
fn corrupt_parent_pointers_cannot_loop() {
    let bytes = sample_flat_bytes();
    let flat = FlatCst::from_bytes(bytes.clone()).expect("sample opens");
    let parent_info = flat
        .sections()
        .into_iter()
        .find(|info| info.name == "NODE_PARENT")
        .expect("parent section present");
    drop(flat);
    let mut mutated = bytes;
    // Make node 1 its own parent — and refresh nothing else, so the
    // checksum trips; then ALSO test the pre-checksum guard by reading
    // through a reader that never touched the section yet.
    let off = parent_info.offset + 4;
    mutated[off..off + 4].copy_from_slice(&1u32.to_le_bytes());
    let flat = FlatCst::from_bytes(mutated).expect("structurally fine");
    assert_estimates_sane(&flat, "self-parent node");
    assert!(flat.verify().is_err(), "parent corruption escaped checksums");
}

/// Orphaned `.tmp` files from a torn pack never shadow the target: the
/// failpoint tears the temp file, the target keeps its old (or no)
/// contents, and a subsequent clean pack lands atomically.
#[test]
fn torn_pack_leaves_target_recoverable() {
    let tree = DataTree::from_xml("<a><b>x</b><b>y</b></a>").expect("xml parses");
    let cst = Cst::build(&tree, &CstConfig::default()).expect("builds");
    let dir = std::env::temp_dir().join("twig-flat-torn-pack");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("summary.flt");
    std::fs::remove_file(&path).ok();

    twig_util::failpoint::configure("flat.pack=1*partial(37),off", 0x7ea5)
        .expect("failpoint spec parses");
    let torn = writer::write_file(&cst, &path);
    assert!(torn.is_err(), "torn pack must report the injected error");
    assert!(!path.exists(), "torn pack must not materialize the target");
    let tmp = dir.join("summary.flt.tmp");
    assert!(tmp.exists(), "torn pack leaves the temp file for inspection");

    // Second attempt (failpoint exhausted) lands cleanly over the wreck.
    writer::write_file(&cst, &path).expect("clean pack lands");
    twig_util::failpoint::clear_all();
    let flat = FlatCst::open(&path).expect("packed file opens");
    flat.verify().expect("packed file verifies");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}
