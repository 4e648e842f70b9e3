//! Explanations and audits read any summary: over the packed `FlatCst`
//! they agree with the owned `Cst` exactly.
//!
//! `explain_summary` runs the estimator's own parse, assembly and
//! combination, so its `estimate` equals `estimate_summary` bit for bit
//! on either storage, and its rendered report is the same text. The
//! generic auditor reports the same violation list on both storages,
//! for healthy summaries and for a corrupted one packed as-is.

use twig_core::{
    audit_estimates, audit_summary, estimate_summary, explain_summary, Algorithm, AuditViolation,
    CountKind, Cst, CstConfig, SpaceBudget,
};
use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_flat::{writer, FlatCst};
use twig_tree::{DataTree, Twig};

/// The bit-identity suite's workload: positive, negative and trivial
/// twigs sampled from the corpus.
fn workload(tree: &DataTree, seed: u64) -> Vec<Twig> {
    let cfg = WorkloadConfig { count: 12, seed, ..WorkloadConfig::default() };
    let mut queries = positive_queries(tree, &cfg);
    queries.extend(negative_query_candidates(tree, &cfg));
    queries.extend(trivial_queries(tree, &WorkloadConfig { count: 4, seed, ..cfg }));
    assert!(!queries.is_empty(), "workload generation produced no queries");
    queries
}

fn pack(cst: &Cst) -> FlatCst {
    FlatCst::from_bytes(writer::pack(cst).expect("packs")).expect("flat opens")
}

/// The bit-identity suite's corpora: DBLP across thresholds and
/// signature lengths, and SPROT at a space fraction, each with its
/// workload.
fn corpora() -> Vec<(String, Cst, Vec<Twig>)> {
    let mut cases = Vec::new();
    for seed in [0xF1A7_0001u64, 0xF1A7_0002] {
        let xml =
            generate_dblp(&DblpConfig { target_bytes: 50_000, seed, ..DblpConfig::default() });
        let tree = DataTree::from_xml(&xml).expect("generated DBLP parses");
        for (threshold, signature_len) in [(1, 8), (3, 32)] {
            let config = CstConfig {
                budget: SpaceBudget::Threshold(threshold),
                signature_len,
                ..CstConfig::default()
            };
            cases.push((
                format!("dblp seed {seed:#x} t{threshold} L{signature_len}"),
                Cst::build(&tree, &config).expect("CST builds"),
                workload(&tree, seed ^ 0x51),
            ));
        }
    }
    let seed = 0xF1A7_0005u64;
    let xml = generate_sprot(&SprotConfig { target_bytes: 50_000, seed });
    let tree = DataTree::from_xml(&xml).expect("generated SPROT parses");
    let config = CstConfig { budget: SpaceBudget::Fraction(0.2), ..CstConfig::default() };
    let cst = Cst::build(&tree, &config).expect("CST builds");
    cases.push(("sprot".to_owned(), cst, workload(&tree, seed)));
    cases
}

#[test]
fn flat_explanations_match_owned_estimates_and_text() {
    for (context, cst, queries) in corpora() {
        let flat = pack(&cst);
        for twig in &queries {
            for algorithm in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    let direct = estimate_summary(&cst, twig, algorithm, kind);
                    let owned = explain_summary(&cst, twig, algorithm, kind);
                    let mapped = explain_summary(&flat, twig, algorithm, kind);
                    assert_eq!(
                        owned.estimate.to_bits(),
                        direct.to_bits(),
                        "{context}: owned explanation drifts: {twig} {algorithm} {kind:?}"
                    );
                    assert_eq!(
                        mapped.estimate.to_bits(),
                        direct.to_bits(),
                        "{context}: flat explanation drifts: {twig} {algorithm} {kind:?}"
                    );
                    assert_eq!(
                        owned.to_string(),
                        mapped.to_string(),
                        "{context}: rendered explanations differ: {twig} {algorithm} {kind:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn healthy_summaries_audit_clean_on_both_storages() {
    for (context, cst, queries) in corpora() {
        let flat = pack(&cst);
        assert_eq!(audit_summary(&cst), vec![], "{context}: owned");
        assert_eq!(audit_summary(&flat), vec![], "{context}: flat");
        assert_eq!(audit_estimates(&cst, &queries), vec![], "{context}: owned I8");
        assert_eq!(audit_estimates(&flat, &queries), vec![], "{context}: flat I8");
    }
}

/// A summary whose node 1 has presence above occurrence (I2a), rebuilt
/// through the owned deserializer (`Cst::from_parts`) and then packed:
/// both storages report the same violations.
#[test]
fn corrupted_summary_audits_identically_on_both_storages() {
    let xml = generate_dblp(&DblpConfig {
        target_bytes: 20_000,
        seed: 0xF1A7_0003,
        ..Default::default()
    });
    let tree = DataTree::from_xml(&xml).expect("generated DBLP parses");
    let cst = Cst::build(
        &tree,
        &CstConfig { budget: SpaceBudget::Fraction(0.2), ..CstConfig::default() },
    )
    .expect("CST builds");
    let mut bytes = Vec::new();
    cst.write_to(&mut bytes).expect("encodes");

    // The node table follows the fixed header (8-byte magic, 4×u64,
    // 3×u32) and the label table; records are five u32 fields plus a
    // flag byte, presence at +12 and occurrence at +16.
    let read_u32 = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("u32 field"))
    };
    let mut at = 8 + 4 * 8 + 3 * 4;
    let labels = read_u32(&bytes, at);
    at += 4;
    for _ in 0..labels {
        at += 4 + read_u32(&bytes, at) as usize;
    }
    let node1 = at + 4 + 21;
    let occurrence = read_u32(&bytes, node1 + 16);
    bytes[node1 + 12..node1 + 16].copy_from_slice(&(occurrence + 7).to_le_bytes());

    let corrupted = Cst::from_bytes(&bytes).expect("structurally valid");
    let owned = audit_summary(&corrupted);
    assert!(
        owned.contains(&AuditViolation::PresenceExceedsOccurrence {
            node: 1,
            presence: u64::from(occurrence) + 7,
            occurrence: u64::from(occurrence),
        }),
        "got {owned:?}"
    );
    assert_eq!(audit_summary(&pack(&corrupted)), owned);
}
