//! Property tests for the CST invariant auditor (`twig_core::audit`).
//!
//! Every summary this crate can build — any corpus, any space budget, any
//! signature configuration — must pass its own audit: the auditor encodes
//! the invariant catalogue (DESIGN.md), and a healthy pipeline never
//! violates it. These tests sweep randomly generated DBLP- and
//! SPROT-shaped corpora across the configuration grid and assert the
//! audit comes back empty, including the estimate-sanity pass (I8) over a
//! sampled positive workload.
//!
//! Deterministic seed loops, no external framework (offline build); a
//! failing seed prints in the assertion message.

use twig_core::{audit_estimates, audit_summary, Cst, CstConfig, SpaceBudget};
use twig_datagen::{
    generate_dblp, generate_sprot, positive_queries, DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_tree::DataTree;

fn dblp_tree(seed: u64) -> DataTree {
    let xml = generate_dblp(&DblpConfig { target_bytes: 40_000, seed, ..DblpConfig::default() });
    DataTree::from_xml(&xml).expect("generated DBLP XML parses")
}

fn sprot_tree(seed: u64) -> DataTree {
    let xml = generate_sprot(&SprotConfig { target_bytes: 40_000, seed });
    DataTree::from_xml(&xml).expect("generated SPROT XML parses")
}

/// The configuration grid each corpus is summarized under.
fn configs() -> Vec<CstConfig> {
    let mut grid = Vec::new();
    for budget in [
        SpaceBudget::Threshold(1),
        SpaceBudget::Threshold(3),
        SpaceBudget::Fraction(0.05),
        SpaceBudget::Fraction(0.5),
        SpaceBudget::Bytes(2_000),
    ] {
        for signature_len in [8, 32] {
            for with_signatures in [true, false] {
                grid.push(CstConfig {
                    budget,
                    signature_len,
                    with_signatures,
                    ..CstConfig::default()
                });
            }
        }
    }
    grid
}

fn audit_clean(tree: &DataTree, seed: u64, corpus: &str) {
    for (idx, config) in configs().iter().enumerate() {
        let cst = Cst::build(tree, config).expect("CST config is valid");
        let violations = audit_summary(&cst);
        assert!(
            violations.is_empty(),
            "seed {seed} {corpus} config #{idx} ({:?}): {violations:?}",
            config.budget
        );
    }
}

/// Freshly built summaries pass the structural audit (I1–I7) for every
/// budget × signature configuration, DBLP corpus shape.
#[test]
fn built_dblp_summaries_pass_audit() {
    for case in 0..6u64 {
        let seed = 41 + case * 977;
        audit_clean(&dblp_tree(seed), seed, "dblp");
    }
}

/// Same sweep over the SPROT corpus shape (deeper values, different
/// label distribution).
#[test]
fn built_sprot_summaries_pass_audit() {
    for case in 0..6u64 {
        let seed = 1_009 + case * 577;
        audit_clean(&sprot_tree(seed), seed, "sprot");
    }
}

/// The estimate audit (I8) holds over a sampled positive workload: no
/// algorithm produces NaN, infinite, or negative estimates on summaries
/// at any pruning level.
#[test]
fn estimates_pass_audit_on_sampled_workloads() {
    for case in 0..4u64 {
        let seed = 7 + case * 3_163;
        let tree = dblp_tree(seed);
        let queries = positive_queries(
            &tree,
            &WorkloadConfig { count: 6, seed: seed ^ 0xA0D1, ..WorkloadConfig::default() },
        );
        for budget in [SpaceBudget::Threshold(1), SpaceBudget::Fraction(0.02)] {
            let cst = Cst::build(&tree, &CstConfig { budget, ..CstConfig::default() })
                .expect("CST config is valid");
            let violations = audit_estimates(&cst, &queries);
            assert!(violations.is_empty(), "seed {seed} budget {budget:?}: {violations:?}");
        }
    }
}

/// Serialization roundtrips preserve audit cleanliness: what was healthy
/// on write is healthy after read.
#[test]
fn roundtripped_summaries_pass_audit() {
    for case in 0..3u64 {
        let seed = 271 + case * 1_433;
        let tree = dblp_tree(seed);
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Fraction(0.1), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let mut buffer = Vec::new();
        cst.write_to(&mut buffer).expect("serialize");
        let restored = Cst::read_from(&mut buffer.as_slice()).expect("deserialize");
        let violations = audit_summary(&restored);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}
