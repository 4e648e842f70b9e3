//! Satellite: the mapped view is not "approximately" the owned summary
//! — it IS the owned summary, bit for bit.
//!
//! Seed sweep over generated DBLP and SPROT corpora: pack each owned
//! `Cst` into the flat layout, then compare `FlatCst` against the owned
//! structure across all six algorithms, both count kinds, with and
//! without a cached `QueryPlan` — every estimate compared by
//! `f64::to_bits`. The estimators run the identical float-op sequence
//! over both storages (signatures are read through `SigView`), so any
//! divergence is a format or reader bug, not rounding.

use twig_core::{Algorithm, CountKind, Cst, CstConfig, QueryPlan, SpaceBudget};
use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_flat::{writer, FlatCst};
use twig_tree::{DataTree, Twig};

fn workload(tree: &DataTree, seed: u64) -> Vec<Twig> {
    let cfg = WorkloadConfig { count: 12, seed, ..WorkloadConfig::default() };
    let mut queries = positive_queries(tree, &cfg);
    queries.extend(negative_query_candidates(tree, &cfg));
    queries.extend(trivial_queries(tree, &WorkloadConfig { count: 4, seed, ..cfg }));
    assert!(!queries.is_empty(), "workload generation produced no queries");
    queries
}

fn assert_bit_identical(cst: &Cst, flat: &FlatCst, queries: &[Twig], context: &str) {
    for twig in queries {
        let plan = QueryPlan::new();
        for algorithm in Algorithm::ALL {
            for kind in [CountKind::Presence, CountKind::Occurrence] {
                let owned = cst.estimate(twig, algorithm, kind);
                let mapped = flat.estimate(twig, algorithm, kind);
                assert_eq!(
                    owned.to_bits(),
                    mapped.to_bits(),
                    "{context}: flat diverges: {twig} {algorithm} {kind:?} \
                     owned={owned} flat={mapped}"
                );
                let owned_raw = cst.estimate_raw(twig, algorithm, kind, None);
                let cold = flat.estimate_raw(twig, algorithm, kind, Some(&plan));
                let warm = flat.estimate_raw(twig, algorithm, kind, Some(&plan));
                assert_eq!(
                    owned_raw.to_bits(),
                    cold.to_bits(),
                    "{context}: cold plan over flat diverges: {twig} {algorithm} {kind:?}"
                );
                assert_eq!(
                    owned_raw.to_bits(),
                    warm.to_bits(),
                    "{context}: warm plan over flat diverges: {twig} {algorithm} {kind:?}"
                );
            }
        }
        let owned_discount = cst.sibling_discount(twig);
        let flat_discount = flat.sibling_discount(twig);
        assert_eq!(
            owned_discount.to_bits(),
            flat_discount.to_bits(),
            "{context}: sibling discount diverges: {twig}"
        );
    }
}

/// DBLP-shaped corpora across thresholds and signature lengths.
#[test]
fn dblp_sweep_owned_vs_flat_bit_identical() {
    for seed in [0xF1A7_0001u64, 0xF1A7_0002] {
        let xml =
            generate_dblp(&DblpConfig { target_bytes: 50_000, seed, ..DblpConfig::default() });
        let tree = DataTree::from_xml(&xml).expect("generated DBLP parses");
        for (threshold, signature_len) in [(1, 8), (3, 32)] {
            let cst = Cst::build(
                &tree,
                &CstConfig {
                    budget: SpaceBudget::Threshold(threshold),
                    signature_len,
                    ..CstConfig::default()
                },
            )
            .expect("CST builds");
            let flat = FlatCst::from_bytes(writer::pack(&cst).expect("packs")).expect("flat opens");
            flat.verify().expect("checksums verify");
            let queries = workload(&tree, seed ^ 0x51);
            assert_bit_identical(
                &cst,
                &flat,
                &queries,
                &format!("dblp seed {seed:#x} t{threshold} L{signature_len}"),
            );
        }
    }
}

/// SPROT-shaped corpus (deep values, character edges).
#[test]
fn sprot_sweep_owned_vs_flat_bit_identical() {
    let seed = 0xF1A7_0005u64;
    let xml = generate_sprot(&SprotConfig { target_bytes: 50_000, seed });
    let tree = DataTree::from_xml(&xml).expect("generated SPROT parses");
    let cst = Cst::build(
        &tree,
        &CstConfig { budget: SpaceBudget::Fraction(0.2), ..CstConfig::default() },
    )
    .expect("CST builds");
    let flat = FlatCst::from_bytes(writer::pack(&cst).expect("packs")).expect("flat opens");
    let queries = workload(&tree, seed);
    assert_bit_identical(&cst, &flat, &queries, "sprot");
}

/// The two storages a served `FlatCst` can have — a mapped file and
/// heap bytes — both agree with the owned `Cst`, bit for bit.
#[test]
fn mmap_and_heap_paths_bit_identical() {
    let xml = generate_dblp(&DblpConfig {
        target_bytes: 40_000,
        seed: 0xF1A7_0009,
        ..DblpConfig::default()
    });
    let tree = DataTree::from_xml(&xml).expect("generated DBLP parses");
    let cst = Cst::build(&tree, &CstConfig::default()).expect("CST builds");

    let dir = std::env::temp_dir().join("twig-flat-bit-identity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sweep.flt");
    writer::write_file(&cst, &path).expect("flat file lands");
    let mapped = FlatCst::open(&path).expect("flat file loads");
    #[cfg(unix)]
    assert!(mapped.is_mapped());

    let heap = FlatCst::from_bytes(writer::pack(&cst).expect("packs")).expect("heap flat");
    assert!(!heap.is_mapped());

    for twig in workload(&tree, 0x1d) {
        let plan_mapped = QueryPlan::new();
        let plan_heap = QueryPlan::new();
        for algorithm in Algorithm::ALL {
            for kind in [CountKind::Presence, CountKind::Occurrence] {
                let baseline = cst.estimate(&twig, algorithm, kind);
                for (flat, plan, name) in
                    [(&mapped, &plan_mapped, "mmap"), (&heap, &plan_heap, "heap")]
                {
                    let direct = flat.estimate(&twig, algorithm, kind);
                    assert_eq!(
                        baseline.to_bits(),
                        direct.to_bits(),
                        "{name}: flat diverges: {twig} {algorithm} {kind:?}"
                    );
                    let planned = flat.estimate_raw(&twig, algorithm, kind, Some(plan))
                        * flat.sibling_discount(&twig);
                    assert_eq!(
                        baseline.to_bits(),
                        planned.to_bits(),
                        "{name}: planned product diverges: {twig} {algorithm} {kind:?}"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
