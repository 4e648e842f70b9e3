//! Micro-benchmarks of the hot inner machinery: min-hash operations,
//! query parsing, and trie walks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use twig_core::{Cst, CstConfig, SpaceBudget};
use twig_datagen::{generate_dblp, DblpConfig};
use twig_sethash::{estimate_intersection, HashFamily, Signature};
use twig_tree::{DataTree, Twig};

fn bench_sethash(c: &mut Criterion) {
    let mut group = c.benchmark_group("sethash");
    for &len in &[32usize, 128] {
        let family = HashFamily::new(len, 0xBE);
        group.bench_with_input(BenchmarkId::new("build_1k", len), &len, |b, _| {
            b.iter(|| black_box(Signature::build(&family, 0..1_000)));
        });
        let a = Signature::build(&family, 0..1_000).truncate();
        let b_sig = Signature::build(&family, 500..1_500).truncate();
        group.bench_with_input(BenchmarkId::new("resemblance", len), &len, |b, _| {
            b.iter(|| black_box(Signature::resemblance(&[&a, &b_sig])));
        });
        group.bench_with_input(BenchmarkId::new("intersection", len), &len, |b, _| {
            b.iter(|| black_box(estimate_intersection(&[(&a, 1000), (&b_sig, 1000)])));
        });
    }
    group.finish();
}

fn bench_query_pipeline(c: &mut Criterion) {
    let xml = generate_dblp(&DblpConfig {
        target_bytes: 512 << 10,
        seed: 3,
        ..DblpConfig::default()
    });
    let tree = DataTree::from_xml(&xml).expect("well-formed");
    let cst = Cst::build(
        &tree,
        &CstConfig { budget: SpaceBudget::Fraction(0.10), ..CstConfig::default() },
    ).expect("CST config is valid");
    let mut group = c.benchmark_group("query");
    group.bench_function("twig_parse", |b| {
        b.iter(|| black_box(Twig::parse(r#"article(author("S"),journal("TODS"),year("199"))"#)))
    });
    group.bench_function("xpath_parse", |b| {
        b.iter(|| {
            black_box(twig_tree::parse_xpath(
                r#"/dblp/article[author="S"][journal="TODS"]/year"#,
            ))
        })
    });
    let twig = Twig::parse(r#"article(author("S"),journal("TODS"),year("199"))"#).unwrap();
    group.bench_function("explain", |b| {
        b.iter(|| {
            black_box(twig_core::explain_summary(
                &cst,
                &twig,
                twig_core::Algorithm::Msh,
                twig_core::CountKind::Occurrence,
            ))
        })
    });
    let mut buffer = Vec::new();
    cst.write_to(&mut buffer).unwrap();
    group.bench_function("summary_deserialize", |b| {
        b.iter(|| black_box(Cst::read_from(&mut buffer.as_slice()).expect("valid")))
    });
    group.finish();
}

criterion_group!(benches, bench_sethash, bench_query_pipeline);
criterion_main!(benches);
