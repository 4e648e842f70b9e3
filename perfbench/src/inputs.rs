//! Seeded inputs: the corpus, the twig sets and the request bodies.
//!
//! Everything here is a pure function of the `--seed` argument; the
//! program under test only ever sees the generated XML and the request
//! bodies.

use std::collections::HashSet;

use twig_datagen::{generate_dblp, positive_queries, DblpConfig, WorkloadConfig};
use twig_serve::Json;
use twig_tree::{DataTree, Twig};
use twig_util::SplitMix64;

/// Corpus size: one DBLP-shaped document of about 4 MB.
pub const CORPUS_BYTES: usize = 4 << 20;
/// Summary space budget as a fraction of the corpus (the paper's range).
pub const SPACE_FRACTION: f64 = 0.1;
/// Twigs per `/estimate` request.
pub const BATCH: usize = 8;
/// Requests in flight per connection.
pub const DEPTH: usize = 8;
/// Positive twigs scored against the exact counts.
pub const QERROR_TWIGS: usize = 500;

/// Independent per-purpose seeds derived from the run's seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The seeded DBLP corpus of `bytes` bytes.
pub fn corpus(seed: u64, bytes: usize) -> String {
    generate_dblp(&DblpConfig {
        target_bytes: bytes,
        seed: sub_seed(seed, 1),
        ..DblpConfig::default()
    })
}

/// `count` distinct positive twigs (2–5 paths, the paper's Sec. 6.1
/// workload) in their canonical text form, first-drawn first. Fails when
/// the corpus cannot yield that many distinct twigs.
pub fn distinct_twigs(
    tree: &DataTree,
    seed: u64,
    stream: u64,
    count: usize,
) -> Result<Vec<String>, String> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    for round in 0..16u64 {
        let config = WorkloadConfig {
            count,
            seed: sub_seed(seed, stream * 1000 + round),
            ..WorkloadConfig::default()
        };
        for twig in positive_queries(tree, &config) {
            let text = twig.to_string();
            // Only twigs whose text parses back identically are served.
            let round_trips = Twig::parse(&text).map(|t| t.to_string() == text).unwrap_or(false);
            if round_trips && seen.insert(text.clone()) {
                out.push(text);
                if out.len() == count {
                    return Ok(out);
                }
            }
        }
    }
    Err(format!("the corpus yields only {} distinct twigs, {count} needed", out.len()))
}

/// One `/estimate` body per consecutive [`BATCH`] of `twigs`: MSH,
/// occurrence counts.
pub fn bodies(twigs: &[String]) -> Vec<String> {
    twigs
        .chunks_exact(BATCH)
        .map(|batch| {
            Json::Obj(vec![
                ("algorithm".into(), Json::str("msh")),
                ("count_kind".into(), Json::str("occurrence")),
                ("queries".into(), Json::Arr(batch.iter().map(|t| Json::str(t)).collect())),
            ])
            .render()
        })
        .collect()
}

/// Seed streams of the twig sets.
pub const HOT_STREAM: u64 = 2;
pub const COLD_STREAM: u64 = 3;
pub const QERROR_STREAM: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies_for(seed: u64) -> Vec<String> {
        let xml = corpus(seed, 64 << 10);
        let tree = DataTree::from_xml(&xml).expect("generated XML parses");
        bodies(&distinct_twigs(&tree, seed, HOT_STREAM, 64).expect("64 distinct twigs"))
    }

    #[test]
    fn same_seed_same_bodies_other_seed_other_bodies() {
        let a = bodies_for(7);
        assert_eq!(a.len(), 8);
        assert_eq!(a, bodies_for(7), "a seed must regenerate byte-identical bodies");
        assert_ne!(a, bodies_for(8), "another seed must change the bodies");
        let body = Json::parse(&a[0]).expect("a body is JSON");
        assert_eq!(body.get("queries").and_then(Json::as_array).map(<[Json]>::len), Some(BATCH));
    }

    #[test]
    fn twig_sets_are_distinct_and_parse() {
        let xml = corpus(1, 64 << 10);
        let tree = DataTree::from_xml(&xml).expect("generated XML parses");
        let twigs = distinct_twigs(&tree, 1, COLD_STREAM, 200).expect("200 distinct twigs");
        let unique: HashSet<&String> = twigs.iter().collect();
        assert_eq!(unique.len(), twigs.len());
        assert!(twigs.iter().all(|t| Twig::parse(t).is_ok()));
        assert_ne!(twigs, distinct_twigs(&tree, 1, HOT_STREAM, 200).expect("hot set"));
    }
}
