//! The traced replay: a workload's exact inputs pushed through each
//! layer's public functions in-process, one span per call.

use std::collections::HashMap;

use twig_core::parse::{covers_query, maximal_pieces};
use twig_core::query::CompiledQuery;
use twig_core::twiglets::msh_twiglets;
use twig_core::{
    estimate_raw_summary, sibling_discount_summary, Algorithm, CountKind, Cst, QueryPlan, Summary,
};
use twig_flat::FlatCst;
use twig_serve::http::{encode_request, parse_request_bytes, Limits, Parsed};
use twig_serve::Json;
use twig_sethash::view_estimate_intersection;
use twig_tree::Twig;

use crate::metrics::{algo_key, FORMATS};
use crate::trace::Tracer;

/// Requests replayed through the transport and estimator layers.
pub const REQUESTS: usize = 2048;
/// Distinct twigs replayed per algorithm and format.
pub const TWIGS_PER_ALGORITHM: usize = 2048;

/// Span name of an estimator call: `core.<stage>.<algo>.<format>`.
pub fn plan_span(stage: &str, algorithm: Algorithm, format: &str) -> String {
    format!("core.{stage}.{}.{format}", algo_key(algorithm))
}

/// The replay's inputs: one workload's bodies and distinct twigs with
/// their offline MSH occurrence estimates on the flat summary.
pub struct Replay<'a> {
    pub owned: &'a Cst,
    pub flat: &'a FlatCst,
    pub bodies: &'a [String],
    pub twigs: &'a [String],
    pub expected: &'a HashMap<String, f64>,
    /// Plan hits (the served working set fits the plan cache) or misses.
    pub hot: bool,
}

fn parse(text: &str) -> Twig {
    Twig::parse(text).expect("workload twigs were checked to parse")
}

impl Replay<'_> {
    /// Runs every replay pass; returns the number of estimates that
    /// differed from the offline ones.
    pub fn run(&self, tracer: &mut Tracer) -> u64 {
        let mismatches = self.requests(tracer);
        self.miss_stages(tracer);
        mismatches + self.algorithms(tracer)
    }

    /// `REQUESTS` requests in body order, through framing, JSON decode,
    /// twig parse, the MSH estimate on the flat summary (with the plan a
    /// served request would find), the discount and JSON encode.
    fn requests(&self, tracer: &mut Tracer) -> u64 {
        // A served plan hit finds the plan its first request filled.
        let plans: HashMap<&str, QueryPlan> = if self.hot {
            self.twigs
                .iter()
                .map(|text| {
                    let plan = QueryPlan::new();
                    let (algorithm, kind) = (Algorithm::Msh, CountKind::Occurrence);
                    estimate_raw_summary(self.flat, &parse(text), algorithm, kind, Some(&plan));
                    (text.as_str(), plan)
                })
                .collect()
        } else {
            HashMap::new()
        };
        let stage = if self.hot { "plan_hit" } else { "plan_miss" };
        let estimate_span = plan_span(stage, Algorithm::Msh, "flat");
        let limits = Limits::default();
        let mut mismatches = 0;
        let mut wire = Vec::new();
        let rids = tracer.rids(REQUESTS as u64);
        for i in 0..REQUESTS {
            let body = &self.bodies[i % self.bodies.len()];
            wire.clear();
            encode_request(&mut wire, "POST", "/estimate", body.as_bytes());
            let rid = rids + i as u64;
            let root = tracer.begin("replay.request", rid);

            let open = tracer.begin("http.frame", rid);
            let framed = parse_request_bytes(&wire, &limits);
            tracer.end(open);
            let Ok(Parsed::Request { request, .. }) = framed else {
                panic!("an encoded request frames as one request");
            };

            let open = tracer.begin("json.decode", rid);
            let json = std::str::from_utf8(&request.body).ok().and_then(|t| Json::parse(t).ok());
            tracer.end(open);
            let json = json.expect("bodies are JSON");
            let queries = json.get("queries").and_then(Json::as_array).expect("queries array");

            let mut estimates = Vec::with_capacity(queries.len());
            for query in queries {
                let text = query.as_str().expect("queries are strings");
                let open = tracer.begin("tree.twig_parse", rid);
                let twig = Twig::parse(text);
                tracer.end(open);
                let twig = twig.expect("workload twigs parse");

                let fresh = QueryPlan::new();
                let plan = plans.get(text).unwrap_or(&fresh);
                let open = tracer.begin(&estimate_span, rid);
                let raw = estimate_raw_summary(
                    self.flat,
                    &twig,
                    Algorithm::Msh,
                    CountKind::Occurrence,
                    Some(plan),
                );
                tracer.end(open);

                let open = tracer.begin("core.discount", rid);
                let discount = sibling_discount_summary(self.flat, &twig);
                tracer.end(open);

                let estimate = raw * discount;
                if self.expected.get(text).map(|e| e.to_bits()) != Some(estimate.to_bits()) {
                    mismatches += 1;
                }
                estimates.push(Json::Num(estimate));
            }

            let open = tracer.begin("json.encode", rid);
            let count = estimates.len() as f64;
            let rendered = Json::Obj(vec![
                ("summary".into(), Json::str("default")),
                ("algorithm".into(), Json::str(Algorithm::Msh.name())),
                ("count_kind".into(), Json::str("occurrence")),
                ("generation".into(), Json::Num(1.0)),
                ("count".into(), Json::Num(count)),
                ("estimates".into(), Json::Arr(estimates)),
            ])
            .render();
            tracer.end(open);
            std::hint::black_box(rendered);
            tracer.end(root);
        }
        mismatches
    }

    /// The stages an MSH plan miss builds, one span each: compile,
    /// maximal pieces, twiglet grouping, and the set-hash intersection
    /// of every twiglet whose chains all carry signatures.
    fn miss_stages(&self, tracer: &mut Tracer) {
        let rids = tracer.rids(TWIGS_PER_ALGORITHM as u64);
        for (i, text) in self.twigs.iter().take(TWIGS_PER_ALGORITHM).enumerate() {
            let rid = rids + i as u64;
            let twig = parse(text);
            let root = tracer.begin("replay.miss", rid);

            let open = tracer.begin("core.compile", rid);
            let query = CompiledQuery::compile(self.flat, &twig);
            tracer.end(open);

            let open = tracer.begin("core.pieces", rid);
            let pieces = maximal_pieces(self.flat, &query);
            tracer.end(open);

            if covers_query(&query, &pieces) {
                let open = tracer.begin("core.twiglets", rid);
                let twiglets = msh_twiglets(self.flat, &query, &pieces);
                tracer.end(open);
                for twiglet in &twiglets {
                    let sets: Option<Vec<_>> = twiglet
                        .chains
                        .iter()
                        .map(|c| {
                            self.flat.signature(c.trie).map(|s| (s, self.flat.presence(c.trie)))
                        })
                        .collect();
                    let Some(sets) = sets else { continue };
                    let open = tracer.begin("sethash.intersection", rid);
                    let estimate = view_estimate_intersection(&sets);
                    tracer.end(open);
                    std::hint::black_box(estimate);
                }
            }
            tracer.end(root);
        }
    }

    /// Every algorithm on both formats: a call with a fresh plan (miss),
    /// then the same call with the plan it filled (hit). Owned and flat
    /// estimates must agree bit for bit.
    fn algorithms(&self, tracer: &mut Tracer) -> u64 {
        let twigs: Vec<Twig> =
            self.twigs.iter().take(TWIGS_PER_ALGORITHM).map(|t| parse(t)).collect();
        let mut mismatches = 0;
        for algorithm in Algorithm::ALL {
            let owned = pass(self.owned, &twigs, algorithm, FORMATS[0], tracer);
            let flat = pass(self.flat, &twigs, algorithm, FORMATS[1], tracer);
            // Both passes return (miss, hit) estimate pairs.
            mismatches += owned
                .iter()
                .zip(&flat)
                .filter(|((a, b), (c, d))| {
                    let bits = a.to_bits();
                    [b, c, d].iter().any(|x| x.to_bits() != bits)
                })
                .count();
        }
        mismatches as u64
    }
}

fn pass<S: Summary>(
    summary: &S,
    twigs: &[Twig],
    algorithm: Algorithm,
    format: &str,
    tracer: &mut Tracer,
) -> Vec<(f64, f64)> {
    let miss = plan_span("plan_miss", algorithm, format);
    let hit = plan_span("plan_hit", algorithm, format);
    let kind = CountKind::Occurrence;
    // One id per call: the miss of twig i is rids + 2i, its hit the next.
    let rids = tracer.rids(2 * twigs.len() as u64);
    twigs
        .iter()
        .enumerate()
        .map(|(i, twig)| {
            let rid = rids + 2 * i as u64;
            let plan = QueryPlan::new();
            let open = tracer.begin(&miss, rid);
            let cold = estimate_raw_summary(summary, twig, algorithm, kind, Some(&plan));
            tracer.end(open);
            let open = tracer.begin(&hit, rid + 1);
            let warm = estimate_raw_summary(summary, twig, algorithm, kind, Some(&plan));
            tracer.end(open);
            (cold, warm)
        })
        .collect()
}
