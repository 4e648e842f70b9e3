//! Metric names, units and the one-line JSON result.
//!
//! `END_TO_END` and [`per_layer`] are the benchmark's contract with
//! `BENCHMARK.json`: the tests check that the two name the same metrics
//! with the same units.

use twig_core::Algorithm;

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool) -> Def {
    Def { name: name.to_owned(), unit, higher_is_better }
}

/// `(name, unit, higher is better)` of every end-to-end metric,
/// reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("estimates_per_s", "1/s", true),
    ("latency_p50_us", "us", false),
    ("latency_p99_us", "us", false),
    ("peak_rss_mb", "MB", false),
    ("build_s", "s", false),
    ("summary_bytes", "bytes", false),
    ("qerror_p50", "ratio", false),
    ("qerror_gmean", "ratio", false),
    ("setup_s", "s", false),
];

/// The metric-name fragment of an algorithm (`msh`, `mo`, ...).
pub fn algo_key(algorithm: Algorithm) -> String {
    algorithm.name().to_ascii_lowercase()
}

/// The two summary formats the replay estimates on.
pub const FORMATS: [&str; 2] = ["owned", "flat"];

/// Every per-layer metric, reported by every workload's traced run.
pub fn per_layer() -> Vec<Def> {
    let mut defs = vec![
        def("serve.cpu_us_per_req", "us", false),
        def("serve.handler_us_per_req", "us", false),
        def("serve.transport_us_per_req", "us", false),
        def("serve.syscalls_per_req", "count/req", false),
        def("serve.ctx_switches_per_req", "count/req", false),
        def("serve.plan_hit_ratio", "ratio", true),
        def("serve.plan_evictions_per_req", "count/req", false),
        def("core.estimate_us", "us", false),
        def("client.cpu_us_per_req", "us", false),
        def("client.verify_us", "us", false),
        def("http.frame_us", "us", false),
        def("json.decode_us", "us", false),
        def("json.encode_us", "us", false),
        def("tree.twig_parse_us", "us", false),
        def("core.compile_us", "us", false),
        def("core.pieces_us", "us", false),
        def("core.twiglets_us", "us", false),
        def("core.discount_us", "us", false),
        def("sethash.intersection_us", "us", false),
    ];
    for stage in ["plan_hit", "plan_miss"] {
        for algorithm in Algorithm::ALL {
            for format in FORMATS {
                defs.push(def(
                    &format!("core.{stage}_us.{}.{format}", algo_key(algorithm)),
                    "us",
                    false,
                ));
            }
        }
    }
    defs.extend([
        def("xml.parse_s", "s", false),
        def("pst.trie_s", "s", false),
        def("core.prune_sign_s", "s", false),
        def("flat.pack_s", "s", false),
        def("pst.trie_nodes", "count", false),
        def("core.summary_nodes", "count", true),
        def("core.qerror_p90", "ratio", false),
        def("flat.open_us", "us", false),
        def("trace.spans_on_estimates_per_s_ratio", "ratio", true),
        def("trace.spans_on_latency_p50_ratio", "ratio", false),
    ]);
    defs
}

/// Every end-to-end metric as a [`Def`].
pub fn end_to_end() -> Vec<Def> {
    END_TO_END.iter().map(|&(name, unit, higher)| def(name, unit, higher)).collect()
}

/// A metric name `BENCHMARK.json` allows: 1..=64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes.iter().all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Collected metric values, checked against a definition list.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_owned(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result object for `defs`: every defined metric, in order.
    /// Errors name a metric that was never set or is not finite.
    pub fn render(
        &self,
        defs: &[Def],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            if !valid_name(&d.name) {
                return Err(format!("metric name {:?} is not valid", d.name));
            }
            let value =
                self.get(&d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", d.name));
            }
            metrics.push(format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", d.name, d.unit));
        }
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_serve::Json;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        for name in &names {
            assert!(valid_name(name), "invalid metric name {name:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            let listed: Vec<(String, String, bool)> = listed
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                    (field("name"), field("unit"), field("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> =
                defs.into_iter().map(|d| (d.name, d.unit.to_owned(), d.higher_is_better)).collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn render_requires_every_metric() {
        let defs = vec![def("a", "s", false), def("b", "us", true)];
        let mut report = Report::default();
        report.set("a", 1.5);
        assert!(report.render(&defs, true, 1, 0).is_err());
        report.set("b", 2.0);
        let line = report.render(&defs, true, 3, 0).expect("complete");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"s\"},\"b\":{\"value\":2,\"unit\":\"us\"}}}"
        );
        report.set("b", f64::NAN);
        assert!(report.render(&defs, true, 3, 0).is_err());
    }
}
