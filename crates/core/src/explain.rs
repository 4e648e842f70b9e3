//! Estimation explanations: *why* did the estimator produce this number?
//!
//! [`explain_summary`] runs one estimate through the estimator's own
//! parse, element assembly and combination with a trace sink attached,
//! and returns an [`Explanation`]: the parsed subpaths with their CST
//! counts, the twiglet decomposition, every multiplicative factor of the
//! MO combination (numerator, conditioning overlap, denominator), the
//! sibling discount, and the final number. It reads any [`Summary`], so
//! an owned and a flat summary explain identically. The `Display` impl
//! prints a compact human-readable report — the shape of thing a query
//! optimizer's `EXPLAIN` would show for a cardinality estimate.

use std::fmt;

use twig_pst::PathToken;
use twig_tree::Twig;

use crate::combine::{combine_traced, Factor};
use crate::estimate::{
    build_estimator, parse_pieces, run_estimator, sibling_discount_summary, Algorithm, CountKind,
    Parse,
};
use crate::parse::{covers_query, maximal_pieces, Piece};
use crate::plan::PlannedEstimator;
use crate::query::CompiledQuery;
use crate::summary::{Summary, TrieAccess};

/// A rendered view of one parsed subpath.
#[derive(Debug, Clone)]
pub struct ExplainedPiece {
    /// Dotted subpath notation (`dblp.book.author."Su"`).
    pub subpath: String,
    /// Presence count from the CST.
    pub presence: u64,
    /// Occurrence count from the CST.
    pub occurrence: u64,
}

/// A rendered combination factor.
#[derive(Debug, Clone)]
pub struct ExplainedFactor {
    /// "piece" or "twiglet".
    pub kind: &'static str,
    /// Subpaths in the element.
    pub subpaths: Vec<String>,
    /// Subpaths of the conditioning overlap (empty = independent join).
    pub overlap: Vec<String>,
    /// Estimated count of the element.
    pub numerator: f64,
    /// Estimated count of the overlap (`n` when independent).
    pub denominator: f64,
    /// Skipped as fully covered (contributes 1).
    pub skipped: bool,
}

/// The full explanation of one estimate.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Count kind estimated.
    pub kind: CountKind,
    /// The query, printed.
    pub query: String,
    /// Data tree size `n` used in the formulae.
    pub n: u64,
    /// Parsed subpaths with their counts.
    pub pieces: Vec<ExplainedPiece>,
    /// Whether parsing covered every query unit.
    pub covered: bool,
    /// The combination factors in processing order.
    pub factors: Vec<ExplainedFactor>,
    /// The sibling-injectivity discount applied at the end.
    pub discount: f64,
    /// The final estimate (`estimate()`'s return value).
    pub estimate: f64,
}

/// Explains one estimate. `explanation.estimate` equals
/// [`estimate_summary`](crate::estimate_summary) for the same arguments
/// bit for bit: both run the same parse, assembly and combination code.
pub fn explain_summary<S: Summary>(
    summary: &S,
    twig: &Twig,
    algorithm: Algorithm,
    kind: CountKind,
) -> Explanation {
    let query = CompiledQuery::compile(summary, twig);
    let parsed = parse_pieces(summary, twig, &query, algorithm);
    // Leaf parses value strings only; its report shows the maximal parse
    // of the whole query instead.
    let leaf_pieces;
    let shown: &[Piece] = match &parsed {
        Parse::Leaf(_) => {
            leaf_pieces = maximal_pieces(summary, &query);
            &leaf_pieces
        }
        Parse::Greedy(pieces) => pieces.as_deref().unwrap_or_default(),
        Parse::Pieces(pieces) => pieces,
    };
    let covered = covers_query(&query, shown);
    let pieces = shown
        .iter()
        .map(|p| ExplainedPiece {
            subpath: render_piece(summary, p),
            presence: summary.presence(p.trie),
            occurrence: summary.occurrence(p.trie),
        })
        .collect();
    let mut factors: Vec<Factor> = Vec::new();
    let raw = match build_estimator(summary, &query, algorithm, parsed) {
        PlannedEstimator::Elements(Some(elements)) => {
            combine_traced(summary, &query, &elements, kind, Some(&mut factors))
        }
        planned => run_estimator(summary, &query, &planned, kind),
    };
    let discount = sibling_discount_summary(summary, twig);
    Explanation {
        algorithm,
        kind,
        query: twig.to_string(),
        n: summary.n(),
        pieces,
        covered,
        factors: factors
            .iter()
            .map(|f| ExplainedFactor {
                kind: if f.is_group { "twiglet" } else { "piece" },
                subpaths: f.chains.iter().map(|c| render_piece(summary, c)).collect(),
                overlap: f.overlaps.iter().map(|c| render_piece(summary, c)).collect(),
                numerator: f.numerator,
                denominator: f.denominator,
                skipped: f.skipped,
            })
            .collect(),
        discount,
        estimate: raw * discount,
    }
}

/// Renders a piece's token chain in dotted notation.
fn render_piece<S: Summary>(summary: &S, piece: &Piece) -> String {
    let mut out = String::new();
    let mut in_value = false;
    for token in summary.trie().tokens_of(piece.trie) {
        match token {
            PathToken::Element(sym) => {
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(summary.label_str(sym));
            }
            PathToken::Char(byte) => {
                if !in_value {
                    if !out.is_empty() {
                        out.push('.');
                    }
                    out.push('"');
                    in_value = true;
                }
                out.push(byte as char);
            }
        }
    }
    if in_value {
        out.push('"');
    }
    out
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explain {} [{:?}] of {} (n = {})",
            self.algorithm, self.kind, self.query, self.n
        )?;
        writeln!(f, "parsed subpaths ({}):", self.pieces.len())?;
        for piece in &self.pieces {
            writeln!(
                f,
                "  {:<50} Cp = {:<8} Co = {}",
                piece.subpath, piece.presence, piece.occurrence
            )?;
        }
        if !self.covered {
            writeln!(f, "  !! query not fully covered -> estimate 0")?;
        }
        if !self.factors.is_empty() {
            writeln!(f, "combination:")?;
            for factor in &self.factors {
                if factor.skipped {
                    writeln!(f, "  [{}] {:?} (fully covered, x1)", factor.kind, factor.subpaths)?;
                    continue;
                }
                let overlap = if factor.overlap.is_empty() {
                    "n (independent)".to_owned()
                } else {
                    format!("{:?}", factor.overlap)
                };
                writeln!(
                    f,
                    "  [{}] {:?}: {:.3} / {:.3}  (overlap: {})",
                    factor.kind, factor.subpaths, factor.numerator, factor.denominator, overlap
                )?;
            }
        }
        if self.discount != 1.0 {
            writeln!(f, "sibling-injectivity discount: {:.4}", self.discount)?;
        }
        writeln!(f, "estimate: {:.3}", self.estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    fn fixture() -> Cst {
        let mut xml = String::from("<dblp>");
        for _ in 0..20 {
            xml.push_str("<book><author>Anna</author><year>1999</year></book>");
        }
        for _ in 0..20 {
            xml.push_str("<book><author>Bo</author><year>2000</year></book>");
        }
        xml.push_str("</dblp>");
        Cst::build(
            &DataTree::from_xml(&xml).unwrap(),
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("CST config is valid")
    }

    #[test]
    fn explanation_matches_estimate_for_all_algorithms() {
        let cst = fixture();
        for expr in [
            r#"book(author("Anna"),year("1999"))"#,
            r#"dblp(book(author("Bo")))"#,
            "book(author,author)",
            r#"book(publisher("X"))"#,
        ] {
            let twig = Twig::parse(expr).unwrap();
            for algo in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    let explanation = explain_summary(&cst, &twig, algo, kind);
                    let direct = cst.estimate(&twig, algo, kind);
                    assert_eq!(
                        explanation.estimate.to_bits(),
                        direct.to_bits(),
                        "{algo} {kind:?} {expr}: explain {} vs estimate {direct}",
                        explanation.estimate
                    );
                }
            }
        }
    }

    #[test]
    fn explanation_shows_twiglet_for_mosh() {
        let cst = fixture();
        let twig = Twig::parse(r#"book(author("Anna"),year("1999"))"#).unwrap();
        let explanation = explain_summary(&cst, &twig, Algorithm::Mosh, CountKind::Presence);
        assert!(explanation.covered);
        assert!(explanation.factors.iter().any(|f| f.kind == "twiglet"));
        let rendered = explanation.to_string();
        assert!(rendered.contains("book.author.\"Anna\""), "{rendered}");
        assert!(rendered.contains("estimate:"), "{rendered}");
    }

    #[test]
    fn explanation_flags_uncovered_queries() {
        let cst = fixture();
        let twig = Twig::parse(r#"book(publisher("X"))"#).unwrap();
        let explanation = explain_summary(&cst, &twig, Algorithm::Mosh, CountKind::Presence);
        assert!(!explanation.covered);
        assert_eq!(explanation.estimate, 0.0);
        assert!(explanation.to_string().contains("not fully covered"));
    }

    #[test]
    fn explanation_shows_discount() {
        let cst = fixture();
        let twig = Twig::parse("book(author,author)").unwrap();
        let explanation = explain_summary(&cst, &twig, Algorithm::PureMo, CountKind::Occurrence);
        assert_eq!(explanation.discount, 0.0, "books have a single author");
        assert!(explanation.to_string().contains("discount"));
    }
}
