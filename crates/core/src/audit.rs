//! Runtime invariant auditor for CST summaries.
//!
//! [`audit_summary`] validates the structural invariant catalogue the
//! estimators assume (DESIGN.md § "Invariant catalogue") over any
//! [`Summary`] — an owned [`Cst`](crate::Cst) or a flat container; a
//! healthy summary returns no violations, a corrupted or miscomputed one
//! returns a description of every broken invariant instead of panicking
//! deep in an estimator. [`audit_estimates`] additionally checks the
//! numeric contract of the estimator outputs on caller-supplied queries.
//!
//! I1 (one signature slot per trie node) is not audited: both summary
//! constructors reject a misaligned signature table, so no summary the
//! auditor can be handed breaks it.

use std::fmt;

use twig_pst::TrieNodeId;
use twig_tree::Twig;

use crate::estimate::{estimate_summary, Algorithm, CountKind};
use crate::summary::{Summary, TrieAccess};

/// A broken CST invariant, identified by the numbering of DESIGN.md's
/// invariant catalogue.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// I2a — presence counts distinct rooting nodes, occurrence counts
    /// all 1-1 mappings; `Cp(α) ≤ Co(α)` always.
    PresenceExceedsOccurrence {
        /// Violating trie node.
        node: u32,
        /// Its presence count.
        presence: u64,
        /// Its occurrence count.
        occurrence: u64,
    },
    /// I2b — a kept subpath was seen in the data, so both of its counts
    /// are at least 1.
    ZeroCount {
        /// Violating trie node.
        node: u32,
    },
    /// I3a — `pc` is monotone along trie edges: a path containing `α.x`
    /// contains `α` (non-root parents only).
    PathCountExceedsParent {
        /// Violating trie node.
        node: u32,
        /// Its `pc`.
        child: u32,
        /// Its parent's `pc`.
        parent: u32,
    },
    /// I3b — presence is monotone along trie edges: every rooting node
    /// of `α.x` roots `α` (non-root parents only).
    PresenceExceedsParent {
        /// Violating trie node.
        node: u32,
        /// Its presence.
        child: u64,
        /// Its parent's presence.
        parent: u64,
    },
    /// I4 — pruning keeps exactly the subpaths with `pc(α) ≥ threshold`.
    BelowThreshold {
        /// Violating trie node.
        node: u32,
        /// Its `pc`.
        path_count: u32,
        /// The trie's prune threshold.
        threshold: u32,
    },
    /// I5 — all signatures come from one hash family of length `L`.
    WrongSignatureLength {
        /// Violating trie node.
        node: u32,
        /// Components stored at the node.
        len: usize,
        /// The summary's `L`.
        expected: usize,
    },
    /// I6a — string subpaths carry no signature (paper footnote 3: leaf
    /// paths are estimated by counts alone).
    SignatureOnStringPath {
        /// Violating trie node.
        node: u32,
    },
    /// I6b — when the summary was built with signatures, every
    /// label-rooted non-root subpath has one.
    MissingSignature {
        /// Violating trie node.
        node: u32,
    },
    /// I7 — the child table and the parent/edge links describe the same
    /// tree.
    ParentChildMismatch {
        /// Node whose parent's child table does not point back at it.
        node: u32,
    },
    /// I8 — estimates are finite and non-negative for every algorithm
    /// and count kind.
    NonFiniteEstimate {
        /// The algorithm that produced the value.
        algorithm: Algorithm,
        /// The count kind requested.
        kind: CountKind,
        /// The offending query, printed.
        query: String,
        /// The value produced.
        value: f64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PresenceExceedsOccurrence { node, presence, occurrence } => {
                write!(f, "I2a: node {node} has presence {presence} > occurrence {occurrence}")
            }
            Self::ZeroCount { node } => {
                write!(f, "I2b: kept node {node} has a zero presence or occurrence count")
            }
            Self::PathCountExceedsParent { node, child, parent } => {
                write!(f, "I3a: node {node} has pc {child} > parent pc {parent}")
            }
            Self::PresenceExceedsParent { node, child, parent } => {
                write!(f, "I3b: node {node} has presence {child} > parent presence {parent}")
            }
            Self::BelowThreshold { node, path_count, threshold } => {
                write!(f, "I4: node {node} kept with pc {path_count} below threshold {threshold}")
            }
            Self::WrongSignatureLength { node, len, expected } => {
                write!(f, "I5: node {node} has a {len}-component signature, expected {expected}")
            }
            Self::SignatureOnStringPath { node } => {
                write!(f, "I6a: string-path node {node} carries a signature")
            }
            Self::MissingSignature { node } => {
                write!(f, "I6b: label-rooted node {node} is missing its signature")
            }
            Self::ParentChildMismatch { node } => {
                write!(f, "I7: child table does not point back at node {node}")
            }
            Self::NonFiniteEstimate { algorithm, kind, query, value } => {
                write!(f, "I8: {algorithm} {kind:?} on {query} produced {value}")
            }
        }
    }
}

/// Validates the structural invariant catalogue (I2–I7) and returns
/// every violation found; an empty vector means the summary is
/// internally consistent.
///
/// Deliberately *not* checked: occurrence monotonicity along trie
/// edges. `Co` is not monotone — a node with several same-labeled
/// children yields more child-subpath mappings than parent-subpath
/// mappings — so any such check would reject valid summaries.
#[must_use]
pub fn audit_summary<S: Summary>(summary: &S) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    let trie = summary.trie();
    let node_count = u32::try_from(summary.node_count()).unwrap_or(u32::MAX);
    let nodes = || (0..node_count).map(TrieNodeId);

    // Signature use is all-or-nothing per summary: if any node has a
    // signature the summary was built `with_signatures` and I6b applies
    // to every label-rooted node.
    let any_signature = nodes().any(|node| summary.signature(node).is_some());

    for node in nodes().skip(1) {
        let presence = summary.presence(node);
        let occurrence = summary.occurrence(node);
        let path_count = summary.path_count(node);

        // I2a/I2b: count sanity.
        if presence > occurrence {
            violations.push(AuditViolation::PresenceExceedsOccurrence {
                node: node.0,
                presence,
                occurrence,
            });
        }
        if presence == 0 || occurrence == 0 {
            violations.push(AuditViolation::ZeroCount { node: node.0 });
        }

        // I3: pc and presence monotone below non-root parents.
        if let Some(parent) = trie.parent(node) {
            if parent != TrieNodeId::ROOT {
                if path_count > summary.path_count(parent) {
                    violations.push(AuditViolation::PathCountExceedsParent {
                        node: node.0,
                        child: path_count,
                        parent: summary.path_count(parent),
                    });
                }
                if presence > summary.presence(parent) {
                    violations.push(AuditViolation::PresenceExceedsParent {
                        node: node.0,
                        child: presence,
                        parent: summary.presence(parent),
                    });
                }
            }

            // I7: the parent's child table points back at this node
            // through this node's incoming edge.
            let edge = trie.tokens_of(node).last().map(|token| token.edge());
            if edge.and_then(|edge| trie.child(parent, edge)) != Some(node) {
                violations.push(AuditViolation::ParentChildMismatch { node: node.0 });
            }
        }

        // I4: pruning respected the threshold.
        if path_count < summary.threshold() {
            violations.push(AuditViolation::BelowThreshold {
                node: node.0,
                path_count,
                threshold: summary.threshold(),
            });
        }

        // I5/I6: signature placement and shape.
        match summary.signature(node) {
            Some(signature) => {
                if !summary.label_rooted(node) {
                    violations.push(AuditViolation::SignatureOnStringPath { node: node.0 });
                }
                if signature.len() != summary.signature_len() {
                    violations.push(AuditViolation::WrongSignatureLength {
                        node: node.0,
                        len: signature.len(),
                        expected: summary.signature_len(),
                    });
                }
            }
            None => {
                if any_signature && summary.label_rooted(node) {
                    violations.push(AuditViolation::MissingSignature { node: node.0 });
                }
            }
        }
    }
    violations
}

/// Validates the numeric estimator contract (I8) on `queries`: every
/// algorithm × count kind must produce a finite, non-negative value.
#[must_use]
pub fn audit_estimates<S: Summary>(summary: &S, queries: &[Twig]) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    for query in queries {
        for algorithm in Algorithm::ALL {
            for kind in [CountKind::Presence, CountKind::Occurrence] {
                let value = estimate_summary(summary, query, algorithm, kind);
                if !(value.is_finite() && value >= 0.0) {
                    violations.push(AuditViolation::NonFiniteEstimate {
                        algorithm,
                        kind,
                        query: query.to_string(),
                        value,
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use crate::error::CstError;
    use twig_pst::{ExportedNode, PrunedTrie};
    use twig_sethash::CompactSignature;
    use twig_tree::DataTree;

    fn sample_tree() -> DataTree {
        DataTree::from_xml(concat!(
            "<dblp>",
            "<book><author>A1</author><year>Y1</year></book>",
            "<book><author>A1</author><year>Y1</year></book>",
            "<book><author>A2</author><year>Y2</year></book>",
            "<article><author>A3</author><title>T1</title></article>",
            "</dblp>"
        ))
        .expect("well-formed")
    }

    fn sample_cst() -> (DataTree, Cst) {
        let tree = sample_tree();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("valid config");
        (tree, cst)
    }

    /// Rebuilds `cst` with its exported trie nodes passed through
    /// `corrupt` — the injection point for the corruption tests.
    fn rebuilt_with(
        tree: &DataTree,
        cst: &Cst,
        corrupt: impl FnOnce(&mut Vec<ExportedNode>),
    ) -> Cst {
        let mut nodes = cst.trie().export_nodes();
        corrupt(&mut nodes);
        let trie =
            PrunedTrie::from_exported(nodes, cst.trie().total_paths(), cst.trie().threshold())
                .expect("exported table is well-ordered");
        let signatures: Vec<Option<CompactSignature>> =
            trie.node_ids().map(|id| cst.signature(id).cloned()).collect();
        Cst::from_parts(
            trie,
            signatures,
            tree.interner().clone(),
            cst.n(),
            cst.signature_len(),
            cst.seed(),
            cst.size_bytes(),
            cst.source_bytes(),
        )
        .expect("tables still aligned")
    }

    /// Replaces node `target`'s signature through `from_parts`.
    fn with_signature(
        tree: &DataTree,
        cst: &Cst,
        target: u32,
        signature: Option<CompactSignature>,
    ) -> Cst {
        let trie = PrunedTrie::from_exported(
            cst.trie().export_nodes(),
            cst.trie().total_paths(),
            cst.trie().threshold(),
        )
        .expect("exported table is well-ordered");
        let signatures: Vec<Option<CompactSignature>> = trie
            .node_ids()
            .map(|id| if id.0 == target { signature.clone() } else { cst.signature(id).cloned() })
            .collect();
        Cst::from_parts(
            trie,
            signatures,
            tree.interner().clone(),
            cst.n(),
            cst.signature_len(),
            cst.seed(),
            cst.size_bytes(),
            cst.source_bytes(),
        )
        .expect("tables still aligned")
    }

    /// A node id with a signature (label-rooted) and one without (a
    /// string path), for targeted corruption.
    fn signed_and_unsigned(cst: &Cst) -> (u32, u32) {
        let signed = cst
            .trie()
            .node_ids()
            .find(|&id| cst.signature(id).is_some())
            .expect("summary has signatures");
        let unsigned = cst
            .trie()
            .node_ids()
            .skip(1)
            .find(|&id| !cst.trie().label_rooted(id))
            .expect("summary has string paths");
        (signed.0, unsigned.0)
    }

    #[test]
    fn healthy_summary_passes() {
        let (_, cst) = sample_cst();
        assert_eq!(audit_summary(&cst), vec![]);
    }

    #[test]
    fn healthy_signatureless_summary_passes() {
        let tree = sample_tree();
        let cst = Cst::build(
            &tree,
            &CstConfig {
                budget: SpaceBudget::Threshold(1),
                with_signatures: false,
                ..CstConfig::default()
            },
        )
        .expect("valid config");
        assert_eq!(audit_summary(&cst), vec![]);
    }

    // Corruption class 1: truncated signature table. Rejected at
    // reassembly time (I1 is enforced structurally by `from_parts`), so
    // an audit can assume the table is aligned.
    #[test]
    fn corruption_truncated_signature_table_rejected() {
        let (tree, cst) = sample_cst();
        let trie = PrunedTrie::from_exported(
            cst.trie().export_nodes(),
            cst.trie().total_paths(),
            cst.trie().threshold(),
        )
        .expect("exported table is well-ordered");
        let nodes = trie.node_count();
        let mut signatures: Vec<Option<CompactSignature>> =
            trie.node_ids().map(|id| cst.signature(id).cloned()).collect();
        signatures.pop();
        let err = Cst::from_parts(
            trie,
            signatures,
            tree.interner().clone(),
            cst.n(),
            cst.signature_len(),
            cst.seed(),
            cst.size_bytes(),
            cst.source_bytes(),
        )
        .expect_err("truncated table must be rejected");
        assert_eq!(err, CstError::SignatureTableMismatch { signatures: nodes - 1, nodes });
    }

    // Corruption class 2: presence exceeding occurrence.
    #[test]
    fn corruption_presence_above_occurrence_detected() {
        let (tree, cst) = sample_cst();
        let bad = rebuilt_with(&tree, &cst, |nodes| {
            let node = &mut nodes[1];
            node.presence = node.occurrence + 5;
        });
        let violations = audit_summary(&bad);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::PresenceExceedsOccurrence { node: 1, .. })),
            "got {violations:?}"
        );
    }

    // Corruption class 3: child pc exceeding its parent's.
    #[test]
    fn corruption_child_pc_above_parent_detected() {
        let (tree, cst) = sample_cst();
        // Find a node whose parent is not the root.
        let deep = cst
            .trie()
            .node_ids()
            .skip(1)
            .find(|&id| cst.trie().parent(id) != Some(twig_pst::TrieNodeId::ROOT))
            .expect("trie has depth >= 2");
        let parent_pc = cst.trie().path_count(cst.trie().parent(deep).expect("non-root"));
        let bad = rebuilt_with(&tree, &cst, |nodes| {
            nodes[deep.index()].path_count = parent_pc + 10;
            // Keep occurrence >= presence untouched; only pc is corrupted.
        });
        let violations = audit_summary(&bad);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::PathCountExceedsParent { node, .. } if *node == deep.0)),
            "got {violations:?}"
        );
    }

    // Corruption class 4: a kept node below the prune threshold.
    #[test]
    fn corruption_below_threshold_detected() {
        let tree = sample_tree();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(2), ..CstConfig::default() },
        )
        .expect("valid config");
        assert!(cst.trie().threshold() >= 2, "fixture needs a real threshold");
        let bad = rebuilt_with(&tree, &cst, |nodes| {
            // pc 1 is below threshold 2 and never exceeds the parent.
            nodes[1].path_count = 1;
        });
        let violations = audit_summary(&bad);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                AuditViolation::BelowThreshold { node: 1, path_count: 1, .. }
            )),
            "got {violations:?}"
        );
    }

    // Corruption class 5: a signature of the wrong length.
    #[test]
    fn corruption_wrong_signature_length_detected() {
        let (tree, cst) = sample_cst();
        let (signed, _) = signed_and_unsigned(&cst);
        let short = CompactSignature::from_components(vec![7; cst.signature_len() / 2]);
        let bad = with_signature(&tree, &cst, signed, Some(short));
        let violations = audit_summary(&bad);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::WrongSignatureLength { node, .. } if *node == signed)),
            "got {violations:?}"
        );
    }

    // Corruption class 6: a signature where none belongs (string path).
    #[test]
    fn corruption_signature_on_string_path_detected() {
        let (tree, cst) = sample_cst();
        let (_, unsigned) = signed_and_unsigned(&cst);
        let stray = CompactSignature::from_components(vec![7; cst.signature_len()]);
        let bad = with_signature(&tree, &cst, unsigned, Some(stray));
        let violations = audit_summary(&bad);
        assert!(
            violations.iter().any(
                |v| matches!(v, AuditViolation::SignatureOnStringPath { node } if *node == unsigned)
            ),
            "got {violations:?}"
        );
    }

    // Corruption class 7: a missing signature on a label-rooted subpath.
    #[test]
    fn corruption_missing_signature_detected() {
        let (tree, cst) = sample_cst();
        let (signed, _) = signed_and_unsigned(&cst);
        let bad = with_signature(&tree, &cst, signed, None);
        let violations = audit_summary(&bad);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::MissingSignature { node } if *node == signed)),
            "got {violations:?}"
        );
    }

    // Corruption class 8: zeroed counts.
    #[test]
    fn corruption_zero_count_detected() {
        let (tree, cst) = sample_cst();
        let bad = rebuilt_with(&tree, &cst, |nodes| {
            nodes[1].presence = 0;
            nodes[1].occurrence = 0;
        });
        let violations = audit_summary(&bad);
        assert!(
            violations.iter().any(|v| matches!(v, AuditViolation::ZeroCount { node: 1 })),
            "got {violations:?}"
        );
    }

    #[test]
    fn estimate_audit_passes_on_ordinary_queries() {
        let (_, cst) = sample_cst();
        let queries = [
            Twig::parse(r#"book(author("A1"),year("Y1"))"#).expect("valid"),
            Twig::parse(r#"no_such(label("x"))"#).expect("valid"),
        ];
        assert_eq!(audit_estimates(&cst, &queries), vec![]);
    }

    #[test]
    fn violations_display_with_invariant_numbers() {
        let (tree, cst) = sample_cst();
        let bad = rebuilt_with(&tree, &cst, |nodes| {
            let node = &mut nodes[1];
            node.presence = node.occurrence + 5;
        });
        let printed: Vec<String> = audit_summary(&bad).iter().map(ToString::to_string).collect();
        assert!(printed.iter().any(|line| line.starts_with("I2a:")), "got {printed:?}");
    }
}
