//! Twig selectivity estimation — the primary contribution of
//! *"Counting Twig Matches in a Tree"* (ICDE 2001).
//!
//! Given a node-labeled data tree `T` and a twig query `Q`, estimate the
//! number of matches of `Q` in `T` using only a small summary:
//!
//! 1. **Summary construction** ([`Cst`], [`CstConfig`]): build the path
//!    suffix trie of `T` (crate `twig-pst`), prune it to a space budget,
//!    and attach a min-hash signature (crate `twig-sethash`) of the set of
//!    rooting data nodes to every label-rooted subpath. The result — the
//!    *correlated subpath tree* — captures both subpath frequencies and
//!    the correlations between subpaths sharing a root.
//! 2. **Estimation** ([`Cst::estimate`], [`Algorithm`]): parse the query's
//!    root-to-leaf paths into subpaths present in the CST, group subpaths
//!    into *twiglets* at branch nodes, estimate twiglet counts by
//!    signature intersection, and combine everything with
//!    maximal-overlap (MO) conditioning.
//!
//! Six estimation algorithms are provided (Table 1 of the paper):
//!
//! | Algorithm | Path info | Correlations | Twiglets | Combination |
//! |-----------|-----------|--------------|----------|-------------|
//! | [`Algorithm::Leaf`]   | no  | no  | single leaf strings | MO |
//! | [`Algorithm::Greedy`] | yes | no  | single paths | independence |
//! | [`Algorithm::PureMo`] | yes | no  | single paths | MO |
//! | [`Algorithm::Mosh`]   | yes | yes | deep, often skinny | MO |
//! | [`Algorithm::Pmosh`]  | yes | yes | bushy, often shallow | MO |
//! | [`Algorithm::Msh`]    | yes | yes | deep *and* bushy | MO |
//!
//! Both counting semantics of Sec. 5 are supported:
//! [`CountKind::Presence`] (distinct rooting nodes) and
//! [`CountKind::Occurrence`] (total 1-1 mappings, estimated from presence
//! via per-subpath occurrence/presence ratios under the paper's
//! uniformity assumption).
//!
//! # Example
//!
//! ```
//! use twig_tree::{DataTree, Twig};
//! use twig_core::{Algorithm, CountKind, Cst, CstConfig};
//!
//! let xml = r#"<dblp>
//!   <book><author>Suciu</author><year>1999</year></book>
//!   <book><author>Korn</author><year>1999</year></book>
//! </dblp>"#;
//! let tree = DataTree::from_xml(xml).unwrap();
//! let cst = Cst::build(&tree, &CstConfig::default()).unwrap();
//! let query = Twig::parse(r#"book(author("Su"),year("1999"))"#).unwrap();
//! let estimate = cst.estimate(&query, Algorithm::Mosh, CountKind::Presence);
//! assert!(estimate >= 0.0);
//! ```

pub mod audit;
pub mod combine;
pub mod cst;
pub mod error;
pub mod estimate;
pub mod explain;
pub mod lore;
pub mod ordered;
pub mod parse;
pub mod plan;
pub mod query;
pub mod serialize;
pub mod summary;
pub mod twiglets;

pub use audit::{audit_estimates, audit_summary, AuditViolation};
pub use cst::{Cst, CstConfig, SignatureFallback, SpaceBudget};
pub use error::CstError;
pub use estimate::{
    estimate_raw_summary, estimate_summary, sibling_discount_summary, Algorithm, CountKind,
};
pub use explain::{explain_summary, Explanation};
pub use plan::QueryPlan;
pub use serialize::ReadError;
pub use summary::{Summary, TrieAccess};
