//! The correlated subpath tree: pruned trie + presence/occurrence counts +
//! set-hash signatures (Sec. 3.1, 3.4, 3.5).

use twig_pst::{
    build_suffix_trie, builder::for_each_rooted_subpath_sharded, NodeCostInfo, PathToken,
    PrunedTrie, TrieConfig, TrieNodeId,
};
use twig_sethash::{CompactSignature, HashFamily, Signature};
use twig_tree::DataTree;
use twig_util::{Interner, Symbol};

use crate::error::CstError;

/// What a set-hash intersection estimate returns when the signatures
/// share *no* matching components (resemblance below the `~1/L`
/// resolution of min-hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignatureFallback {
    /// Fall back to MO-style conditional independence, capped by the
    /// signature's resolution bound. Robust for positive queries whose
    /// true resemblance is small but nonzero (the estimator never zeroes
    /// a query it cannot see), at the cost of over-estimating negative
    /// queries exactly like pure MO does.
    #[default]
    ConditionalIndependence,
    /// Return 0, as the paper's literal formula does (`ρ̂ = 0 ⇒ |∩| = 0`).
    /// Excellent on negative queries (Fig. 7's MOSH/MSH behavior), but
    /// positive queries whose twiglets fall below the signature
    /// resolution are zeroed and the relative squared error explodes.
    Zero,
}

/// How much space the summary may use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpaceBudget {
    /// Absolute byte budget under the CST cost model.
    Bytes(usize),
    /// Fraction of the data set's XML source size (the paper's space axis,
    /// e.g. `0.01` for "1% space").
    Fraction(f64),
    /// Explicit prune threshold on `pc(α)` (no budget search).
    Threshold(u32),
}

/// Construction parameters for a [`Cst`].
#[derive(Debug, Clone)]
pub struct CstConfig {
    /// Suffix-trie depth caps.
    pub trie: TrieConfig,
    /// Signature length `L` (components per set-hash signature). The paper
    /// stores one "small fixed-length signature" per non-leaf subpath; 32
    /// 4-byte components is the default trade-off.
    pub signature_len: usize,
    /// Seed for the min-hash function family (signatures from different
    /// seeds are incomparable).
    pub seed: u64,
    /// Space budget.
    pub budget: SpaceBudget,
    /// Whether to build (and charge space for) set-hash signatures.
    ///
    /// The correlation-less algorithms (Leaf, Greedy, pure MO — Table 1)
    /// don't use signatures; giving them a signature-free summary packs
    /// roughly 7× more subpaths into the same byte budget, which is how
    /// the paper's figures compare algorithms at equal space.
    pub with_signatures: bool,
    /// Behavior when a signature intersection is below resolution.
    pub fallback: SignatureFallback,
    /// Worker threads for the signature-construction pass (1 = serial).
    ///
    /// Sharding is by top-level subtree and min-hash insertion is
    /// idempotent and order-independent, so the built summary is
    /// byte-identical for every thread count.
    pub threads: usize,
}

impl Default for CstConfig {
    fn default() -> Self {
        Self {
            trie: TrieConfig::default(),
            signature_len: 32,
            seed: 0x7716_C0DE,
            budget: SpaceBudget::Fraction(0.01),
            with_signatures: true,
            fallback: SignatureFallback::default(),
            threads: 1,
        }
    }
}

/// Accounted per-node base cost: packed edge (4 B), presence + occurrence
/// counts (8 B), child-table entry (8 B).
const NODE_BASE_COST: usize = 20;

/// The correlated subpath tree — the complete summary data structure.
///
/// Self-contained: estimation needs no access to the original data tree
/// (the label vocabulary is copied in, the tree size `n` recorded).
#[derive(Debug)]
pub struct Cst {
    trie: PrunedTrie,
    signatures: Vec<Option<CompactSignature>>,
    interner: Interner,
    n: u64,
    signature_len: usize,
    seed: u64,
    size_bytes: usize,
    source_bytes: usize,
    fallback: SignatureFallback,
}

impl Cst {
    /// Builds the CST for `tree` under `config`.
    ///
    /// Two passes over the data: one to build and count the full suffix
    /// trie (then pruned to budget), one to fold rooting-node ids into the
    /// signatures of the surviving label-rooted subpaths.
    ///
    /// # Errors
    ///
    /// Returns [`CstError`] when the configuration is unusable (zero
    /// signature length, non-positive space fraction).
    pub fn build(tree: &DataTree, config: &CstConfig) -> Result<Self, CstError> {
        let full = build_suffix_trie(tree, &config.trie);
        Self::from_trie(tree, &full, config)
    }

    /// Builds the CST from an already-constructed full suffix trie (lets
    /// the experiment harness share one trie across many space budgets).
    ///
    /// # Errors
    ///
    /// Returns [`CstError`] when the configuration is unusable (zero
    /// signature length, non-positive space fraction).
    pub fn from_trie(
        tree: &DataTree,
        full: &twig_pst::SuffixTrie,
        config: &CstConfig,
    ) -> Result<Self, CstError> {
        if config.signature_len == 0 {
            return Err(CstError::ZeroSignatureLength);
        }
        let sig_cost = if config.with_signatures { config.signature_len * 4 } else { 0 };
        let cost =
            move |info: NodeCostInfo| NODE_BASE_COST + if info.label_rooted { sig_cost } else { 0 };
        let trie = match config.budget {
            SpaceBudget::Bytes(bytes) => full.prune_to_budget(bytes, cost),
            SpaceBudget::Fraction(fraction) => {
                if !(fraction > 0.0 && fraction.is_finite()) {
                    return Err(CstError::InvalidSpaceFraction(fraction));
                }
                let bytes = twig_util::cast::f64_to_size_saturating(
                    twig_util::cast::size_to_f64(tree.source_bytes()) * fraction,
                );
                full.prune_to_budget(bytes, cost)
            }
            SpaceBudget::Threshold(threshold) => full.prune(threshold),
        };

        // Signature pass (optionally sharded across threads; shard
        // results merge by componentwise min, so the outcome is identical
        // for every thread count).
        let signatures: Vec<Option<CompactSignature>> = if config.with_signatures {
            let family = HashFamily::new(config.signature_len, config.seed);
            let threads = config.threads.max(1);
            let shard_signatures = |shard: usize, of: usize| {
                let mut building: Vec<Option<Signature<u64>>> = (0..trie.node_count())
                    .map(|i| {
                        let id = TrieNodeId(i as u32);
                        (id != TrieNodeId::ROOT && trie.label_rooted(id))
                            .then(|| Signature::empty(config.signature_len))
                    })
                    .collect();
                for_each_rooted_subpath_sharded(
                    tree,
                    &trie,
                    &config.trie,
                    shard,
                    of,
                    |start, node| {
                        if let Some(sig) = building[node.index()].as_mut() {
                            sig.insert(&family, u64::from(start.0));
                        }
                    },
                );
                building
            };
            let building = if threads == 1 {
                shard_signatures(0, 1)
            } else {
                let shards: Vec<Vec<Option<Signature<u64>>>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|shard| scope.spawn(move || shard_signatures(shard, threads)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(shard) => shard,
                            // Propagate a worker panic verbatim instead
                            // of wrapping it in a second panic site.
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                        .collect()
                });
                shards
                    .into_iter()
                    .reduce(|mut merged, shard| {
                        for (into, from) in merged.iter_mut().zip(shard) {
                            if let (Some(a), Some(b)) = (into.as_mut(), from) {
                                *a = Signature::union(&[a, &b]);
                            }
                        }
                        merged
                    })
                    // threads >= 2 on this branch, so there is always a
                    // shard to reduce; an empty default keeps this
                    // expression panic-free regardless.
                    .unwrap_or_default()
            };
            building.iter().map(|sig| sig.as_ref().map(Signature::truncate)).collect()
        } else {
            vec![None; trie.node_count()]
        };

        let size_bytes = (trie.node_count() - 1) * NODE_BASE_COST
            + signatures.iter().flatten().count() * sig_cost;

        Ok(Self {
            trie,
            signatures,
            interner: tree.interner().clone(),
            n: u64::try_from(tree.element_count()).unwrap_or(u64::MAX),
            signature_len: config.signature_len,
            seed: config.seed,
            size_bytes,
            source_bytes: tree.source_bytes(),
            fallback: config.fallback,
        })
    }

    /// Reassembles a summary from deserialized parts (see `serialize`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        trie: PrunedTrie,
        signatures: Vec<Option<CompactSignature>>,
        interner: Interner,
        n: u64,
        signature_len: usize,
        seed: u64,
        size_bytes: usize,
        source_bytes: usize,
    ) -> Result<Self, CstError> {
        if signatures.len() != trie.node_count() {
            return Err(CstError::SignatureTableMismatch {
                signatures: signatures.len(),
                nodes: trie.node_count(),
            });
        }
        Ok(Self {
            trie,
            signatures,
            interner,
            n,
            signature_len,
            seed,
            size_bytes,
            source_bytes,
            fallback: SignatureFallback::default(),
        })
    }

    /// The label vocabulary (for serialization).
    pub(crate) fn interner_ref(&self) -> &Interner {
        &self.interner
    }

    /// The pruned subpath trie.
    #[inline]
    pub fn trie(&self) -> &PrunedTrie {
        &self.trie
    }

    /// Signature of the subpath at `node`, if it is label-rooted.
    #[inline]
    pub fn signature(&self, node: TrieNodeId) -> Option<&CompactSignature> {
        self.signatures[node.index()].as_ref()
    }

    /// Number of data tree element nodes — the `n` of the estimation
    /// formulae.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Accounted summary size in bytes (cost model: 20 B per node plus
    /// `4·L` per signature).
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Size of the XML source the summarized tree was parsed from.
    pub fn source_bytes(&self) -> usize {
        self.source_bytes
    }

    /// Accounted size as a fraction of the data size (0 when unknown).
    pub fn space_fraction(&self) -> f64 {
        if self.source_bytes == 0 {
            0.0
        } else {
            twig_util::cast::size_to_f64(self.size_bytes)
                / twig_util::cast::size_to_f64(self.source_bytes)
        }
    }

    /// Number of kept trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// The prune threshold the budget search selected.
    pub fn threshold(&self) -> u32 {
        self.trie.threshold()
    }

    /// Signature length `L`.
    #[inline]
    pub fn signature_len(&self) -> usize {
        self.signature_len
    }

    /// The below-resolution fallback mode.
    #[inline]
    pub fn fallback(&self) -> SignatureFallback {
        self.fallback
    }

    /// Overrides the below-resolution fallback mode (a query-time choice;
    /// it does not affect the stored summary).
    pub fn set_fallback(&mut self, fallback: SignatureFallback) {
        self.fallback = fallback;
    }

    /// Min-hash family seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves a query label to the data vocabulary.
    #[inline]
    pub fn symbol(&self, label: &str) -> Option<Symbol> {
        self.interner.get(label)
    }

    /// The label vocabulary in symbol order (for packing into on-disk
    /// formats; `Symbol(i)` names the `i`-th yielded label).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.interner.iter().map(|(_, label)| label)
    }

    /// Looks up the trie node for a token sequence, if fully present.
    #[inline]
    pub fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        self.trie.find(tokens)
    }

    /// Presence count `Cp(α)` of a trie node.
    #[inline]
    pub fn presence(&self, node: TrieNodeId) -> u64 {
        u64::from(self.trie.presence(node))
    }

    /// Occurrence count `Co(α)` of a trie node.
    #[inline]
    pub fn occurrence(&self, node: TrieNodeId) -> u64 {
        u64::from(self.trie.occurrence(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> DataTree {
        DataTree::from_xml(concat!(
            "<dblp>",
            "<book><author>A1</author><year>Y1</year></book>",
            "<book><author>A1</author><year>Y1</year></book>",
            "<book><author>A2</author><year>Y2</year></book>",
            "</dblp>"
        ))
        .unwrap()
    }

    fn unpruned_config() -> CstConfig {
        CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() }
    }

    fn tokens(cst: &Cst, labels: &[&str], value: &str) -> Vec<PathToken> {
        let mut out: Vec<PathToken> = labels
            .iter()
            .map(|l| PathToken::Element(cst.symbol(l).expect("known label")))
            .collect();
        out.extend(value.bytes().map(PathToken::Char));
        out
    }

    #[test]
    fn builds_with_counts_and_signatures() {
        let tree = sample_tree();
        let cst = Cst::build(&tree, &unpruned_config()).expect("CST config is valid");
        let ba = cst.lookup(&tokens(&cst, &["book", "author"], "")).unwrap();
        assert_eq!(cst.presence(ba), 3);
        assert!(cst.signature(ba).is_some());
        assert!(!cst.signature(ba).unwrap().is_empty_set());
    }

    #[test]
    fn string_fragments_have_no_signature() {
        let tree = sample_tree();
        let cst = Cst::build(&tree, &unpruned_config()).expect("CST config is valid");
        let a1: Vec<PathToken> = "A1".bytes().map(PathToken::Char).collect();
        let node = cst.lookup(&a1).unwrap();
        assert!(cst.signature(node).is_none(), "paper fn. 3: leaf paths carry no signature");
    }

    #[test]
    fn signature_intersection_reflects_correlation() {
        // Books with author A1 are exactly the books with year Y1 (2 of
        // them); the signatures of book.author.A1 and book.year.Y1 should
        // intersect to ~2.
        let tree = sample_tree();
        let cst = Cst::build(
            &tree,
            &CstConfig {
                signature_len: 64,
                budget: SpaceBudget::Threshold(1),
                ..CstConfig::default()
            },
        )
        .expect("CST config is valid");
        let a = cst.lookup(&tokens(&cst, &["book", "author"], "A1")).unwrap();
        let y = cst.lookup(&tokens(&cst, &["book", "year"], "Y1")).unwrap();
        let est = twig_sethash::estimate_intersection(&[
            (cst.signature(a).unwrap(), cst.presence(a)),
            (cst.signature(y).unwrap(), cst.presence(y)),
        ]);
        assert!((est - 2.0).abs() < 0.5, "est = {est}");

        // And A2 books vs Y1 books are disjoint.
        let a2 = cst.lookup(&tokens(&cst, &["book", "author"], "A2")).unwrap();
        let est0 = twig_sethash::estimate_intersection(&[
            (cst.signature(a2).unwrap(), cst.presence(a2)),
            (cst.signature(y).unwrap(), cst.presence(y)),
        ]);
        assert!(est0 < 0.5, "est0 = {est0}");
    }

    #[test]
    fn fraction_budget_respected() {
        let tree = sample_tree();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Fraction(0.5), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        assert!(cst.size_bytes() <= tree.source_bytes() / 2 + 1);
        assert!(cst.space_fraction() <= 0.51);
    }

    #[test]
    fn bigger_budget_more_nodes() {
        let tree = sample_tree();
        let small = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Bytes(300), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let large = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Bytes(30_000), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        assert!(small.node_count() <= large.node_count());
    }

    #[test]
    fn n_is_element_count() {
        let tree = sample_tree();
        let cst = Cst::build(&tree, &unpruned_config()).expect("CST config is valid");
        assert_eq!(cst.n(), tree.element_count() as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let tree = sample_tree();
        let cst1 = Cst::build(&tree, &unpruned_config()).expect("CST config is valid");
        let cst2 = Cst::build(&tree, &unpruned_config()).expect("CST config is valid");
        assert_eq!(cst1.node_count(), cst2.node_count());
        let ba1 = cst1.lookup(&tokens(&cst1, &["book", "author"], "")).unwrap();
        let ba2 = cst2.lookup(&tokens(&cst2, &["book", "author"], "")).unwrap();
        assert_eq!(cst1.signature(ba1), cst2.signature(ba2));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use twig_datagen::{generate_dblp, DblpConfig};

    #[test]
    fn parallel_build_is_byte_identical() {
        let xml = generate_dblp(&DblpConfig {
            target_bytes: 200 << 10,
            seed: 77,
            ..DblpConfig::default()
        });
        let tree = DataTree::from_xml(&xml).unwrap();
        let base = CstConfig { budget: SpaceBudget::Fraction(0.2), ..CstConfig::default() };
        let serial = Cst::build(&tree, &base).expect("CST config is valid");
        for threads in [2usize, 4, 7] {
            let parallel = Cst::build(&tree, &CstConfig { threads, ..base.clone() })
                .expect("CST config is valid");
            let mut a = Vec::new();
            let mut b = Vec::new();
            serial.write_to(&mut a).unwrap();
            parallel.write_to(&mut b).unwrap();
            assert_eq!(a, b, "threads = {threads} must be byte-identical");
        }
    }

    #[test]
    fn sharded_paths_partition_exactly() {
        let xml =
            generate_dblp(&DblpConfig { target_bytes: 60 << 10, seed: 5, ..DblpConfig::default() });
        let tree = DataTree::from_xml(&xml).unwrap();
        let mut all = 0usize;
        tree.for_each_root_to_leaf_path(|_| all += 1);
        for of in [2usize, 3, 5] {
            let mut sharded = 0usize;
            for shard in 0..of {
                tree.for_each_root_to_leaf_path_sharded(shard, of, |_| sharded += 1);
            }
            assert_eq!(sharded, all, "shards {of} must partition paths");
        }
    }
}
