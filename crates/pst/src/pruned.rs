//! Pruning the suffix trie to a threshold or a byte budget.

use twig_util::FxHashMap;

use crate::trie::{EdgeKey, PathToken, SuffixTrie, TrieNodeId};

/// Per-node payload of the pruned trie (dedup stamps dropped).
#[derive(Debug, Clone)]
struct PrunedNode {
    parent: u32,
    edge: u32,
    path_count: u32,
    presence: u32,
    occurrence: u32,
    label_rooted: bool,
}

/// The pruned subpath tree `T'` — the structural part of the CST.
///
/// Nodes are renumbered densely in depth-first order from the root (the
/// root keeps id 0, [`TrieNodeId::ROOT`]); parents always precede their
/// children, and a unary chain gets consecutive ids.
///
/// Child transitions are stored in CSR (compressed sparse row) form:
/// node `k`'s outgoing entries live in
/// `children[child_start[k]..child_start[k+1]]`, sorted by edge key.
/// Each entry carries the *target's* own CSR window alongside the edge,
/// so a root-to-leaf walk resolves every step from the one contiguous
/// `children` array — one dependent memory region per step instead of
/// an extra `child_start` indirection, which is what makes cold
/// (cache-miss-bound) walks cheaper than a global transition hashmap.
/// A hashmap is used only while *building* tries, never for serving
/// reads.
#[derive(Debug)]
pub struct PrunedTrie {
    nodes: Vec<PrunedNode>,
    /// `len() == nodes.len() + 1`; prefix offsets into `children`.
    child_start: Vec<u32>,
    /// Transition entries, edge-sorted within each node's range.
    children: Vec<ChildEntry>,
    total_paths: u32,
    threshold: u32,
}

/// One CSR transition: the edge key, the child it leads to, and the
/// child's own `children` window (start + length), embedded so walks
/// never have to consult `child_start` between steps.
#[derive(Debug, Clone, Copy)]
struct ChildEntry {
    edge: u32,
    target: u32,
    target_start: u32,
    target_len: u32,
}

/// Branch-free lower-bound search of one node's edge-sorted transition
/// slice: wide nodes (the root) are first narrowed by a halving search
/// whose select compiles to a conditional move, then the surviving
/// window of at most 16 entries is resolved by a fixed-trip count that
/// vectorizes — no data-dependent branch is taken until the final
/// hit/miss test.
#[inline]
fn search(entries: &[ChildEntry], wanted: u32) -> Option<&ChildEntry> {
    let mut lo = 0usize;
    let mut len = entries.len();
    while len > 16 {
        let half = len / 2;
        lo = if entries[lo + half].edge <= wanted { lo + half } else { lo };
        len -= half;
    }
    let mut below = 0usize;
    for entry in &entries[lo..lo + len] {
        below += usize::from(entry.edge < wanted);
    }
    entries.get(lo + below).filter(|entry| entry.edge == wanted)
}

/// Second build pass: once `child_start` is final, stamp every entry
/// with its target's transition window.
fn backfill_windows(child_start: &[u32], children: &mut [ChildEntry]) {
    for entry in children {
        let target = entry.target as usize;
        if let Some(&[start, end]) = child_start.get(target..target + 2) {
            entry.target_start = start;
            entry.target_len = end - start;
        }
    }
}

/// The information the per-node cost model receives when pruning to a byte
/// budget. Label-rooted nodes carry a set-hash signature in the CST and
/// therefore cost more.
#[derive(Debug, Clone, Copy)]
pub struct NodeCostInfo {
    /// True when the subpath begins with an element label (signature-bearing).
    pub label_rooted: bool,
    /// True when the incoming edge is an element label (vs a value byte).
    pub element_edge: bool,
}

impl SuffixTrie {
    /// Keeps exactly the nodes with `pc(α) ≥ threshold` (plus the root).
    ///
    /// Because `pc` is monotone non-increasing along trie edges in *both*
    /// directions (a path containing α contains every sub-subpath of α),
    /// threshold pruning preserves the monotonicity property of Sec. 3.7:
    /// every sub-subpath of a kept subpath is kept.
    pub fn prune(&self, threshold: u32) -> PrunedTrie {
        let threshold = threshold.max(1);
        let mut nodes = vec![PrunedNode {
            parent: u32::MAX,
            edge: u32::MAX,
            path_count: self.total_paths,
            presence: 0,
            occurrence: 0,
            label_rooted: false,
        }];
        // Old trie children are only reachable through the global map; walk
        // all edges grouped by parent. Build a per-parent adjacency pass
        // first to avoid scanning the whole map per node.
        let mut adjacency: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for (&(parent, edge), &child) in &self.children {
            if self.nodes[child as usize].path_count >= threshold {
                adjacency.entry(parent).or_default().push((edge, child));
            }
        }
        // Depth-first renumbering: siblings get consecutive ids in edge
        // order, and a node's subtree is numbered before its next
        // sibling's. CSR regions are laid out in id order, so a unary
        // chain — the common shape, one value byte per node — occupies
        // *adjacent* regions and a downward walk streams sequentially
        // through `children` instead of striding across BFS levels.
        let mut kids: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
        while let Some((old_id, new_id)) = stack.pop() {
            let Some(edges) = adjacency.get(&old_id) else {
                continue;
            };
            // Deterministic ordering for reproducible node ids.
            let mut edges = edges.clone();
            edges.sort_unstable();
            let mut assigned: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
            for &(edge, old_child) in &edges {
                let data = &self.nodes[old_child as usize];
                let new_child = u32::try_from(nodes.len()).expect("pruned trie too large");
                nodes.push(PrunedNode {
                    parent: new_id,
                    edge,
                    path_count: data.path_count,
                    presence: data.presence,
                    occurrence: data.occurrence,
                    label_rooted: data.label_rooted,
                });
                kids[new_id as usize].push((edge, new_child));
                kids.push(Vec::new());
                assigned.push((old_child, new_child));
            }
            // LIFO stack: push in reverse so the smallest edge's subtree
            // is numbered first.
            for &entry in assigned.iter().rev() {
                stack.push(entry);
            }
        }
        let mut child_start: Vec<u32> = Vec::with_capacity(nodes.len() + 1);
        let mut children: Vec<ChildEntry> = Vec::with_capacity(nodes.len().saturating_sub(1));
        for list in &kids {
            child_start.push(children.len() as u32);
            for &(edge, target) in list {
                children.push(ChildEntry { edge, target, target_start: 0, target_len: 0 });
            }
        }
        child_start.push(children.len() as u32);
        backfill_windows(&child_start, &mut children);
        PrunedTrie { nodes, child_start, children, total_paths: self.total_paths, threshold }
    }

    /// Finds the smallest threshold whose pruned trie fits in
    /// `budget_bytes` under `cost` and returns that pruned trie.
    ///
    /// `cost` is charged per kept node (the root is free). A budget too
    /// small for even the most frequent subpaths yields a root-only trie.
    pub fn prune_to_budget(
        &self,
        budget_bytes: usize,
        cost: impl Fn(NodeCostInfo) -> usize,
    ) -> PrunedTrie {
        // Group per-node costs by pc value.
        let mut by_pc: FxHashMap<u32, usize> = FxHashMap::default();
        for data in self.nodes.iter().skip(1) {
            let info = NodeCostInfo {
                label_rooted: data.label_rooted,
                element_edge: EdgeKey::from_raw(data.edge).is_element(),
            };
            *by_pc.entry(data.path_count).or_insert(0) += cost(info);
        }
        let mut groups: Vec<(u32, usize)> = by_pc.into_iter().collect();
        groups.sort_unstable_by_key(|&(pc, _)| std::cmp::Reverse(pc));
        let mut cumulative = 0usize;
        let mut threshold = u32::MAX; // root-only if nothing fits
        for (pc, group_cost) in groups {
            if cumulative + group_cost > budget_bytes {
                break;
            }
            cumulative += group_cost;
            threshold = pc;
        }
        self.prune(threshold)
    }
}

impl PrunedTrie {
    /// Number of kept nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The pruning threshold that produced this trie.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Number of root-to-leaf data paths the original trie was built from.
    pub fn total_paths(&self) -> u32 {
        self.total_paths
    }

    /// Child of `node` along `edge`, if kept ([`search`] over the
    /// node's CSR transition slice).
    #[inline]
    pub fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
        let start = self.child_start[node.index()] as usize;
        let end = self.child_start[node.index() + 1] as usize;
        search(&self.children[start..end], edge.raw()).map(|entry| TrieNodeId(entry.target))
    }

    /// `pc(α)`.
    pub fn path_count(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].path_count
    }

    /// `Cp(α)` — the presence count used by the estimators.
    pub fn presence(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].presence
    }

    /// `Co(α)` — the occurrence count used in multiset mode.
    pub fn occurrence(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].occurrence
    }

    /// True when the subpath begins with an element label.
    pub fn label_rooted(&self, node: TrieNodeId) -> bool {
        self.nodes[node.index()].label_rooted
    }

    /// Parent of `node`, or `None` for the root.
    pub fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId> {
        let p = self.nodes[node.index()].parent;
        (p != u32::MAX).then_some(TrieNodeId(p))
    }

    /// The edge from the parent, or `None` for the root.
    pub fn edge(&self, node: TrieNodeId) -> Option<EdgeKey> {
        (node != TrieNodeId::ROOT).then(|| EdgeKey::from_raw(self.nodes[node.index()].edge))
    }

    /// Walks `tokens` from the root; returns the deepest node and tokens
    /// consumed. Carries each step's embedded target window forward, so
    /// the whole walk reads only the `children` array — `child_start` is
    /// consulted once, for the root.
    pub fn walk(&self, tokens: &[PathToken]) -> (TrieNodeId, usize) {
        let mut node = TrieNodeId::ROOT;
        let mut start = self.child_start[0] as usize;
        let mut len = (self.child_start[1] - self.child_start[0]) as usize;
        for (i, token) in tokens.iter().enumerate() {
            match search(&self.children[start..start + len], token.edge().raw()) {
                Some(entry) => {
                    node = TrieNodeId(entry.target);
                    start = entry.target_start as usize;
                    len = entry.target_len as usize;
                }
                None => return (node, i),
            }
        }
        (node, tokens.len())
    }

    /// Node for exactly `tokens`, if present.
    pub fn find(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        let (node, consumed) = self.walk(tokens);
        (consumed == tokens.len()).then_some(node)
    }

    /// Reconstructs the token sequence of `node` (root → node).
    pub fn tokens_of(&self, node: TrieNodeId) -> Vec<PathToken> {
        let mut depth = 0usize;
        let mut cursor = node;
        while let Some(parent) = self.parent(cursor) {
            depth += 1;
            cursor = parent;
        }
        let mut out = Vec::with_capacity(depth);
        let mut cursor = node;
        while let Some(edge) = self.edge(cursor) {
            out.push(match edge.as_element() {
                Some(sym) => PathToken::Element(sym),
                None => PathToken::Char(edge.as_char().expect("edge is element or char")),
            });
            cursor = self.parent(cursor).expect("non-root has parent");
        }
        out.reverse();
        out
    }

    /// Iterates all node ids (including the root).
    pub fn node_ids(&self) -> impl Iterator<Item = TrieNodeId> {
        (0..self.nodes.len() as u32).map(TrieNodeId)
    }

    /// Exports the node table for serialization (root included, id order).
    pub fn export_nodes(&self) -> Vec<ExportedNode> {
        let mut out = Vec::with_capacity(self.nodes.len());
        out.extend(self.nodes.iter().map(|n| ExportedNode {
            parent: n.parent,
            edge: n.edge,
            path_count: n.path_count,
            presence: n.presence,
            occurrence: n.occurrence,
            label_rooted: n.label_rooted,
        }));
        out
    }

    /// Rebuilds a pruned trie from exported parts (inverse of
    /// [`export_nodes`](Self::export_nodes)).
    ///
    /// Returns `None` when the node table is empty, the first entry is
    /// not a root, or a parent reference is not smaller than the child id
    /// (nodes must arrive in an order where parents precede children,
    /// which [`export_nodes`](Self::export_nodes) guarantees).
    pub fn from_exported(
        nodes: Vec<ExportedNode>,
        total_paths: u32,
        threshold: u32,
    ) -> Option<Self> {
        if nodes.first()?.parent != u32::MAX {
            return None;
        }
        // Rebuild the CSR transition arrays: gather (parent, edge, child)
        // triples, sort them (grouped by parent, edge-sorted within), and
        // lay them out contiguously. Export order already satisfies both
        // groupings, so the sort is a no-op pass in practice.
        let mut triples: Vec<(u32, u32, u32)> = Vec::with_capacity(nodes.len().saturating_sub(1));
        for (id, node) in nodes.iter().enumerate().skip(1) {
            if node.parent as usize >= id {
                return None;
            }
            triples.push((node.parent, node.edge, id as u32));
        }
        triples.sort_unstable();
        let mut child_start = Vec::with_capacity(nodes.len() + 1);
        let mut children = Vec::with_capacity(triples.len());
        for (parent, edge, id) in triples {
            while child_start.len() <= parent as usize {
                child_start.push(children.len() as u32);
            }
            children.push(ChildEntry { edge, target: id, target_start: 0, target_len: 0 });
        }
        while child_start.len() <= nodes.len() {
            child_start.push(children.len() as u32);
        }
        backfill_windows(&child_start, &mut children);
        let nodes = nodes
            .into_iter()
            .map(|n| PrunedNode {
                parent: n.parent,
                edge: n.edge,
                path_count: n.path_count,
                presence: n.presence,
                occurrence: n.occurrence,
                label_rooted: n.label_rooted,
            })
            .collect();
        Some(PrunedTrie { nodes, child_start, children, total_paths, threshold })
    }
}

/// A serializable view of one pruned-trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportedNode {
    /// Parent id (`u32::MAX` for the root).
    pub parent: u32,
    /// Packed edge key from the parent.
    pub edge: u32,
    /// `pc(α)`.
    pub path_count: u32,
    /// `Cp(α)`.
    pub presence: u32,
    /// `Co(α)`.
    pub occurrence: u32,
    /// Signature-bearing flag.
    pub label_rooted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_suffix_trie, TrieConfig};
    use twig_tree::DataTree;

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

    fn tokens(tree: &DataTree, labels: &[&str], value: &str) -> Vec<PathToken> {
        let mut out: Vec<PathToken> = labels
            .iter()
            .map(|l| PathToken::Element(tree.symbol(l).expect("known label")))
            .collect();
        out.extend(value.bytes().map(PathToken::Char));
        out
    }

    #[test]
    fn prune_keeps_frequent_drops_rare() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        // "book.author" appears on 3 paths; "year.Y2" on 1.
        let pruned = trie.prune(2);
        assert!(pruned.find(&tokens(&tree, &["book", "author"], "")).is_some());
        assert!(pruned.find(&tokens(&tree, &["year"], "Y2")).is_none());
        assert!(pruned.find(&tokens(&tree, &["year"], "Y1")).is_some());
    }

    #[test]
    fn prune_preserves_counts() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(2);
        let ba_full = trie.find(&tokens(&tree, &["book", "author"], "")).unwrap();
        let ba_pruned = pruned.find(&tokens(&tree, &["book", "author"], "")).unwrap();
        assert_eq!(trie.presence(ba_full), pruned.presence(ba_pruned));
        assert_eq!(trie.occurrence(ba_full), pruned.occurrence(ba_pruned));
        assert_eq!(trie.path_count(ba_full), pruned.path_count(ba_pruned));
    }

    #[test]
    fn prune_preserves_prefix_and_suffix_closure() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        for threshold in 1..=6 {
            let pruned = trie.prune(threshold);
            for node in pruned.node_ids().skip(1) {
                let toks = pruned.tokens_of(node);
                // prefix closure: parent exists by construction; check
                // suffix closure: dropping the first token stays in trie.
                if toks.len() > 1 {
                    assert!(
                        pruned.find(&toks[1..]).is_some(),
                        "suffix of kept subpath missing at threshold {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_threshold_one_keeps_everything() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(1);
        assert_eq!(pruned.node_count(), trie.node_count());
    }

    #[test]
    fn prune_huge_threshold_keeps_only_root() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(u32::MAX);
        assert_eq!(pruned.node_count(), 1);
        assert!(pruned.find(&tokens(&tree, &["book"], "")).is_none());
    }

    #[test]
    fn budget_pruning_monotone_in_budget() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let cost = |_: NodeCostInfo| 10usize;
        let small = trie.prune_to_budget(50, cost);
        let large = trie.prune_to_budget(5_000, cost);
        assert!(small.node_count() <= large.node_count());
        // Budget is respected.
        assert!((small.node_count() - 1) * 10 <= 50);
    }

    #[test]
    fn budget_pruning_prefers_frequent_nodes() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        // Enough for a handful of nodes: the most frequent subpaths
        // ("dblp", "book", "dblp.book", ... with pc=6) must win.
        let pruned = trie.prune_to_budget(200, |_| 10);
        if pruned.node_count() > 1 {
            for node in pruned.node_ids().skip(1) {
                assert!(pruned.path_count(node) >= 3);
            }
        }
    }

    #[test]
    fn zero_budget_gives_root_only() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune_to_budget(0, |_| 10);
        assert_eq!(pruned.node_count(), 1);
    }

    #[test]
    fn from_exported_roundtrips_root_only_trie() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(u32::MAX);
        assert_eq!(pruned.node_count(), 1);
        let rebuilt = PrunedTrie::from_exported(
            pruned.export_nodes(),
            pruned.total_paths(),
            pruned.threshold(),
        )
        .expect("exported table is well-ordered");
        assert_eq!(rebuilt.node_count(), 1);
        assert_eq!(rebuilt.total_paths(), pruned.total_paths());
        assert_eq!(rebuilt.find(&[]), Some(TrieNodeId::ROOT));
        assert!(rebuilt.find(&tokens(&tree, &["book"], "")).is_none());
        assert!(rebuilt.parent(TrieNodeId::ROOT).is_none());
        assert!(rebuilt.tokens_of(TrieNodeId::ROOT).is_empty());
    }

    #[test]
    fn from_exported_rejects_malformed_tables() {
        let tree = sample_tree();
        let pruned = build_suffix_trie(&tree, &TrieConfig::default()).prune(1);
        let rebuild = |nodes| PrunedTrie::from_exported(nodes, 1, 1);
        assert!(rebuild(Vec::new()).is_none(), "empty table");
        let mut rootless = pruned.export_nodes();
        rootless[0].parent = 0;
        assert!(rebuild(rootless).is_none(), "first entry is not a root");
        let mut forward = pruned.export_nodes();
        forward[1].parent = 1;
        assert!(rebuild(forward).is_none(), "parent does not precede child");
    }

    #[test]
    fn from_exported_matches_original_child_transitions() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        for threshold in [1, 2, 3] {
            let pruned = trie.prune(threshold);
            let rebuilt = PrunedTrie::from_exported(
                pruned.export_nodes(),
                pruned.total_paths(),
                pruned.threshold(),
            )
            .expect("exported table is well-ordered");
            assert_eq!(rebuilt.node_count(), pruned.node_count());
            for node in pruned.node_ids() {
                let toks = pruned.tokens_of(node);
                assert_eq!(rebuilt.find(&toks), Some(node));
                assert_eq!(rebuilt.tokens_of(node), toks);
            }
        }
    }

    #[test]
    fn tokens_of_roundtrip() {
        let tree = sample_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(1);
        for node in pruned.node_ids() {
            let toks = pruned.tokens_of(node);
            assert_eq!(pruned.find(&toks), Some(node));
        }
    }
}
