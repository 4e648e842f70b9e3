//! Integration coverage of the suffix trie: counts on structured corpora
//! and budget-pruning behavior.

use twig_pst::{build_suffix_trie, NodeCostInfo, PathToken, TrieConfig};
use twig_tree::DataTree;

fn tokens(tree: &DataTree, labels: &[&str], value: &str) -> Vec<PathToken> {
    let mut out: Vec<PathToken> =
        labels.iter().map(|l| PathToken::Element(tree.symbol(l).expect("known label"))).collect();
    out.extend(value.bytes().map(PathToken::Char));
    out
}

/// A corpus where `author` occurs under two parents (cite blocks),
/// exercising the multi-parent count semantics.
fn multiparent_tree() -> DataTree {
    let mut xml = String::from("<dblp>");
    for i in 0..10 {
        xml.push_str(&format!(
            "<article><author>Alan</author><cite><author>Bea</author></cite><year>19{:02}</year></article>",
            80 + (i % 5)
        ));
    }
    xml.push_str("</dblp>");
    DataTree::from_xml(&xml).unwrap()
}

#[test]
fn multi_parent_labels_counted_separately() {
    let tree = multiparent_tree();
    let trie = build_suffix_trie(&tree, &TrieConfig::default());
    let direct = trie.find(&tokens(&tree, &["article", "author"], "")).unwrap();
    let cited = trie.find(&tokens(&tree, &["cite", "author"], "")).unwrap();
    let any = trie.find(&tokens(&tree, &["author"], "")).unwrap();
    assert_eq!(trie.presence(direct), 10);
    assert_eq!(trie.presence(cited), 10);
    assert_eq!(trie.presence(any), 20, "author occurrences from both contexts");
    // Value prefixes are context-sensitive too.
    let direct_a = trie.find(&tokens(&tree, &["article", "author"], "Alan")).unwrap();
    let any_b = trie.find(&tokens(&tree, &["author"], "Bea")).unwrap();
    assert_eq!(trie.presence(direct_a), 10);
    assert_eq!(trie.presence(any_b), 10);
    assert!(trie.find(&tokens(&tree, &["article", "author"], "Bea")).is_none());
}

#[test]
fn budget_pruning_strict_monotone_nested() {
    let tree = multiparent_tree();
    let trie = build_suffix_trie(&tree, &TrieConfig::default());
    let cost = |info: NodeCostInfo| if info.label_rooted { 100 } else { 20 };
    let mut last_count = usize::MAX;
    for budget in [100_000usize, 10_000, 2_000, 400, 0] {
        let pruned = trie.prune_to_budget(budget, cost);
        assert!(pruned.node_count() <= last_count, "budget {budget}");
        last_count = pruned.node_count();
        // Every kept node's pc meets the threshold.
        for node in pruned.node_ids().skip(1) {
            assert!(pruned.path_count(node) >= pruned.threshold());
        }
    }
}

#[test]
fn signature_pass_visits_each_rooting_node() {
    use twig_pst::builder::for_each_rooted_subpath;
    let tree = multiparent_tree();
    let config = TrieConfig::default();
    let trie = build_suffix_trie(&tree, &config);
    let pruned = trie.prune(1);
    // Collect distinct (start, node) pairs; the count per trie node must
    // equal its presence count.
    use std::collections::HashSet;
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for_each_rooted_subpath(&tree, &pruned, &config, |start, node| {
        seen.insert((start.0, node.0));
    });
    for node in pruned.node_ids().skip(1) {
        if !pruned.label_rooted(node) {
            continue;
        }
        let distinct_starts = seen.iter().filter(|&&(_, n)| n == node.0).count();
        assert_eq!(distinct_starts, pruned.presence(node) as usize, "node {node:?}");
    }
}

#[test]
fn deep_chain_counts() {
    let tree =
        DataTree::from_xml("<a><b><c><d><e>xyz</e></d></c></b><b><c><d><e>xyz</e></d></c></b></a>")
            .unwrap();
    let trie = build_suffix_trie(&tree, &TrieConfig::default());
    for (labels, presence) in [
        (vec!["a"], 1),
        (vec!["a", "b"], 1),
        (vec!["b", "c", "d"], 2),
        (vec!["c", "d", "e"], 2),
        (vec!["a", "b", "c", "d", "e"], 1),
    ] {
        let node = trie.find(&tokens(&tree, &labels, "")).unwrap();
        assert_eq!(trie.presence(node), presence, "{labels:?}");
    }
    // Occurrence of a.b is 2 (two b-instances), presence 1.
    let ab = trie.find(&tokens(&tree, &["a", "b"], "")).unwrap();
    assert_eq!(trie.occurrence(ab), 2);
}

#[test]
fn empty_values_and_whitespace_handling() {
    // Elements with no text; the parser drops whitespace-only runs.
    let tree = DataTree::from_xml("<a>\n  <b>  </b>\n  <c>x</c>\n</a>").unwrap();
    let trie = build_suffix_trie(&tree, &TrieConfig::default());
    assert_eq!(trie.total_paths(), 2); // b (childless) and c.x
    let b = trie.find(&tokens(&tree, &["a", "b"], "")).unwrap();
    assert_eq!(trie.presence(b), 1);
}

#[test]
fn export_import_roundtrip_preserves_structure() {
    use twig_pst::PrunedTrie;
    let tree = multiparent_tree();
    let trie = build_suffix_trie(&tree, &TrieConfig::default());
    let pruned = trie.prune(3);
    let exported = pruned.export_nodes();
    let rebuilt = PrunedTrie::from_exported(exported, pruned.total_paths(), pruned.threshold())
        .expect("exported table is well-ordered");
    assert_eq!(rebuilt.node_count(), pruned.node_count());
    for node in pruned.node_ids() {
        assert_eq!(rebuilt.presence(node), pruned.presence(node));
        assert_eq!(rebuilt.occurrence(node), pruned.occurrence(node));
        assert_eq!(rebuilt.tokens_of(node), pruned.tokens_of(node));
    }
}
