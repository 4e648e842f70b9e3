//! The write path: XML text → data tree → suffix trie → pruned, signed
//! summary → packed `TWIGFLT1` file, one span per layer.

use std::path::Path;
use std::time::Instant;

use twig_core::{Cst, CstConfig, SpaceBudget};
use twig_pst::build_suffix_trie;
use twig_tree::DataTree;

use crate::inputs::SPACE_FRACTION;
use crate::trace::Tracer;

/// One build's outcome.
#[derive(Debug)]
pub struct Built {
    pub cst: Cst,
    /// Wall time from XML text to the file on disk, seconds.
    pub total_s: f64,
    pub trie_nodes: usize,
    /// The packed container written to the file.
    pub bytes: Vec<u8>,
}

/// The summary configuration every run uses (the CLI's defaults plus
/// the space budget).
pub fn config() -> CstConfig {
    CstConfig { budget: SpaceBudget::Fraction(SPACE_FRACTION), ..CstConfig::default() }
}

/// Builds the summary of `xml` and writes its flat container to `out`.
pub fn build(xml: &str, out: &Path, tracer: &mut Tracer) -> Result<Built, String> {
    let config = config();
    let rid = tracer.rids(1);
    let started = Instant::now();
    let root = tracer.begin("build", rid);

    let open = tracer.begin("xml.parse", rid);
    let tree = DataTree::from_xml(xml).map_err(|e| format!("corpus does not parse: {e}"))?;
    tracer.end(open);

    let open = tracer.begin("pst.trie", rid);
    let trie = build_suffix_trie(&tree, &config.trie);
    tracer.end(open);

    let open = tracer.begin("core.prune_sign", rid);
    let cst = Cst::from_trie(&tree, &trie, &config).map_err(|e| format!("summary build: {e}"))?;
    tracer.end(open);

    let open = tracer.begin("flat.pack", rid);
    let bytes = twig_flat::writer::pack(&cst).map_err(|e| format!("pack: {e}"))?;
    tracer.end(open);

    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    // `Cst::build` frees the tree's trie before returning; so does this.
    let trie_nodes = trie.node_count();
    drop(trie);
    tracer.end(root);
    let total_s = started.elapsed().as_secs_f64();
    drop(tree);
    Ok(Built { cst, total_s, trie_nodes, bytes })
}
