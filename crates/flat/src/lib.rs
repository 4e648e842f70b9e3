//! Zero-copy flat summaries: the `TWIGFLT1` on-disk format and its
//! mmap-backed query view.
//!
//! The owned [`Cst`] deserializer (`TWIGCST`) allocates per node; a host
//! serving *many* summaries pays that cost at every load and reload.
//! This crate trades a one-time packing step for O(1) loads:
//!
//! - [`writer::pack`] lays a built summary out as one page-aligned,
//!   little-endian, offset-based byte range (header + section table +
//!   CSR arrays + signature words + label table, each section carrying
//!   an FNV-1a checksum);
//! - [`FlatCst`] maps that range read-only (heap fallback) and
//!   implements the [`Summary`](twig_core::Summary) trait, so all six estimation algorithms
//!   of the paper run *in place* over the mapped bytes — no per-node
//!   allocation, bit-identical estimates (the estimators execute the
//!   same float-op sequence either way; see the seed-sweep tests);
//! - [`load_file`] / [`load_bytes`] sniff the magic bytes and turn
//!   either format into a `FlatCst` (an owned `TWIGCST` input is packed
//!   at load), so the serving layer hosts one summary type: a reload of
//!   a mapped file is a map-swap, with the old generation unmapped when
//!   the last in-flight request drops its `Arc`.
//!
//! # Example
//!
//! ```
//! use twig_core::{Algorithm, CountKind, Cst, CstConfig};
//! use twig_flat::{writer, FlatCst};
//! use twig_tree::{DataTree, Twig};
//!
//! let xml = "<dblp><book><author>Knuth</author></book></dblp>";
//! let tree = DataTree::from_xml(xml).unwrap();
//! let cst = Cst::build(&tree, &CstConfig::default()).unwrap();
//! let flat = FlatCst::from_bytes(writer::pack(&cst).unwrap()).unwrap();
//! let query = Twig::parse(r#"book(author("Knuth"))"#).unwrap();
//! let a = Algorithm::Mosh;
//! let owned = cst.estimate(&query, a, CountKind::Presence);
//! let mapped = flat.estimate(&query, a, CountKind::Presence);
//! assert_eq!(owned.to_bits(), mapped.to_bits());
//! ```

pub mod error;
pub mod format;
mod mmap;
pub mod reader;
pub mod writer;

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use twig_core::serialize::ReadError;
use twig_core::Cst;

pub use error::FlatError;
pub use reader::{FlatCst, FlatTrie, SectionInfo};

/// Why a summary file (of either format) failed to load.
#[derive(Debug)]
pub enum LoadError {
    /// The owned (`TWIGCST`) deserializer rejected the input.
    Owned(ReadError),
    /// The flat (`TWIGFLT1`) validator rejected the input.
    Flat(FlatError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Owned(err) => write!(formatter, "owned summary: {err}"),
            LoadError::Flat(err) => write!(formatter, "flat summary: {err}"),
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Owned(err) => Some(err),
            LoadError::Flat(err) => Some(err),
        }
    }
}

/// Loads a summary file of either format as a [`FlatCst`], deciding by
/// magic bytes: a `TWIGFLT1` file is memory-mapped; a `TWIGCST` file is
/// deserialized and packed into a heap-backed container. This is the
/// one loader every serving and estimating caller goes through.
pub fn load_file(path: &Path) -> Result<FlatCst, LoadError> {
    let mut magic = [0u8; 8];
    let sniffed = File::open(path).and_then(|mut file| file.read_exact(&mut magic));
    if sniffed.is_ok() && &magic == format::MAGIC {
        return FlatCst::open(path).map_err(LoadError::Flat);
    }
    // Read failures land here too, so the owned loader reports them.
    pack_owned(Cst::load_file(path).map_err(LoadError::Owned)?)
}

/// Adopts in-memory summary bytes of either format (e.g. a payload
/// recovered from a snapshot container): `TWIGFLT1` bytes are adopted
/// as-is, `TWIGCST` bytes are deserialized and packed.
pub fn load_bytes(bytes: Vec<u8>) -> Result<FlatCst, LoadError> {
    if bytes.get(..8) == Some(format::MAGIC) {
        return FlatCst::from_bytes(bytes).map_err(LoadError::Flat);
    }
    pack_owned(Cst::from_bytes(&bytes).map_err(LoadError::Owned)?)
}

fn pack_owned(cst: Cst) -> Result<FlatCst, LoadError> {
    writer::pack(&cst).and_then(FlatCst::from_bytes).map_err(LoadError::Flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_core::{CstConfig, Summary, TrieAccess};
    use twig_tree::DataTree;

    fn small_cst() -> Cst {
        let xml = r#"<dblp>
            <book><author>Suciu</author><year>1999</year></book>
            <book><author>Korn</author><year>1999</year></book>
            <article><author>Muthukrishnan</author></article>
        </dblp>"#;
        let tree = DataTree::from_xml(xml).unwrap();
        Cst::build(&tree, &CstConfig::default()).unwrap()
    }

    #[test]
    fn pack_open_roundtrip_preserves_structure() {
        let cst = small_cst();
        let bytes = writer::pack(&cst).unwrap();
        let flat = FlatCst::from_bytes(bytes).unwrap();
        assert_eq!(flat.node_count(), cst.node_count());
        assert_eq!(flat.n(), cst.n());
        assert_eq!(flat.signature_len(), cst.signature_len());
        assert_eq!(flat.threshold(), cst.threshold());
        assert_eq!(flat.total_paths(), cst.trie().total_paths());
        assert_eq!(flat.seed(), cst.seed());
        flat.verify().unwrap();
        assert!(flat.integrity_error().is_none());
        // Per-node counts and flags agree.
        for node in cst.trie().node_ids() {
            assert_eq!(flat.presence(node), cst.presence(node));
            assert_eq!(flat.occurrence(node), cst.occurrence(node));
            assert_eq!(flat.path_count(node), cst.trie().path_count(node));
            assert_eq!(flat.label_rooted(node), cst.trie().label_rooted(node));
            assert_eq!(
                flat.signature(node).is_some(),
                cst.signature(node).is_some(),
                "signature presence differs at {node:?}"
            );
        }
        // Vocabulary agrees both ways.
        assert_eq!(flat.symbol("book"), cst.symbol("book"));
        assert_eq!(flat.symbol("no-such-label"), None);
        // Trie navigation agrees: every node's token path resolves back.
        for node in cst.trie().node_ids() {
            let tokens = cst.trie().tokens_of(node);
            assert_eq!(flat.lookup(&tokens), Some(node));
            assert_eq!(Summary::trie(&flat).tokens_of(node), tokens);
        }
    }

    #[test]
    fn file_roundtrip_uses_mmap() {
        let cst = small_cst();
        let dir = std::env::temp_dir().join("twig-flat-lib-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.flt");
        writer::write_file(&cst, &path).unwrap();
        let flat = FlatCst::open(&path).unwrap();
        #[cfg(unix)]
        assert!(flat.is_mapped());
        flat.verify().unwrap();
        assert_eq!(flat.node_count(), cst.node_count());

        let loaded = load_file(&path).unwrap();
        #[cfg(unix)]
        assert!(loaded.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loader_packs_owned_format() {
        let cst = small_cst();
        let mut owned_bytes = Vec::new();
        cst.write_to(&mut owned_bytes).unwrap();
        let packed = load_bytes(owned_bytes).unwrap();
        assert!(!packed.is_mapped());
        assert_eq!(packed.as_bytes(), writer::pack(&cst).unwrap());

        let adopted = load_bytes(writer::pack(&cst).unwrap()).unwrap();
        assert_eq!(adopted.node_count(), cst.node_count());
        assert!(matches!(load_bytes(b"TWIGCST garbage".to_vec()), Err(LoadError::Owned(_))));
        assert!(matches!(load_bytes(b"TWIGFLT1".to_vec()), Err(LoadError::Flat(_))));
    }
}
