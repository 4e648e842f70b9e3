//! [`FlatCst`]: a zero-copy, queryable view over a `TWIGFLT1` byte
//! range (memory-mapped file or heap buffer).
//!
//! # Validation policy
//!
//! Opening is O(1) in the summary size: [`FlatCst::open`] eagerly
//! validates only the fixed header and the section table — magic,
//! version, every offset/length in bounds via checked arithmetic,
//! 64-byte alignment, no overlap, exactly one section of each kind,
//! and cross-checked element counts. Section *payloads* are verified
//! lazily: the first touch of a section hashes it (FNV-1a 64) against
//! the table's checksum. On mismatch the section is pinned empty, every
//! accessor over it degrades to safe defaults (counts 0, no children,
//! no signature), and [`FlatCst::integrity_error`] reports the typed
//! error; [`FlatCst::verify`] forces all checks eagerly (used by
//! `twig inspect` and the hostility suite).
//!
//! Accessors are panic-free under arbitrary bytes: every read is
//! bounds-checked, parent pointers must strictly decrease (so corrupt
//! data cannot loop a root-ward walk), and child/signature indices are
//! range-checked before use.

use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use twig_core::{
    estimate_raw_summary, estimate_summary, sibling_discount_summary, Algorithm, CountKind,
    QueryPlan, SignatureFallback, Summary, TrieAccess,
};
use twig_pst::{EdgeKey, PathToken, TrieNodeId};
use twig_sethash::SigView;
use twig_tree::Twig;
use twig_util::{fnv1a64, Symbol};

use crate::error::FlatError;
use crate::format::{
    read_u32, read_u64, Header, SectionKind, MAX_REASONABLE, PAYLOAD_OFFSET, SECTION_ALIGN,
    SECTION_COUNT, TABLE_ENTRY_LEN, TABLE_OFFSET,
};
use crate::mmap::Mapping;

/// Resolved location of one section inside the file.
#[derive(Debug, Clone, Copy, Default)]
struct Section {
    start: usize,
    end: usize,
    checksum: u64,
}

/// Lazy checksum states; 0 (the `AtomicU8` default) means unchecked.
const CHECKED_OK: u8 = 1;
const CHECKED_BAD: u8 = 2;

/// A flat summary, queryable in place. Implements the same
/// [`Summary`] surface as the owned `Cst`, so all six estimation
/// algorithms run over it unmodified and bit-identically.
pub struct FlatCst {
    data: Mapping,
    header: Header,
    fallback: SignatureFallback,
    sections: [Section; SECTION_COUNT],
    state: [AtomicU8; SECTION_COUNT],
    integrity: OnceLock<FlatError>,
}

/// Location and checksum of one section, for `twig inspect`.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Section name (as in the format docs).
    pub name: &'static str,
    /// Absolute byte offset.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Stored FNV-1a checksum.
    pub checksum: u64,
}

impl FlatCst {
    /// Maps `path` read-only (heap fallback) and validates the envelope.
    pub fn open(path: &Path) -> Result<Self, FlatError> {
        let mut file = File::open(path)?;
        let data = Mapping::map_file(&mut file)?;
        Self::from_mapping(data)
    }

    /// Adopts an in-memory flat summary (e.g. recovered snapshot bytes).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, FlatError> {
        Self::from_mapping(Mapping::Heap(bytes))
    }

    #[inline]
    fn from_mapping(data: Mapping) -> Result<Self, FlatError> {
        let bytes = data.bytes();
        let (header, section_count) = Header::decode(bytes)?;
        if section_count as usize != SECTION_COUNT {
            return Err(FlatError::Malformed("section count mismatch"));
        }
        if header.node_count == 0 {
            return Err(FlatError::Malformed("empty node table"));
        }
        if header.node_count > MAX_REASONABLE {
            return Err(FlatError::Malformed("node count out of range"));
        }
        let table = bytes.get(TABLE_OFFSET..PAYLOAD_OFFSET).ok_or(FlatError::TooShort)?;

        let mut sections = [Section::default(); SECTION_COUNT];
        let mut seen = [false; SECTION_COUNT];
        for entry in 0..SECTION_COUNT {
            let base = entry * TABLE_ENTRY_LEN;
            let kind_id = read_u32(table, base).ok_or(FlatError::TooShort)?;
            let kind = SectionKind::from_id(kind_id)
                .ok_or(FlatError::Malformed("unknown section kind"))?;
            let offset = usize::try_from(read_u64(table, base + 8).ok_or(FlatError::TooShort)?)
                .map_err(|_| FlatError::Malformed("section offset exceeds address space"))?;
            let len = usize::try_from(read_u64(table, base + 16).ok_or(FlatError::TooShort)?)
                .map_err(|_| FlatError::Malformed("section length exceeds address space"))?;
            let checksum = read_u64(table, base + 24).ok_or(FlatError::TooShort)?;
            if offset.checked_rem(SECTION_ALIGN) != Some(0) {
                return Err(FlatError::Malformed("misaligned section"));
            }
            if offset < PAYLOAD_OFFSET {
                return Err(FlatError::Malformed("section overlaps header"));
            }
            let end =
                offset.checked_add(len).ok_or(FlatError::Malformed("section length overflow"))?;
            if end > bytes.len() {
                return Err(FlatError::Malformed("section out of bounds"));
            }
            let slot =
                seen.get_mut(kind.index()).ok_or(FlatError::Malformed("unknown section kind"))?;
            if *slot {
                return Err(FlatError::Malformed("duplicate section"));
            }
            *slot = true;
            if let Some(section) = sections.get_mut(kind.index()) {
                *section = Section { start: offset, end, checksum };
            }
        }

        // No two sections may share bytes.
        let mut spans: Vec<(usize, usize)> =
            sections.iter().map(|section| (section.start, section.end)).collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if let [(_, first_end), (second_start, _)] = pair {
                if first_end > second_start {
                    return Err(FlatError::Malformed("overlapping sections"));
                }
            }
        }

        let flat = Self {
            header,
            fallback: if header.fallback == 0 {
                SignatureFallback::ConditionalIndependence
            } else {
                SignatureFallback::Zero
            },
            sections,
            state: Default::default(),
            integrity: OnceLock::new(),
            data,
        };
        flat.validate_element_counts()?;
        Ok(flat)
    }

    /// Cross-checks every fixed-width section's length against the
    /// header's counts (still O(1): lengths only, no payload reads).
    #[inline]
    fn validate_element_counts(&self) -> Result<(), FlatError> {
        let nc = self.header.node_count as usize;
        let word_len = |count: usize| count.checked_mul(4);
        let len_of = |kind: SectionKind| {
            self.sections.get(kind.index()).map_or(0, |section| section.end - section.start)
        };
        let per_node = word_len(nc).ok_or(FlatError::Malformed("node count overflow"))?;
        for kind in [
            SectionKind::NodeParent,
            SectionKind::NodeEdge,
            SectionKind::NodePc,
            SectionKind::NodePresence,
            SectionKind::NodeOccurrence,
            SectionKind::SigIndex,
        ] {
            if len_of(kind) != per_node {
                return Err(FlatError::Malformed("node section size mismatch"));
            }
        }
        if len_of(SectionKind::NodeFlags) != nc {
            return Err(FlatError::Malformed("flags section size mismatch"));
        }
        let starts = word_len(nc + 1).ok_or(FlatError::Malformed("node count overflow"))?;
        if len_of(SectionKind::ChildStart) != starts {
            return Err(FlatError::Malformed("child index size mismatch"));
        }
        let edge_len = len_of(SectionKind::ChildEdge);
        if edge_len % 4 != 0 || edge_len != len_of(SectionKind::ChildTarget) {
            return Err(FlatError::Malformed("child arrays size mismatch"));
        }
        let sig_len = len_of(SectionKind::SigWords);
        let lane = self.header.signature_len as usize;
        match word_len(lane) {
            Some(0) => {
                if sig_len != 0 {
                    return Err(FlatError::Malformed("signature words without length"));
                }
            }
            Some(stride) => {
                if sig_len.checked_rem(stride) != Some(0) {
                    return Err(FlatError::Malformed("signature words size mismatch"));
                }
            }
            None => return Err(FlatError::Malformed("signature length overflow")),
        }
        let offsets_len = len_of(SectionKind::StrOffsets);
        if offsets_len < 4 || offsets_len % 4 != 0 {
            return Err(FlatError::Malformed("label offsets size mismatch"));
        }
        Ok(())
    }

    /// The section's bytes, verified lazily on first touch. A failed
    /// checksum pins the section empty and records the error.
    #[inline]
    fn section(&self, kind: SectionKind) -> &[u8] {
        let index = kind.index();
        let (Some(section), Some(state)) = (self.sections.get(index), self.state.get(index)) else {
            return &[];
        };
        let bytes = self.data.bytes().get(section.start..section.end).unwrap_or(&[]);
        match state.load(Ordering::Acquire) {
            CHECKED_OK => bytes,
            CHECKED_BAD => &[],
            _ => {
                if fnv1a64(bytes) == section.checksum {
                    state.store(CHECKED_OK, Ordering::Release);
                    bytes
                } else {
                    state.store(CHECKED_BAD, Ordering::Release);
                    let _ = self.integrity.set(FlatError::Checksum { section: kind.name() });
                    &[]
                }
            }
        }
    }

    /// Eagerly verifies every section checksum (first failure wins).
    pub fn verify(&self) -> Result<(), FlatError> {
        for kind in SectionKind::ALL {
            if self.section(kind).is_empty()
                && self
                    .sections
                    .get(kind.index())
                    .is_some_and(|section| section.end > section.start)
            {
                return Err(FlatError::Checksum { section: kind.name() });
            }
        }
        Ok(())
    }

    /// The first integrity failure observed by a lazy check, if any.
    pub fn integrity_error(&self) -> Option<&FlatError> {
        self.integrity.get()
    }

    /// True when the bytes are kernel-mapped (vs heap-resident).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Total size of the underlying byte range.
    pub fn file_len(&self) -> usize {
        self.data.bytes().len()
    }

    /// The complete underlying byte range (mapped or heap) — the flat
    /// container itself, e.g. for persisting into a snapshot store
    /// without re-packing.
    pub fn as_bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// Section locations and checksums, in file order (`twig inspect`).
    pub fn sections(&self) -> Vec<SectionInfo> {
        SectionKind::ALL
            .iter()
            .map(|&kind| {
                let section = self.sections.get(kind.index()).copied().unwrap_or_default();
                SectionInfo {
                    name: kind.name(),
                    offset: section.start,
                    len: section.end - section.start,
                    checksum: section.checksum,
                }
            })
            .collect()
    }

    /// One `u32` element of a fixed-width node section.
    #[inline]
    fn node_u32(&self, kind: SectionKind, index: usize) -> Option<u32> {
        read_u32(self.section(kind), index.checked_mul(4)?)
    }

    /// Number of kept trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.header.node_count as usize
    }

    /// Number of data tree element nodes (`n` of the formulae).
    pub fn n(&self) -> u64 {
        self.header.n
    }

    /// Accounted summary size under the CST cost model.
    pub fn size_bytes(&self) -> u64 {
        self.header.size_bytes
    }

    /// Size of the XML source the summarized tree was parsed from.
    pub fn source_bytes(&self) -> u64 {
        self.header.source_bytes
    }

    /// Min-hash family seed.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Signature length `L`.
    pub fn signature_len(&self) -> usize {
        self.header.signature_len as usize
    }

    /// The prune threshold the budget search selected.
    pub fn threshold(&self) -> u32 {
        self.header.threshold
    }

    /// Total root-to-leaf paths in the data tree.
    pub fn total_paths(&self) -> u32 {
        self.header.total_paths
    }

    /// The below-resolution fallback mode.
    pub fn fallback(&self) -> SignatureFallback {
        self.fallback
    }

    /// Overrides the fallback mode (a query-time choice; the mapped
    /// bytes are untouched).
    pub fn set_fallback(&mut self, fallback: SignatureFallback) {
        self.fallback = fallback;
    }

    /// Presence count `Cp(α)` of a trie node.
    pub fn presence(&self, node: TrieNodeId) -> u64 {
        u64::from(self.node_u32(SectionKind::NodePresence, node.index()).unwrap_or(0))
    }

    /// Occurrence count `Co(α)` of a trie node.
    pub fn occurrence(&self, node: TrieNodeId) -> u64 {
        u64::from(self.node_u32(SectionKind::NodeOccurrence, node.index()).unwrap_or(0))
    }

    /// The child of `node` along `edge`, by binary search over the
    /// node's CSR row.
    #[inline]
    fn child_of(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
        if node.index() >= self.node_count() {
            return None;
        }
        let starts = self.section(SectionKind::ChildStart);
        let mut lo = read_u32(starts, node.index().checked_mul(4)?)? as usize;
        let mut hi = read_u32(starts, node.index().checked_add(1)?.checked_mul(4)?)? as usize;
        if lo > hi {
            return None;
        }
        let edges = self.section(SectionKind::ChildEdge);
        let raw = edge.raw();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let probe = read_u32(edges, mid.checked_mul(4)?)?;
            if probe < raw {
                lo = mid + 1;
            } else if probe > raw {
                hi = mid;
            } else {
                let target = read_u32(self.section(SectionKind::ChildTarget), mid.checked_mul(4)?)?;
                return ((target as usize) < self.node_count()).then_some(TrieNodeId(target));
            }
        }
        None
    }

    /// The parent of `node`, or `None` for the root. Corrupt parent
    /// pointers (id not strictly below the child's) read as `None`, so
    /// root-ward walks always terminate.
    #[inline]
    fn parent_of(&self, node: TrieNodeId) -> Option<TrieNodeId> {
        let raw = self.node_u32(SectionKind::NodeParent, node.index())?;
        (raw != u32::MAX && (raw as usize) < node.index()).then_some(TrieNodeId(raw))
    }

    /// The token sequence spelled by the root-to-`node` path (empty for
    /// the root, and for unreadable or corrupt node chains).
    #[inline]
    fn tokens_of_node(&self, node: TrieNodeId) -> Vec<PathToken> {
        let mut reversed = Vec::new();
        let mut cursor = node;
        while cursor.index() != 0 {
            if cursor.index() >= self.node_count() {
                return Vec::new();
            }
            let Some(edge_raw) = self.node_u32(SectionKind::NodeEdge, cursor.index()) else {
                return Vec::new();
            };
            reversed.push(EdgeKey::from_raw(edge_raw).token());
            match self.parent_of(cursor) {
                Some(parent) => cursor = parent,
                None => return Vec::new(),
            }
        }
        reversed.reverse();
        reversed
    }

    /// Looks up the trie node for a token sequence, if fully present.
    pub fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        let mut node = TrieNodeId(0);
        for token in tokens {
            node = self.child_of(node, token.edge())?;
        }
        Some(node)
    }

    /// Resolves a query label against the packed vocabulary (linear
    /// scan; query labels are few and short).
    pub fn symbol(&self, label: &str) -> Option<Symbol> {
        let offsets = self.section(SectionKind::StrOffsets);
        let bytes = self.section(SectionKind::StrBytes);
        let count = (offsets.len() / 4).saturating_sub(1);
        for index in 0..count {
            let start = read_u32(offsets, index.checked_mul(4)?)? as usize;
            let end = read_u32(offsets, index.checked_add(1)?.checked_mul(4)?)? as usize;
            if start <= end && bytes.get(start..end) == Some(label.as_bytes()) {
                return u32::try_from(index).ok().map(Symbol);
            }
        }
        None
    }

    /// The bytes of the `index`-th packed label.
    fn label_bytes(&self, index: usize) -> Option<&[u8]> {
        let offsets = self.section(SectionKind::StrOffsets);
        let start = read_u32(offsets, index.checked_mul(4)?)? as usize;
        let end = read_u32(offsets, index.checked_add(1)?.checked_mul(4)?)? as usize;
        self.section(SectionKind::StrBytes).get(start..end)
    }

    /// Signature of the subpath at `node`, if stored — a borrowed view
    /// straight over the mapped little-endian words.
    pub fn signature(&self, node: TrieNodeId) -> Option<SigView<'_>> {
        let slot = self.node_u32(SectionKind::SigIndex, node.index())?;
        if slot == u32::MAX {
            return None;
        }
        let stride = self.signature_len().checked_mul(4)?;
        let start = (slot as usize).checked_mul(stride)?;
        let end = start.checked_add(stride)?;
        self.section(SectionKind::SigWords).get(start..end).map(SigView::Bytes)
    }

    /// Estimate with MO sibling discounting — `Cst::estimate`, over the
    /// mapped bytes.
    pub fn estimate(&self, twig: &Twig, algorithm: Algorithm, kind: CountKind) -> f64 {
        estimate_summary(self, twig, algorithm, kind)
    }

    /// Raw (undiscounted) estimate, optionally through a cached plan —
    /// `Cst::estimate_raw`, over the mapped bytes.
    pub fn estimate_raw(
        &self,
        twig: &Twig,
        algorithm: Algorithm,
        kind: CountKind,
        plan: Option<&QueryPlan>,
    ) -> f64 {
        estimate_raw_summary(self, twig, algorithm, kind, plan)
    }

    /// The MO sibling discount factor — `Cst::sibling_discount`, over
    /// the mapped bytes.
    pub fn sibling_discount(&self, twig: &Twig) -> f64 {
        sibling_discount_summary(self, twig)
    }
}

impl std::fmt::Debug for FlatCst {
    #[inline]
    fn fmt(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        formatter
            .debug_struct("FlatCst")
            .field("node_count", &self.header.node_count)
            .field("n", &self.header.n)
            .field("signature_len", &self.header.signature_len)
            .field("mapped", &self.is_mapped())
            .finish_non_exhaustive()
    }
}

/// The borrowed trie view of a [`FlatCst`].
#[derive(Clone, Copy)]
pub struct FlatTrie<'a> {
    cst: &'a FlatCst,
}

impl TrieAccess for FlatTrie<'_> {
    #[inline]
    fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
        self.cst.child_of(node, edge)
    }

    #[inline]
    fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId> {
        self.cst.parent_of(node)
    }

    #[inline]
    fn tokens_of(&self, node: TrieNodeId) -> Vec<PathToken> {
        self.cst.tokens_of_node(node)
    }
}

impl Summary for FlatCst {
    type Trie<'a> = FlatTrie<'a>;

    #[inline]
    fn trie(&self) -> FlatTrie<'_> {
        FlatTrie { cst: self }
    }

    fn node_count(&self) -> usize {
        FlatCst::node_count(self)
    }

    fn threshold(&self) -> u32 {
        FlatCst::threshold(self)
    }

    #[inline]
    fn n(&self) -> u64 {
        FlatCst::n(self)
    }

    #[inline]
    fn signature_len(&self) -> usize {
        FlatCst::signature_len(self)
    }

    #[inline]
    fn fallback(&self) -> SignatureFallback {
        FlatCst::fallback(self)
    }

    #[inline]
    fn symbol(&self, label: &str) -> Option<Symbol> {
        FlatCst::symbol(self, label)
    }

    /// Empty when the packed label table does not hold `sym`.
    fn label_str(&self, sym: Symbol) -> &str {
        self.label_bytes(sym.index())
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .unwrap_or("")
    }

    #[inline]
    fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        FlatCst::lookup(self, tokens)
    }

    #[inline]
    fn presence(&self, node: TrieNodeId) -> u64 {
        FlatCst::presence(self, node)
    }

    #[inline]
    fn occurrence(&self, node: TrieNodeId) -> u64 {
        FlatCst::occurrence(self, node)
    }

    fn path_count(&self, node: TrieNodeId) -> u32 {
        self.node_u32(SectionKind::NodePc, node.index()).unwrap_or(0)
    }

    fn label_rooted(&self, node: TrieNodeId) -> bool {
        self.section(SectionKind::NodeFlags).get(node.index()).is_some_and(|flag| flag & 1 != 0)
    }

    #[inline]
    fn signature(&self, node: TrieNodeId) -> Option<SigView<'_>> {
        FlatCst::signature(self, node)
    }
}
