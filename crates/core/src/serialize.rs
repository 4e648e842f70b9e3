//! Binary (de)serialization of the CST summary.
//!
//! The whole point of a summary data structure is to live apart from the
//! data it summarizes: an optimizer process loads the summary at startup
//! without touching the corpus. The format is a small versioned
//! little-endian layout:
//!
//! ```text
//! magic "TWIGCST\1" | n | source_bytes | size_bytes | seed
//! | signature_len | threshold | total_paths
//! | labels: count, then (len, utf8)*          — interner, in symbol order
//! | nodes: count, then (parent, edge, pc, Cp, Co, flags)*
//! | signatures: per node, 0u8 | 1u8 + L×u32 components
//! ```
//!
//! No external serialization crate is used; the format is covered by
//! roundtrip and corruption tests.

use std::io::{self, Read, Write};
use std::path::Path;

use twig_pst::{ExportedNode, PrunedTrie};
use twig_sethash::CompactSignature;
use twig_util::cast::size_to_u64;
use twig_util::Interner;

use crate::cst::Cst;
use crate::error::CstError;

const MAGIC: &[u8; 8] = b"TWIGCST\x01";

/// Errors from [`Cst::read_from`].
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a CST file or uses an unknown version.
    BadMagic,
    /// The input is structurally invalid.
    Corrupt(&'static str),
    /// The parts deserialized cleanly but do not assemble into a valid
    /// CST (the construction error is chained via
    /// [`source`](std::error::Error::source)).
    Invalid(CstError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(err) => write!(f, "I/O error: {err}"),
            ReadError::BadMagic => write!(f, "not a twig CST file (bad magic/version)"),
            ReadError::Corrupt(what) => write!(f, "corrupt CST file: {what}"),
            ReadError::Invalid(err) => write!(f, "CST file assembles invalid summary: {err}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(err) => Some(err),
            ReadError::Invalid(err) => Some(err),
            ReadError::BadMagic | ReadError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(err: io::Error) -> Self {
        ReadError::Io(err)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Guards against absurd counts from corrupt headers before allocating.
const MAX_REASONABLE: u32 = 1 << 28;

/// The error injected by serialization failpoints, recognizable in tests
/// by its message prefix. Referenced from failpoint arms that fold away
/// in default builds, so it is compiled (but unreachable) there. Takes
/// the full static message so the load path never formats.
fn injected(message: &'static str) -> io::Error {
    io::Error::other(message)
}

/// Forwards at most `left` bytes to the inner writer, then reports
/// [`io::ErrorKind::WriteZero`] — the torn-write failpoint's stream
/// truncation, applied without buffering the whole encoding first.
struct TornWriter<'a, W: Write> {
    inner: &'a mut W,
    left: usize,
}

impl<W: Write> Write for TornWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        let take = buf.len().min(self.left);
        let written = self.inner.write(&buf[..take])?;
        self.left -= written.min(self.left);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Cst {
    /// Serializes the summary to `out`.
    ///
    /// Failpoint `serialize.write`: `error` fails before writing a single
    /// byte; `partial(p)` emits only the first `p` percent of the encoding
    /// and then fails — a torn write, as a crashed process would leave.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        if let Some(fault) = twig_util::failpoint!("serialize.write") {
            match fault {
                twig_util::failpoint::Fault::Error => {
                    return Err(injected("injected fault at serialize.write"));
                }
                twig_util::failpoint::Fault::Errno(code) => {
                    return Err(io::Error::from_raw_os_error(code));
                }
                twig_util::failpoint::Fault::Partial(keep_percent) => {
                    // Tear the stream at `keep` percent of the exact
                    // encoded length, streaming straight to `out` instead
                    // of double-buffering the payload.
                    let total = self.encoded_len();
                    let keep = total
                        .checked_mul(usize::try_from(keep_percent.min(100)).unwrap_or(100))
                        .map_or(total, |scaled| scaled / 100);
                    let mut torn = TornWriter { inner: out, left: keep };
                    match self.write_payload(&mut torn) {
                        // Ran out of byte budget mid-encoding: the tear.
                        Err(err) if err.kind() == io::ErrorKind::WriteZero => {}
                        other => other?,
                    }
                    return Err(injected("injected fault at serialize.write"));
                }
            }
        }
        self.write_payload(out)
    }

    /// Exact byte length of the [`Cst::write_to`] encoding (header,
    /// label table, node table, signature table).
    fn encoded_len(&self) -> usize {
        let labels: usize = self.interner_ref().iter().map(|(_, label)| 4 + label.len()).sum();
        let signatures: usize = self
            .trie()
            .node_ids()
            .map(|id| 1 + self.signature(id).map_or(0, |sig| sig.components().len() * 4))
            .sum();
        MAGIC.len() + 4 * 8 + 3 * 4 + 4 + labels + 4 + self.trie().node_count() * 21 + signatures
    }

    fn write_payload<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(MAGIC)?;
        write_u64(out, self.n())?;
        write_u64(out, size_to_u64(self.source_bytes()))?;
        write_u64(out, size_to_u64(self.size_bytes()))?;
        write_u64(out, self.seed())?;
        write_u32(out, self.signature_len() as u32)?;
        write_u32(out, self.threshold())?;
        write_u32(out, self.trie().total_paths())?;

        let interner = self.interner_ref();
        write_u32(out, interner.len() as u32)?;
        for (_, label) in interner.iter() {
            write_u32(out, label.len() as u32)?;
            out.write_all(label.as_bytes())?;
        }

        let nodes = self.trie().export_nodes();
        write_u32(out, nodes.len() as u32)?;
        for node in &nodes {
            write_u32(out, node.parent)?;
            write_u32(out, node.edge)?;
            write_u32(out, node.path_count)?;
            write_u32(out, node.presence)?;
            write_u32(out, node.occurrence)?;
            out.write_all(&[u8::from(node.label_rooted)])?;
        }

        for id in self.trie().node_ids() {
            match self.signature(id) {
                Some(sig) => {
                    out.write_all(&[1])?;
                    for &component in sig.components() {
                        write_u32(out, component)?;
                    }
                }
                None => out.write_all(&[0])?,
            }
        }
        Ok(())
    }

    /// Deserializes a summary written by [`Cst::write_to`].
    pub fn read_from<R: Read>(input: &mut R) -> Result<Cst, ReadError> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ReadError::BadMagic);
        }
        let n = read_u64(input)?;
        let source_bytes = usize::try_from(read_u64(input)?)
            .map_err(|_| ReadError::Corrupt("source size exceeds address space"))?;
        let size_bytes = usize::try_from(read_u64(input)?)
            .map_err(|_| ReadError::Corrupt("summary size exceeds address space"))?;
        let seed = read_u64(input)?;
        let signature_len = read_u32(input)? as usize;
        let threshold = read_u32(input)?;
        let total_paths = read_u32(input)?;
        if signature_len == 0 || signature_len > 1 << 16 {
            return Err(ReadError::Corrupt("implausible signature length"));
        }

        let label_count = read_u32(input)?;
        if label_count > MAX_REASONABLE {
            return Err(ReadError::Corrupt("implausible label count"));
        }
        let mut interner = Interner::new();
        for _ in 0..label_count {
            let len = read_u32(input)?;
            if len > 1 << 20 {
                return Err(ReadError::Corrupt("implausible label length"));
            }
            let mut buf = vec![0; len as usize];
            input.read_exact(&mut buf)?;
            let label =
                String::from_utf8(buf).map_err(|_| ReadError::Corrupt("label not UTF-8"))?;
            interner.try_intern(&label).ok_or(ReadError::Corrupt("implausible label count"))?;
        }

        let node_count = read_u32(input)?;
        if node_count == 0 || node_count > MAX_REASONABLE {
            return Err(ReadError::Corrupt("implausible node count"));
        }
        let mut nodes = Vec::with_capacity(node_count as usize);
        for id in 0..node_count {
            let parent = read_u32(input)?;
            let edge = read_u32(input)?;
            let path_count = read_u32(input)?;
            let presence = read_u32(input)?;
            let occurrence = read_u32(input)?;
            let mut flag = [0u8; 1];
            input.read_exact(&mut flag)?;
            let [flag] = flag;
            if id > 0 && parent >= id {
                return Err(ReadError::Corrupt("node parent out of order"));
            }
            if id == 0 && parent != u32::MAX {
                return Err(ReadError::Corrupt("first node is not a root"));
            }
            nodes.push(ExportedNode {
                parent,
                edge,
                path_count,
                presence,
                occurrence,
                label_rooted: flag != 0,
            });
        }
        let trie = PrunedTrie::from_exported(nodes, total_paths, threshold)
            .ok_or(ReadError::Corrupt("node table out of order"))?;

        let mut signatures = Vec::with_capacity(node_count as usize);
        for _ in 0..node_count {
            let mut flag = [0u8; 1];
            input.read_exact(&mut flag)?;
            let [flag] = flag;
            match flag {
                0 => signatures.push(None),
                1 => {
                    let mut components = Vec::with_capacity(signature_len);
                    for _ in 0..signature_len {
                        components.push(read_u32(input)?);
                    }
                    signatures.push(Some(CompactSignature::from_components(components)));
                }
                _ => return Err(ReadError::Corrupt("bad signature flag")),
            }
        }

        Cst::from_parts(
            trie,
            signatures,
            interner,
            n,
            signature_len,
            seed,
            size_bytes,
            source_bytes,
        )
        .map_err(ReadError::Invalid)
    }

    /// Deserializes a summary from an in-memory byte buffer.
    ///
    /// Failpoint `serialize.read`: `error` fails outright; `partial(p)`
    /// hands the parser only the first `p` percent of the buffer — a
    /// short read, exercised through the real corruption-detection paths.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Cst, ReadError> {
        if let Some(fault) = twig_util::failpoint!("serialize.read") {
            match fault {
                twig_util::failpoint::Fault::Error => {
                    return Err(ReadError::Io(injected("injected fault at serialize.read")));
                }
                twig_util::failpoint::Fault::Errno(code) => {
                    return Err(ReadError::Io(io::Error::from_raw_os_error(code)));
                }
                twig_util::failpoint::Fault::Partial(keep_percent) => {
                    // Failpoint percentages come from an env var, so the
                    // scale is checked like any other untrusted length.
                    let keep = bytes
                        .len()
                        .checked_mul(usize::try_from(keep_percent.min(100)).unwrap_or(100))
                        .map_or(bytes.len(), |scaled| scaled / 100);
                    let mut kept = bytes.get(..keep).unwrap_or(bytes);
                    return Cst::read_from(&mut kept);
                }
            }
        }
        Cst::read_from(&mut bytes)
    }

    /// Reads and deserializes a summary file written by
    /// [`Cst::write_to`]. This is the loading path shared by the CLI and
    /// the `twig-serve` summary registry.
    ///
    /// Failpoint `serialize.load_file`: `error` injects an I/O failure
    /// before the file is opened (a vanished or unreadable file).
    pub fn load_file(path: &Path) -> Result<Cst, ReadError> {
        if let Some(fault) = twig_util::failpoint!("serialize.load_file") {
            match fault {
                twig_util::failpoint::Fault::Error | twig_util::failpoint::Fault::Partial(_) => {
                    return Err(ReadError::Io(injected("injected fault at serialize.load_file")));
                }
                twig_util::failpoint::Fault::Errno(code) => {
                    return Err(ReadError::Io(io::Error::from_raw_os_error(code)));
                }
            }
        }
        let bytes = std::fs::read(path)?;
        Cst::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{CstConfig, SpaceBudget};
    use crate::estimate::{Algorithm, CountKind};
    use twig_tree::{DataTree, Twig};

    fn sample_cst() -> Cst {
        let tree = DataTree::from_xml(concat!(
            "<dblp>",
            "<book><author>Anna</author><year>1999</year></book>",
            "<book><author>Anna</author><year>1999</year></book>",
            "<book><author>Bo</author><year>2000</year></book>",
            "</dblp>"
        ))
        .unwrap();
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .expect("CST config is valid")
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let cst = sample_cst();
        let mut buffer = Vec::new();
        cst.write_to(&mut buffer).unwrap();
        let restored = Cst::read_from(&mut buffer.as_slice()).unwrap();
        assert_eq!(restored.n(), cst.n());
        assert_eq!(restored.node_count(), cst.node_count());
        assert_eq!(restored.size_bytes(), cst.size_bytes());
        assert_eq!(restored.signature_len(), cst.signature_len());
        let queries = [
            r#"book(author("Anna"),year("1999"))"#,
            r#"book(author("Bo"))"#,
            r#"dblp(book(year("2000")))"#,
        ];
        for text in queries {
            let query = Twig::parse(text).unwrap();
            for algo in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    assert_eq!(
                        cst.estimate(&query, algo, kind),
                        restored.estimate(&query, algo, kind),
                        "{algo} {kind:?} {text}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buffer = Vec::new();
        sample_cst().write_to(&mut buffer).unwrap();
        buffer[0] ^= 0xFF;
        assert!(matches!(Cst::read_from(&mut buffer.as_slice()), Err(ReadError::BadMagic)));
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buffer = Vec::new();
        sample_cst().write_to(&mut buffer).unwrap();
        for cut in [4usize, 20, buffer.len() / 2, buffer.len() - 1] {
            let truncated = &buffer[..cut];
            assert!(Cst::read_from(&mut &truncated[..]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error as _;
        // Io wraps the underlying io::Error.
        let truncated: &[u8] = &[];
        let err = Cst::read_from(&mut &truncated[..]).expect_err("empty input");
        assert!(matches!(err, ReadError::Io(_)));
        assert!(err.source().is_some(), "Io chains to io::Error");
        // Invalid chains to the CstError construction failure; the chain
        // walks to a terminal root (source of the root is None).
        let invalid =
            ReadError::Invalid(crate::CstError::SignatureTableMismatch { signatures: 1, nodes: 2 });
        let root = invalid.source().expect("Invalid chains to CstError");
        assert!(root.to_string().contains("signature table"));
        assert!(root.source().is_none());
        // Terminal variants have no source.
        assert!(ReadError::BadMagic.source().is_none());
        assert!(ReadError::Corrupt("x").source().is_none());
    }

    #[test]
    fn load_file_and_from_bytes_roundtrip() {
        let cst = sample_cst();
        let mut buffer = Vec::new();
        cst.write_to(&mut buffer).unwrap();
        let restored = Cst::from_bytes(&buffer).unwrap();
        assert_eq!(restored.node_count(), cst.node_count());

        let dir = std::env::temp_dir().join(format!("twig-serialize-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cst");
        std::fs::write(&path, &buffer).unwrap();
        let loaded = Cst::load_file(&path).unwrap();
        assert_eq!(loaded.node_count(), cst.node_count());
        assert!(matches!(Cst::load_file(&dir.join("missing.cst")), Err(ReadError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_parent_order_rejected() {
        let cst = sample_cst();
        let mut buffer = Vec::new();
        cst.write_to(&mut buffer).unwrap();
        // Node table starts after magic(8) + 4×u64 + 3×u32 + labels.
        // Rather than computing the offset, flip the parent field of the
        // second node by scanning for its known little-endian value: the
        // second node's parent is always 0 (a child of the root). Corrupt
        // a wide swath of the tail instead — read must fail, not panic.
        let tail = buffer.len() / 2;
        for byte in &mut buffer[tail..] {
            *byte = 0xFF;
        }
        assert!(Cst::read_from(&mut buffer.as_slice()).is_err());
    }
}
