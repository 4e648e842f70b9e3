//! String interning for element labels.
//!
//! A data tree over a 50 MB XML document has millions of nodes but only a
//! handful of distinct element names. Interning maps each name to a dense
//! [`Symbol`] (`u32`) so nodes, trie edges and query nodes compare and hash
//! in one instruction.

use crate::hash::FxHashMap;

/// A dense handle to an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; two interners assign ids independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    lookup: FxHashMap<Box<str>, Symbol>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its existing symbol if already present.
    ///
    /// # Panics
    /// Panics when the `u32` symbol space is exhausted.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.try_intern(s).expect("interner overflow")
    }

    /// [`Interner::intern`], or `None` when the `u32` symbol space is
    /// exhausted (for loaders of untrusted label tables).
    pub fn try_intern(&mut self, s: &str) -> Option<Symbol> {
        if let Some(&sym) = self.lookup.get(s) {
            return Some(sym);
        }
        let sym = Symbol(u32::try_from(self.strings.len()).ok()?);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        Some(sym)
    }

    /// Returns the symbol for `s` without inserting, if it was interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (Symbol(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = Interner::new();
        let a = interner.intern("book");
        let b = interner.intern("book");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_resolve() {
        let mut interner = Interner::new();
        let a = interner.intern("book");
        let b = interner.intern("author");
        let c = interner.intern("year");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(interner.resolve(b), "author");
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = Interner::new();
        assert_eq!(interner.get("book"), None);
        let sym = interner.intern("book");
        assert_eq!(interner.get("book"), Some(sym));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut interner = Interner::new();
        interner.intern("a");
        interner.intern("b");
        let collected: Vec<_> = interner.iter().map(|(s, t)| (s.0, t.to_owned())).collect();
        assert_eq!(collected, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }
}
