//! Append-only string interner.
//!
//! Raw labels repeat enormously across a corpus (every schema, cluster,
//! tuple and candidate mentions the same few hundred strings), and the
//! naming algorithm compares them constantly. Interning maps each
//! distinct string to a dense [`Symbol`] once; from then on equality is a
//! `u32` compare and the memo tables key on `(Symbol, Symbol)` instead of
//! cloning `(String, String)` pairs per lookup. The arena hands out
//! `Arc<str>` leases so public APIs can hold cheap shared references to
//! the canonical spelling.

use crate::sync;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Index of an interned string (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

#[derive(Debug, Default)]
struct Inner {
    /// Symbol → canonical string; append-only.
    arena: Vec<Arc<str>>,
    /// Canonical string → symbol.
    index: HashMap<Arc<str>, Symbol>,
}

/// Thread-safe append-only interner.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `text`, returning its (new or existing) symbol.
    pub fn intern(&self, text: &str) -> Symbol {
        if let Some(&sym) = sync::read(&self.inner).index.get(text) {
            return sym;
        }
        let mut inner = sync::write(&self.inner);
        // Double-check: another thread may have interned between locks.
        if let Some(&sym) = inner.index.get(text) {
            return sym;
        }
        let sym = Symbol(inner.arena.len() as u32);
        let arc: Arc<str> = Arc::from(text);
        inner.arena.push(Arc::clone(&arc));
        inner.index.insert(arc, sym);
        sym
    }

    /// The symbol of `text` if it was interned before.
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        sync::read(&self.inner).index.get(text).copied()
    }

    /// A shared lease on the canonical spelling of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&sync::read(&self.inner).arena[sym.0 as usize])
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        sync::read(&self.inner).arena.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic while the interner is held leaves the arena and index in
    /// step (an intern pushes to both or neither), so it keeps working.
    #[test]
    fn interner_survives_a_poisoned_lock() {
        let interner = Interner::new();
        let a = interner.intern("Make");
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = interner.inner.write().unwrap();
                panic!("holder panics with the interner locked");
            });
            assert!(holder.join().is_err());
        });
        assert!(interner.inner.is_poisoned());
        assert_eq!(interner.intern("Make"), a);
        let b = interner.intern("Model");
        assert_eq!(interner.lookup("Model"), Some(b));
        assert_eq!(&*interner.resolve(b), "Model");
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interning_is_idempotent() {
        let interner = Interner::new();
        let a = interner.intern("Departure City");
        let b = interner.intern("Departure City");
        let c = interner.intern("Arrival City");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.len(), 2);
        assert_eq!(&*interner.resolve(a), "Departure City");
        assert_eq!(interner.lookup("Arrival City"), Some(c));
        assert_eq!(interner.lookup("Missing"), None);
    }

    #[test]
    fn symbols_are_dense_and_ordered_by_first_sight() {
        let interner = Interner::new();
        assert!(interner.is_empty());
        for i in 0..100u32 {
            assert_eq!(interner.intern(&format!("label{i}")), Symbol(i));
        }
        assert_eq!(interner.len(), 100);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let interner = Interner::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let interner = &interner;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let sym = interner.intern(&format!("w{}", i % 50));
                        assert_eq!(&*interner.resolve(sym), format!("w{}", i % 50).as_str());
                    }
                });
            }
        });
        assert_eq!(interner.len(), 50);
    }
}
