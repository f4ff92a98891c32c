//! Global, append-only string interner.
//!
//! Interned strings are leaked (the interner lives for the whole process),
//! which lets [`Symbol::as_str`] hand out `&'static str` without holding a
//! lock. The write path takes a mutex only on a miss.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned constant (a URI or literal from the paper's set **U**).
///
/// Symbols are cheap to copy, compare and hash; two symbols are equal iff
/// their underlying strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::with_capacity(1024),
            strings: Vec::with_capacity(1024),
        })
    })
}

/// Interns `s`, returning its stable [`Symbol`].
pub fn intern(s: &str) -> Symbol {
    {
        let guard = global().read().expect("interner lock poisoned");
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
    }
    let mut guard = global().write().expect("interner lock poisoned");
    if let Some(&id) = guard.map.get(s) {
        return Symbol(id);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let id = guard.strings.len() as u32;
    guard.strings.push(leaked);
    guard.map.insert(leaked, id);
    Symbol(id)
}

/// Resolves a symbol back to its string.
pub fn resolve(sym: Symbol) -> &'static str {
    global().read().expect("interner lock poisoned").strings[sym.0 as usize]
}

/// A point-in-time copy of the full string table, in id order — the side
/// table a persistence snapshot writes so its symbol ids stay decodable
/// in a different process (see `codec::encode_interner`).
///
/// The interner is append-only, so index `i` of the returned vector is
/// the string of `Symbol(i)` forever; later interning only extends the
/// table.
pub fn interned_strings() -> Vec<&'static str> {
    interned_strings_from(0)
}

/// The strings of the table from id `from` on (none past its end).
pub fn interned_strings_from(from: usize) -> Vec<&'static str> {
    let guard = global().read().expect("interner lock poisoned");
    guard.strings.get(from..).unwrap_or_default().to_vec()
}

impl Symbol {
    /// Interns `s` (alias for the free function [`intern`]).
    pub fn new(s: &str) -> Self {
        intern(s)
    }

    /// The string this symbol stands for.
    pub fn as_str(self) -> &'static str {
        resolve(self)
    }

    /// The raw interner index (stable for the process lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t: usize| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| (i, t, intern(&format!("concurrent-{}", (i + t) % 50))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for entries in handles.into_iter().map(|h| h.join().unwrap()) {
            for (i, t, s) in entries {
                assert_eq!(s.as_str(), format!("concurrent-{}", (i + t) % 50));
            }
        }
    }

    #[test]
    fn display_matches_source() {
        let s = intern("hello world");
        assert_eq!(format!("{s}"), "hello world");
        assert!(format!("{s:?}").contains("hello world"));
    }
}
