//! Attribute values, join keys, and the text symbol table.
//!
//! Join keys are `Copy`: text values are interned into a `u32` symbol table
//! ([`Interner`]) when a database is built, so the hash-join probe path
//! never allocates — see `join::value_join`.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// An atomic attribute value. Dates are stored as ISO-8601 text (their
/// lexicographic order is chronological).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (keys, counts, idrefs).
    Int(i64),
    /// Floating point (prices, rates).
    Float(f64),
    /// Text (names, dates, enumerations).
    Text(String),
}

impl Value {
    /// Total order across values: by variant first (Int < Float < Text),
    /// then within the variant; NaN sorts last among floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(_) | Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// Equality used by joins and predicates (numeric cross-variant
    /// comparison allowed, like XPath general comparison).
    pub fn matches(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text value, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (for the Table 1 storage model).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => s.len(),
        }
    }
}

/// Hashable, `Copy` join key for [`Value`], produced by [`Interner::key`].
///
/// Keys agree with [`Value::matches`]: integral floats unify with ints, and
/// equal strings map to the same symbol. Because text is represented by its
/// symbol, producing a key never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKey {
    /// Integer or integral float.
    Num(i64),
    /// Non-integral float bits.
    Bits(u64),
    /// Interned text symbol.
    Sym(u32),
}

/// Text symbol table. Every text attribute value stored in a database is
/// interned here (at build time and on every write), so join keys for text
/// are plain `u32` symbols — and the element store's text cells are those
/// symbols, so the table holds each stored string once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interner {
    map: HashMap<String, u32>,
    /// `Value::Text` per symbol: a text cell reads as a `&Value` from here.
    values: Vec<Value>,
}

/// Every value the table holds is text, whose equality is total.
impl Eq for Interner {}

impl Interner {
    /// Rebuild a table from its symbol-ordered string list, as the paged
    /// storage loader decodes it. Symbols keep their stored values.
    pub(crate) fn from_strings(strings: Vec<String>) -> Interner {
        let map = strings.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();
        Interner { map, values: strings.into_iter().map(Value::Text).collect() }
    }

    /// Intern `s`, returning its symbol (stable for the table's lifetime).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = self.values.len() as u32;
        self.map.insert(s.to_owned(), sym);
        self.values.push(Value::Text(s.to_owned()));
        sym
    }

    /// Symbol of an already-interned string.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: u32) -> &str {
        match self.value(sym) {
            Value::Text(s) => s,
            _ => unreachable!("the table holds text values only"),
        }
    }

    /// The text value behind a symbol.
    #[inline]
    pub(crate) fn value(&self, sym: u32) -> &Value {
        &self.values[sym as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `Copy` join key of a value (distinguishes variants except for
    /// integral floats, which compare equal to ints, mirroring
    /// [`Value::matches`]).
    ///
    /// # Panics
    /// If `v` is a text value that was never interned — stored values are
    /// always interned by the database build/write paths.
    pub fn key(&self, v: &Value) -> ValueKey {
        self.try_key(v).expect("text value interned at database build/write time")
    }

    /// Non-panicking [`Interner::key`]: `None` for a text value that was
    /// never interned (a value that cannot be stored in the database, so
    /// it can match nothing).
    pub fn try_key(&self, v: &Value) -> Option<ValueKey> {
        match v {
            Value::Int(i) => Some(ValueKey::Num(*i)),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(ValueKey::Num(*f as i64)),
            Value::Float(f) => Some(ValueKey::Bits(f.to_bits())),
            Value::Text(s) => self.get(s).map(ValueKey::Sym),
        }
    }

    /// Order a stored join key against a comparison constant, agreeing with
    /// `stored.total_cmp(constant)` on every value the key path can store:
    /// numeric variants promote to `f64` against floats, text resolves
    /// through the symbol table, and text sorts greatest (the
    /// [`Value::total_cmp`] variant order). This is what lets the sorted
    /// value index answer `<`/`>` predicates per distinct-key group without
    /// materializing the stored [`Value`]s.
    ///
    /// The one divergence from `total_cmp` is inherited from [`ValueKey`]
    /// itself: a stored `-0.0` keys as `Num(0)` and therefore compares
    /// *equal* to integer zero here, where `f64::total_cmp` would order it
    /// below `+0.0` (join keys already unify the two, so the index stays
    /// consistent with the hash-join path).
    // always inlined into the index's range walk, whose constant `v` is
    // loop-invariant: the match on its variant hoists out of the loop
    #[inline(always)]
    pub fn key_value_cmp(&self, k: ValueKey, v: &Value) -> Ordering {
        match (k, v) {
            (ValueKey::Num(a), Value::Int(b)) => a.cmp(b),
            (ValueKey::Num(a), Value::Float(b)) => (a as f64).total_cmp(b),
            (ValueKey::Bits(a), Value::Int(b)) => f64::from_bits(a).total_cmp(&(*b as f64)),
            (ValueKey::Bits(a), Value::Float(b)) => f64::from_bits(a).total_cmp(b),
            (ValueKey::Num(_) | ValueKey::Bits(_), Value::Text(_)) => Ordering::Less,
            (ValueKey::Sym(s), Value::Text(t)) => self.resolve(s).cmp(t.as_str()),
            (ValueKey::Sym(_), Value::Int(_) | Value::Float(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_matching() {
        assert!(Value::Int(1).matches(&Value::Int(1)));
        assert!(Value::Int(1).matches(&Value::Float(1.0)));
        assert!(!Value::Int(1).matches(&Value::Text("1".into())));
        assert_eq!(Value::Int(2).total_cmp(&Value::Int(10)), Ordering::Less);
        assert_eq!(
            Value::Text("2020-01-02".into()).total_cmp(&Value::Text("2020-01-10".into())),
            Ordering::Less
        );
    }

    #[test]
    fn join_keys_unify_int_and_integral_float() {
        let mut it = Interner::default();
        it.intern("7");
        assert_eq!(it.key(&Value::Int(7)), it.key(&Value::Float(7.0)));
        assert_ne!(it.key(&Value::Int(7)), it.key(&Value::Float(7.5)));
        assert_ne!(it.key(&Value::Int(7)), it.key(&Value::Text("7".into())));
    }

    #[test]
    fn interner_is_stable_and_deduplicating() {
        let mut it = Interner::default();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_ne!(a, b);
        assert_eq!(it.intern("alpha"), a, "re-interning returns the same symbol");
        assert_eq!(it.resolve(b), "beta");
        assert_eq!(it.len(), 2);
        assert_eq!(
            it.key(&Value::Text("alpha".into())),
            it.key(&Value::Text("alpha".into())),
            "equal strings share a key"
        );
        assert_ne!(it.key(&Value::Text("alpha".into())), it.key(&Value::Text("beta".into())));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(1).byte_size(), 8);
        assert_eq!(Value::Text("abcd".into()).byte_size(), 4);
    }

    /// `key_value_cmp(key(stored), constant)` must reproduce
    /// `stored.total_cmp(constant)` — the contract the index range path
    /// relies on — across every variant pairing.
    #[test]
    fn key_value_cmp_agrees_with_total_cmp() {
        let mut it = Interner::default();
        for s in ["alpha", "beta", "2020-01-05"] {
            it.intern(s);
        }
        let stored = [
            Value::Int(-3),
            Value::Int(0),
            Value::Int(7),
            Value::Float(2.5),
            Value::Float(7.0),
            Value::Float(-1.25),
            Value::Text("alpha".into()),
            Value::Text("beta".into()),
            Value::Text("2020-01-05".into()),
        ];
        let constants = [
            Value::Int(-3),
            Value::Int(2),
            Value::Int(7),
            Value::Float(2.5),
            Value::Float(6.9),
            Value::Text("alpha".into()),
            Value::Text("aztec".into()),
            Value::Text("2020-01-09".into()),
        ];
        for s in &stored {
            let k = it.key(s);
            for c in &constants {
                assert_eq!(it.key_value_cmp(k, c), s.total_cmp(c), "{s} vs {c}");
            }
        }
    }
}
