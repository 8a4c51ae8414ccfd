//! Vocabulary management: element symbols `Σ`, attribute names `A`, and the
//! infinite data domain `D`.
//!
//! The paper (Section 2.1) fixes a finite alphabet `Σ`, a finite attribute
//! set `A`, and an infinite recursively-enumerable domain
//! `D = {a₁, a₂, …}`. We intern all three so that everything downstream
//! (trees, logic formulas, automata, Turing machines) manipulates dense
//! `Copy` identifiers and only consults the [`Vocab`] to render
//! human-readable output.
//!
//! `D` carries *equality only*: no order over `D` is ever exposed to
//! automata or formulas. The `Ord` implementation on [`Value`] exists solely
//! so that relations can be stored as sorted tuple sets; it reflects
//! interning order, not any domain semantics.

use std::collections::HashMap;
use std::fmt;

/// An interned element symbol `σ ∈ Σ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u16);

/// An interned attribute name `a ∈ A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

/// An interned data value `d ∈ D ∪ {⊥}`.
///
/// [`Value::BOT`] is the distinguished non-domain value `⊥` carried by every
/// attribute of a delimiter node (Section 3: "every attribute of a delimiter
/// contains ⊥ where ⊥ ∉ D").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u32);

impl Value {
    /// The non-domain value `⊥`.
    pub const BOT: Value = Value(0);

    /// Whether this value is the delimiter filler `⊥` (i.e. not in `D`).
    #[inline]
    pub fn is_bot(self) -> bool {
        self == Value::BOT
    }
}

/// The concrete payload backing an interned [`Value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueRepr {
    /// The delimiter filler `⊥ ∉ D`.
    Bot,
    /// A string-shaped data value.
    Str(String),
    /// An integer-shaped data value. The paper assumes for convenience that
    /// `D` contains all natural numbers (Section 4); we admit all of `i64`.
    Int(i64),
}

impl fmt::Display for ValueRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRepr::Bot => write!(f, "⊥"),
            ValueRepr::Str(s) => write!(f, "{s}"),
            ValueRepr::Int(i) => write!(f, "{i}"),
        }
    }
}

/// Integers in `0..SMALL_INTS` are interned through a direct-indexed table
/// instead of a hashed map. The bound is fixed: at 4 bytes an entry the
/// table holds at most 256 KiB.
const SMALL_INTS: usize = 1 << 16;

/// Shared vocabulary: the interners for `Σ`, `A`, and `D`.
///
/// A `Vocab` defines a *universe*: two trees (or a tree and a formula, or a
/// tree and an automaton) can only be used together when their identifiers
/// were issued by the same `Vocab`.
///
/// Data values are interned by kind. An integer in `0..2^16` indexes a
/// table of ids, so its lookup cannot collide; the table holds 256, 4 096
/// or 2^16 entries, the fewest that cover the largest such integer so far,
/// and an entry of 0 (`⊥`'s id, never an integer's) means "not yet
/// interned". Other integers and all strings go through maps with the
/// default, collision-resistant hasher; strings are looked up by `&str`,
/// so a hit allocates nothing.
#[derive(Clone)]
pub struct Vocab {
    syms: Vec<String>,
    sym_ids: HashMap<String, SymId>,
    attrs: Vec<String>,
    attr_ids: HashMap<String, AttrId>,
    values: Vec<ValueRepr>,
    small_int_ids: Vec<u32>,
    int_ids: HashMap<i64, Value>,
    str_ids: HashMap<Box<str>, Value>,
}

impl fmt::Debug for Vocab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The id maps and the table are derived from these three lists.
        f.debug_struct("Vocab")
            .field("syms", &self.syms)
            .field("attrs", &self.attrs)
            .field("values", &self.values)
            .finish_non_exhaustive()
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

impl Vocab {
    /// Create an empty vocabulary. `⊥` is pre-interned as [`Value::BOT`].
    pub fn new() -> Self {
        Vocab {
            syms: Vec::new(),
            sym_ids: HashMap::new(),
            attrs: Vec::new(),
            attr_ids: HashMap::new(),
            values: vec![ValueRepr::Bot],
            small_int_ids: Vec::new(),
            int_ids: HashMap::new(),
            str_ids: HashMap::new(),
        }
    }

    /// Intern an element symbol, returning its id.
    pub fn sym(&mut self, name: &str) -> SymId {
        if let Some(&id) = self.sym_ids.get(name) {
            return id;
        }
        let id = SymId(u16::try_from(self.syms.len()).expect("too many symbols"));
        self.syms.push(name.to_owned());
        self.sym_ids.insert(name.to_owned(), id);
        id
    }

    /// Look up a symbol without interning.
    pub fn sym_opt(&self, name: &str) -> Option<SymId> {
        self.sym_ids.get(name).copied()
    }

    /// The name of an interned symbol.
    pub fn sym_name(&self, id: SymId) -> &str {
        &self.syms[id.0 as usize]
    }

    /// Number of interned element symbols.
    pub fn sym_count(&self) -> usize {
        self.syms.len()
    }

    /// Iterate over all interned symbols.
    pub fn syms(&self) -> impl Iterator<Item = SymId> + '_ {
        (0..self.syms.len()).map(|i| SymId(i as u16))
    }

    /// Intern an attribute name, returning its id.
    pub fn attr(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_ids.get(name) {
            return id;
        }
        let id = AttrId(u16::try_from(self.attrs.len()).expect("too many attributes"));
        self.attrs.push(name.to_owned());
        self.attr_ids.insert(name.to_owned(), id);
        id
    }

    /// Look up an attribute without interning.
    pub fn attr_opt(&self, name: &str) -> Option<AttrId> {
        self.attr_ids.get(name).copied()
    }

    /// The name of an interned attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.0 as usize]
    }

    /// Number of interned attribute names.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Iterate over all interned attributes.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len()).map(|i| AttrId(i as u16))
    }

    /// Append `repr` to the values and return its new id.
    fn push_value(&mut self, repr: ValueRepr) -> Value {
        let id = Value(u32::try_from(self.values.len()).expect("too many values"));
        self.values.push(repr);
        id
    }

    /// Intern a string-shaped data value.
    pub fn val_str(&mut self, s: &str) -> Value {
        if let Some(&id) = self.str_ids.get(s) {
            return id;
        }
        let id = self.push_value(ValueRepr::Str(s.to_owned()));
        self.str_ids.insert(s.into(), id);
        id
    }

    /// Intern an integer-shaped data value.
    #[inline]
    pub fn val_int(&mut self, i: i64) -> Value {
        // A small integer interned before: one table load.
        match small_int(i).and_then(|k| self.small_int_ids.get(k)) {
            Some(&id) if id != 0 => Value(id),
            _ => self.val_int_new(i),
        }
    }

    /// [`Vocab::val_int`] for an integer outside the table or not yet in it.
    fn val_int_new(&mut self, i: i64) -> Value {
        if let Some(k) = small_int(i) {
            if k >= self.small_int_ids.len() {
                // Sixteenfold steps, so a vocabulary of few small integers
                // pays for a small table and at most three are allocated.
                let mut len = self.small_int_ids.len().max(1 << 8);
                while len <= k {
                    len <<= 4;
                }
                let mut table = vec![0; len];
                table[..self.small_int_ids.len()].copy_from_slice(&self.small_int_ids);
                self.small_int_ids = table;
            }
            if self.small_int_ids[k] != 0 {
                return Value(self.small_int_ids[k]);
            }
            let id = self.push_value(ValueRepr::Int(i));
            self.small_int_ids[k] = id.0;
            return id;
        }
        if let Some(&id) = self.int_ids.get(&i) {
            return id;
        }
        let id = self.push_value(ValueRepr::Int(i));
        self.int_ids.insert(i, id);
        id
    }

    /// Intern the value a text spells: an integer when `str::parse::<i64>`
    /// accepts the text, otherwise the text as a string. Every reader
    /// interns literals and attribute values through this rule, so a query
    /// constant is the same value as the document text that spells it.
    pub fn val_text(&mut self, text: &str) -> Value {
        match int_text(text) {
            Some(i) => self.val_int(i),
            None => self.val_str(text),
        }
    }

    /// Look up a string-shaped value without interning.
    pub fn val_str_opt(&self, s: &str) -> Option<Value> {
        self.str_ids.get(s).copied()
    }

    /// Look up an integer-shaped value without interning.
    pub fn val_int_opt(&self, i: i64) -> Option<Value> {
        match small_int(i) {
            Some(k) => self
                .small_int_ids
                .get(k)
                .filter(|&&id| id != 0)
                .map(|&id| Value(id)),
            None => self.int_ids.get(&i).copied(),
        }
    }

    /// The payload of an interned value.
    pub fn value_repr(&self, v: Value) -> &ValueRepr {
        &self.values[v.0 as usize]
    }

    /// Render a value for display.
    pub fn value_display(&self, v: Value) -> String {
        self.value_repr(v).to_string()
    }

    /// Number of interned values (including `⊥`).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// A fresh value guaranteed distinct from all previously interned values.
    ///
    /// Used for example by [`crate::Tree::assign_unique_ids`]; `D` is
    /// infinite, so fresh values always exist.
    pub fn fresh_value(&mut self) -> Value {
        let mut n = self.values.len();
        loop {
            let name = format!("#fresh{n}");
            if !self.str_ids.contains_key(name.as_str()) {
                return self.val_str(&name);
            }
            n += 1;
        }
    }
}

/// The integer `text` spells under [`Vocab::val_text`]'s rule, if any.
pub(crate) fn int_text(text: &str) -> Option<i64> {
    text.parse().ok()
}

/// `i`'s index in the small-integer table, if it has one.
#[inline]
fn small_int(i: i64) -> Option<usize> {
    usize::try_from(i).ok().filter(|&k| k < SMALL_INTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bot_is_preinterned() {
        let v = Vocab::new();
        assert_eq!(v.value_repr(Value::BOT), &ValueRepr::Bot);
        assert!(Value::BOT.is_bot());
        assert_eq!(v.value_count(), 1);
    }

    #[test]
    fn default_preinterns_bot() {
        let mut v = Vocab::default();
        let five = v.val_int(5);
        assert!(!five.is_bot());
        assert_eq!(v.value_display(five), "5");
        assert_eq!(v.value_display(Value::BOT), "⊥");
        assert_eq!(v.value_count(), 2);
    }

    #[test]
    fn integers_intern_in_first_occurrence_order_in_and_out_of_the_table() {
        let mut v = Vocab::new();
        assert_eq!(v.val_int_opt(0), None);
        // The table grows at 256 and at 4 096, keeping what it held.
        let ints = [
            0,
            255,
            256,
            4_095,
            4_096,
            65_535,
            65_536,
            -1,
            i64::MIN,
            i64::MAX,
            7,
            0,
            256,
            65_536,
            -1,
        ];
        let ids: Vec<Value> = ints.iter().map(|&i| v.val_int(i)).collect();
        assert_eq!(
            ids,
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 3, 7, 8].map(Value)
        );
        for (&i, &id) in ints.iter().zip(&ids) {
            assert_eq!(v.val_int_opt(i), Some(id));
            assert_eq!(v.value_repr(id), &ValueRepr::Int(i));
        }
        assert_eq!(v.val_int_opt(8), None);
        assert_eq!(v.val_int_opt(1 << 20), None);
        assert_eq!(v.val_str_opt("0"), None);
        assert_eq!(v.value_count(), 12);
    }

    #[test]
    fn sym_interning_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        assert_ne!(a, b);
        assert_eq!(v.sym("a"), a);
        assert_eq!(v.sym_name(a), "a");
        assert_eq!(v.sym_opt("b"), Some(b));
        assert_eq!(v.sym_opt("zzz"), None);
        assert_eq!(v.sym_count(), 2);
    }

    #[test]
    fn attr_interning_is_idempotent() {
        let mut v = Vocab::new();
        let id = v.attr("id");
        assert_eq!(v.attr("id"), id);
        assert_eq!(v.attr_name(id), "id");
        assert_eq!(v.attr_count(), 1);
    }

    #[test]
    fn value_interning_distinguishes_kinds() {
        let mut v = Vocab::new();
        let s = v.val_str("7");
        let i = v.val_int(7);
        assert_ne!(s, i);
        assert_eq!(v.val_str("7"), s);
        assert_eq!(v.val_int(7), i);
        assert!(!s.is_bot());
        assert_eq!(v.value_display(i), "7");
        assert_eq!(v.value_display(Value::BOT), "⊥");
    }

    #[test]
    fn fresh_values_are_distinct() {
        let mut v = Vocab::new();
        let a = v.fresh_value();
        let b = v.fresh_value();
        assert_ne!(a, b);
        // A fresh value never collides with an already interned one, even if
        // a user interned the same spelling first.
        let spoiler = v.val_str("#fresh3");
        let c = v.fresh_value();
        assert_ne!(c, spoiler);
    }

    #[test]
    fn syms_iterator_covers_all() {
        let mut v = Vocab::new();
        v.sym("x");
        v.sym("y");
        let all: Vec<_> = v.syms().collect();
        assert_eq!(all.len(), 2);
        v.attr("p");
        v.attr("q");
        assert_eq!(v.attrs().count(), 2);
    }
}
