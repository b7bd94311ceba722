//! [`Word`]: the 8-byte form in which the engine stores a [`Value`].
//!
//! A `Value` is a 16-byte enum — 8 bytes of payload, 8 of tag and
//! padding. Every value a relation row, a derived row or a dictionary key
//! holds is a `Word` instead, and this module is the only place that
//! reads a word's bits. The encoding is injective and canonical, so word
//! equality is value equality and a row hashes one machine word per
//! value:
//!
//! * an integer in `[-2^62, 2^62)` is stored inline, offset by `2^62`,
//!   so inline integers fill `[0, 2^63)` in value order;
//! * a string constant is the top bit over its [`Symbol`] id;
//! * an integer outside the inline range is the top two bits over its id
//!   in an append-only interner, the symbol table's own type, so the
//!   whole `i64` range round-trips.
//!
//! `Ord` on words is `Value`'s order (integers before strings); two
//! inline integers compare as words, anything else compares decoded.

use crate::symbol::{Interner, Symbol};
use crate::term::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

/// Set on every word that is not an inline integer.
const OUT_OF_LINE: u64 = 1 << 63;
/// Set, under [`OUT_OF_LINE`], on an integer's word; clear on a string's.
const BIG_INT: u64 = 1 << 62;
/// The inline integers; `i` is stored as `i - INLINE.start`.
const INLINE: std::ops::Range<i64> = -(1 << 62)..1 << 62;

/// One stored value: see the module docs for the encoding.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word(u64);

/// The integers outside the inline range, by id.
fn big_ints() -> &'static Interner<i64> {
    static BIG_INTS: OnceLock<Interner<i64>> = OnceLock::new();
    BIG_INTS.get_or_init(Interner::new)
}

impl Word {
    /// The word of `v`.
    pub fn new(v: Value) -> Word {
        match v {
            Value::Int(i) if INLINE.contains(&i) => Word((i - INLINE.start) as u64),
            Value::Int(i) => Word(OUT_OF_LINE | BIG_INT | u64::from(big_ints().intern(&i, |&i| i))),
            Value::Str(s) => Word(OUT_OF_LINE | u64::from(s.id())),
        }
    }

    /// The word of integer `i`.
    pub fn int(i: i64) -> Word {
        Word::new(Value::Int(i))
    }

    /// The value this word stores.
    #[inline]
    pub fn value(self) -> Value {
        if self.0 < OUT_OF_LINE {
            Value::Int(self.0 as i64 + INLINE.start)
        } else if self.0 & BIG_INT == 0 {
            Value::Str(Symbol::from_id(self.0 as u32))
        } else {
            Value::Int(big_ints().get(self.0 as u32))
        }
    }
}

/// The words of a tuple of values.
pub fn encode(values: &[Value]) -> Vec<Word> {
    values.iter().map(|&v| Word::new(v)).collect()
}

/// The values of a row of words.
pub fn decode(words: &[Word]) -> Vec<Value> {
    words.iter().map(|w| w.value()).collect()
}

impl PartialOrd for Word {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Word {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if (self.0 | other.0) < OUT_OF_LINE {
            self.0.cmp(&other.0)
        } else {
            self.value().cmp(&other.value())
        }
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.value(), f)
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values on both sides of every boundary of the encoding, plus
    /// strings.
    fn samples() -> Vec<Value> {
        let (lo, hi) = (INLINE.start, INLINE.end - 1);
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            lo - 2,
            lo - 1,
            lo,
            lo + 1,
            -1,
            0,
            1,
            hi - 1,
            hi,
            hi + 1,
            hi + 2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let strs = [
            "",
            "a",
            "b",
            "ab",
            "Hello world",
            "q\"\\\n",
            "0",
            "9223372036854775807",
        ];
        ints.into_iter()
            .map(Value::Int)
            .chain(strs.into_iter().map(Value::str))
            .collect()
    }

    #[test]
    fn a_word_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Word>(), 8);
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn every_value_round_trips() {
        for v in samples() {
            assert_eq!(Word::new(v).value(), v, "{v:?}");
            assert_eq!(Word::new(v), Word::new(v), "canonical: {v:?}");
        }
        let vals = samples();
        assert_eq!(decode(&encode(&vals)), vals);
    }

    #[test]
    fn word_equality_is_value_equality_and_word_order_is_value_order() {
        for a in samples() {
            for b in samples() {
                let (wa, wb) = (Word::new(a), Word::new(b));
                assert_eq!(wa == wb, a == b, "{a:?} vs {b:?}");
                assert_eq!(wa.cmp(&wb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn only_the_inline_range_stays_inline() {
        let inline = |i: i64| Word::int(i).0 < OUT_OF_LINE;
        assert!(inline(INLINE.start) && inline(INLINE.end - 1) && inline(0));
        assert!(!inline(INLINE.start - 1) && !inline(INLINE.end));
        assert!(!inline(i64::MIN) && !inline(i64::MAX));
        assert!(Word::new(Value::str("x")).0 >= OUT_OF_LINE);
        // A string and an out-of-line integer never share a word, even
        // when their interner ids coincide.
        assert_ne!(Word::new(Value::str("a")), Word::int(i64::MAX));
    }

    #[test]
    fn words_display_as_their_values() {
        for v in samples() {
            assert_eq!(Word::new(v).to_string(), v.to_string());
            assert_eq!(format!("{:?}", Word::new(v)), format!("{v:?}"));
        }
    }
}
