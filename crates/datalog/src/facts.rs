//! [`Facts`]: the ground facts of a source unit as flat rows of
//! [`Word`]s, the form the engine stores them in.
//!
//! The parser encodes a ground fact straight from its argument buffer
//! into the group of its predicate and arity, so no [`Atom`] is built
//! per fact, and a relation is later loaded from one group's rows in one
//! pass, knowing its row count up front. Groups keep the order in which
//! they first appear, rows the source order within their group.

use crate::atom::{Atom, Pred};
use crate::term::Term;
use crate::word::Word;
use std::collections::BTreeMap;

/// The facts of one predicate at one arity: flat rows, in source order,
/// duplicates included.
#[derive(Clone, Debug, PartialEq)]
pub struct FactGroup {
    pred: Pred,
    arity: usize,
    /// Row count (kept apart from `words.len()` for arity 0).
    rows: usize,
    words: Vec<Word>,
}

impl FactGroup {
    /// The predicate.
    pub fn pred(&self) -> Pred {
        self.pred
    }

    /// Words per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows as parsed, duplicates included.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the group holds no row (never, once pushed to).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows in source order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Word]> + '_ {
        (0..self.rows).map(move |r| &self.words[r * self.arity..(r + 1) * self.arity])
    }

    /// Row `row` decoded into an atom.
    fn atom(&self, row: &[Word]) -> Atom {
        Atom::new(
            self.pred,
            row.iter().map(|w| Term::Const(w.value())).collect(),
        )
    }
}

/// Ground facts as flat word rows, grouped by `(pred, arity)`: groups in
/// order of first appearance, rows in source order within a group.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    groups: Vec<FactGroup>,
    /// Each group's position in `groups`.
    index: BTreeMap<(Pred, usize), usize>,
}

impl Facts {
    /// No facts.
    pub fn new() -> Facts {
        Facts::default()
    }

    /// Rows as parsed, duplicates included.
    pub fn len(&self) -> usize {
        self.groups.iter().map(FactGroup::len).sum()
    }

    /// True if there is no fact.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Appends the fact `pred(row…)` to its group. Facts come in runs of
    /// one predicate, so the last group is tried before the index.
    pub fn push(&mut self, pred: Pred, row: &[Word]) {
        let arity = row.len();
        let g = match self.groups.last() {
            Some(g) if g.pred == pred && g.arity == arity => self.groups.len() - 1,
            _ => *self.index.entry((pred, arity)).or_insert_with(|| {
                self.groups.push(FactGroup {
                    pred,
                    arity,
                    rows: 0,
                    words: Vec::new(),
                });
                self.groups.len() - 1
            }),
        };
        let g = &mut self.groups[g];
        g.words.extend_from_slice(row);
        g.rows += 1;
    }

    /// The groups, in order of first appearance.
    pub fn groups(&self) -> &[FactGroup] {
        &self.groups
    }

    /// Every row with its predicate, group by group.
    pub fn iter(&self) -> impl Iterator<Item = (Pred, &[Word])> + '_ {
        (self.groups.iter()).flat_map(|g| g.rows().map(move |row| (g.pred, row)))
    }

    /// Every row decoded into an atom, group by group.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        (self.groups.iter()).flat_map(|g| g.rows().map(move |row| g.atom(row)))
    }

    /// The first row of the first group, in group order, that `keep`
    /// rejects, decoded: with groups in order of first appearance, the
    /// first such fact in source order.
    pub fn first_rejected(&self, mut keep: impl FnMut(Pred, usize) -> bool) -> Option<Atom> {
        let g = self.groups.iter().find(|g| !keep(g.pred, g.arity))?;
        g.rows().next().map(|row| g.atom(row))
    }
}

impl FromIterator<Atom> for Facts {
    /// # Panics
    /// Panics if an atom is not ground.
    fn from_iter<I: IntoIterator<Item = Atom>>(atoms: I) -> Facts {
        let mut facts = Facts::new();
        let mut row = Vec::new();
        for a in atoms {
            row.clear();
            row.extend((a.args.iter()).map(|t| Word::new(t.as_const().expect("a fact is ground"))));
            facts.push(a.pred, &row);
        }
        facts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    #[test]
    fn groups_keep_first_appearance_and_rows_keep_source_order() {
        let unit = parse_unit("e(1, 2). w(1). e(2, 3). e(9). w(1). e(1, 2).").unwrap();
        let f = &unit.facts;
        assert_eq!(f.len(), 6);
        let groups: Vec<(&str, usize, usize)> = (f.groups().iter())
            .map(|g| (g.pred().name(), g.arity(), g.len()))
            .collect();
        assert_eq!(groups, [("e", 2, 3), ("w", 1, 2), ("e", 1, 1)]);
        let text: Vec<String> = f.atoms().map(|a| a.to_string()).collect();
        assert_eq!(
            text,
            ["e(1, 2)", "e(2, 3)", "e(1, 2)", "w(1)", "w(1)", "e(9)"]
        );
        assert_eq!(f.iter().count(), 6);
        // Collecting the decoded atoms rebuilds the same value.
        assert_eq!(f.atoms().collect::<Facts>(), *f);
    }

    #[test]
    fn values_of_every_kind_round_trip() {
        let src = r#"p(-7, "a b", x, 9223372036854775807)."#;
        let unit = parse_unit(src).unwrap();
        let atom = unit.facts.atoms().next().unwrap();
        assert_eq!(
            format!("{atom}."),
            r#"p(-7, "a b", x, 9223372036854775807)."#
        );
    }

    #[test]
    fn nullary_rows_are_counted() {
        let f: Facts = [Atom::new("z", vec![]), Atom::new("z", vec![])]
            .into_iter()
            .collect();
        assert_eq!((f.len(), f.groups()[0].rows().len()), (2, 2));
        assert!(!f.is_empty() && Facts::new().is_empty());
    }
}
