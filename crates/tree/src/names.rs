//! Node-name interning for the netlist front end.
//!
//! Names come from decks, i.e. from outside the program (`rlc-serve`
//! parses decks received over TCP), so the builder's lookup table keeps
//! the standard library's randomly keyed hasher: nobody can craft names
//! that all collide. Ids are dense and handed out in first-seen order,
//! and all iteration goes through them, never through the table.

// audit:allow(A101, reason="interning table only: ids are dense in first-seen order, the map is never iterated, and its randomly keyed hasher keeps deck-supplied names from being crafted to collide")
use std::collections::HashMap;
use std::sync::OnceLock;

/// Interns names borrowed from a deck: the same text always maps to the
/// same id, and ids are dense in first-seen order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
}

impl<'a> Interner<'a> {
    /// An interner with room for `names` names before it grows.
    pub(crate) fn with_capacity(names: usize) -> Self {
        Self {
            ids: HashMap::with_capacity(names),
            names: Vec::with_capacity(names),
        }
    }

    /// The id of `name`, interning it on first sight. The flag is `true`
    /// when the name is new.
    pub(crate) fn intern(&mut self, name: &'a str) -> (u32, bool) {
        let next = self.names.len() as u32;
        let id = *self.ids.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
        }
        (id, id == next)
    }

    /// The id of `name`, if it was interned.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The text of `id`.
    pub(crate) fn name(&self, id: u32) -> &'a str {
        self.names[id as usize]
    }

    /// Number of distinct names.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// Owned node names of a parsed netlist, indexed by tree node, with
/// name → node lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeNames {
    /// Every name, concatenated in node order.
    text: String,
    /// `ends[i]` is the end of node `i`'s name in `text`.
    ends: Vec<usize>,
    /// Node indices sorted by name, built on the first lookup or listing:
    /// most parsed netlists are never searched by name (serve's analyze
    /// path never is), and sorting costs about a quarter of a parse.
    by_name: OnceLock<Vec<u32>>,
}

impl NodeNames {
    /// Collects `names` (distinct, in node order).
    pub(crate) fn new<'s>(names: impl ExactSizeIterator<Item = &'s str>) -> Self {
        let mut ends = Vec::with_capacity(names.len());
        let mut text = String::with_capacity(names.len() * 4);
        for name in names {
            text.push_str(name);
            ends.push(text.len());
        }
        Self {
            text,
            ends,
            by_name: OnceLock::new(),
        }
    }

    /// The name of node `index`.
    pub(crate) fn name(&self, index: u32) -> &str {
        let i = index as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Node indices sorted by name.
    pub(crate) fn by_name(&self) -> &[u32] {
        self.by_name.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| self.name(a).cmp(self.name(b)));
            order
        })
    }

    /// The node named `name`.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        let by_name = self.by_name();
        let at = by_name
            .binary_search_by(|&id| self.name(id).cmp(name))
            .ok()?;
        Some(by_name[at])
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let words: Vec<String> = (0..500).map(|i| format!("n{i}")).collect();
        let mut interner = Interner::default();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(interner.intern(w), (i as u32, true));
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(interner.intern(w), (i as u32, false));
            assert_eq!(interner.get(w), Some(i as u32));
            assert_eq!(interner.name(i as u32), w);
        }
        assert_eq!(interner.get("nope"), None);
        assert_eq!(interner.len(), 500);
    }

    #[test]
    fn node_names_round_trip() {
        let names = NodeNames::new(["n10", "bb", "a", "n1"].into_iter());
        assert_eq!(names.len(), 4);
        for (i, n) in ["n10", "bb", "a", "n1"].iter().enumerate() {
            assert_eq!(names.name(i as u32), *n);
            assert_eq!(names.get(n), Some(i as u32));
        }
        assert_eq!(names.by_name(), [2, 1, 3, 0]);
        assert_eq!(names.get("n2"), None);
        assert_eq!(NodeNames::default().get("a"), None);
    }
}
