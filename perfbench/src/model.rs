//! The shadow model: what every name and search must return, computed
//! from the generated items alone.
//!
//! Nothing here calls into the system under test. Terms come from this
//! module's own tokeniser, which implements the documented full-text rule
//! (lower-cased alphanumeric runs of at least two characters) rather than
//! calling `hfad_index::tokenize`, so a tokeniser regression in the
//! program shows up as a mismatch instead of agreeing with itself.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hfad_core::{ObjectId, Tag, TagValue};
use hfad_workload::Item;
use rand::Rng;

/// One name of an item: `(tag name, value)`, e.g. `("USER", "margo")`.
pub type Name = (String, String);

/// Splits `text` into lower-cased alphanumeric runs of two or more
/// characters.
pub fn terms(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|run| run.chars().count() >= 2)
        .map(str::to_lowercase)
        .collect()
}

/// Every name an item is saved under: its POSIX path plus its tags.
pub fn names(item: &Item) -> Vec<Name> {
    let mut names = vec![("POSIX".to_string(), item.path.clone())];
    names.extend(item.tags.iter().cloned());
    names
}

/// The hFAD tag values for `names`.
pub fn tag_values(names: &[Name]) -> Vec<TagValue> {
    names
        .iter()
        .map(|(tag, value)| TagValue::new(Tag::parse(tag), value.clone()))
        .collect()
}

/// Items with their names, terms, content and tag values prepared once,
/// outside every timed window, plus the inverted maps a correct store
/// must reproduce.
pub struct Corpus {
    names: Vec<Vec<Name>>,
    pub tags: Vec<Vec<TagValue>>,
    pub contents: Vec<Vec<u8>>,
    terms: Vec<Vec<String>>,
    by_name: HashMap<Name, Vec<usize>>,
    by_term: BTreeMap<String, Vec<usize>>,
    pub content_bytes: u64,
}

impl Corpus {
    pub fn new(items: Vec<Item>) -> Self {
        let names: Vec<Vec<Name>> = items.iter().map(names).collect();
        let tags = names.iter().map(|n| tag_values(n)).collect();
        let contents: Vec<Vec<u8>> = items.iter().map(Item::content).collect();
        let terms: Vec<Vec<String>> = items
            .iter()
            .map(|item| terms(&item.text).into_iter().collect())
            .collect();
        let mut by_name: HashMap<Name, Vec<usize>> = HashMap::new();
        let mut by_term: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, (item_names, item_terms)) in names.iter().zip(&terms).enumerate() {
            for name in item_names {
                by_name.entry(name.clone()).or_default().push(i);
            }
            for term in item_terms {
                by_term.entry(term.clone()).or_default().push(i);
            }
        }
        let content_bytes = contents.iter().map(|c| c.len() as u64).sum();
        Corpus {
            names,
            tags,
            contents,
            terms,
            by_name,
            by_term,
            content_bytes,
        }
    }

    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// Two distinct names of item `i`, drawn with `rng`.
    pub fn name_pair<R: Rng>(&self, i: usize, rng: &mut R) -> Vec<Name> {
        pick_two(&self.names[i], rng)
    }

    /// Two distinct terms of item `i`, drawn with `rng`.
    pub fn term_pair<R: Rng>(&self, i: usize, rng: &mut R) -> Vec<String> {
        pick_two(&self.terms[i], rng)
    }

    /// Items carrying every name in `names`, in ascending order.
    pub fn expect_names(&self, names: &[Name]) -> Vec<usize> {
        intersect(names.iter().map(|n| self.by_name.get(n)))
    }

    /// Items containing every term in `terms`, in ascending order.
    pub fn expect_terms(&self, terms: &[String]) -> Vec<usize> {
        intersect(terms.iter().map(|t| self.by_term.get(t)))
    }
}

fn pick_two<T: Clone, R: Rng>(pool: &[T], rng: &mut R) -> Vec<T> {
    match pool.len() {
        0 => Vec::new(),
        1 => vec![pool[0].clone()],
        n => {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            vec![pool[a].clone(), pool[b].clone()]
        }
    }
}

fn intersect<'a>(mut lists: impl Iterator<Item = Option<&'a Vec<usize>>>) -> Vec<usize> {
    let Some(Some(first)) = lists.next() else {
        return Vec::new();
    };
    let mut acc: BTreeSet<usize> = first.iter().copied().collect();
    for list in lists {
        let Some(list) = list else {
            return Vec::new();
        };
        let set: BTreeSet<usize> = list.iter().copied().collect();
        acc = acc.intersection(&set).copied().collect();
    }
    acc.into_iter().collect()
}

/// Maps object ids handed out by one store back to item indices.
#[derive(Default)]
pub struct Ids {
    oids: Vec<ObjectId>,
    index: HashMap<ObjectId, usize>,
}

impl Ids {
    pub fn push(&mut self, oid: ObjectId) {
        self.index.insert(oid, self.oids.len());
        self.oids.push(oid);
    }

    pub fn oid(&self, i: usize) -> ObjectId {
        self.oids[i]
    }

    /// Whether `got` names exactly the items in `want`, as sets.
    pub fn same_set(&self, got: &[ObjectId], want: &[usize]) -> bool {
        let mut got: Vec<usize> = match got.iter().map(|o| self.index.get(o).copied()).collect() {
            Some(v) => v,
            None => return false,
        };
        got.sort_unstable();
        got.dedup();
        got == want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_follow_the_documented_rule() {
        let t: Vec<String> = terms("Hello, World! a HFS+ x9 file2009\0\0pad")
            .into_iter()
            .collect();
        assert_eq!(t, ["file2009", "hello", "hfs", "pad", "world", "x9"]);
    }

    #[test]
    fn intersections_are_exact() {
        let a = vec![1, 2, 3, 5];
        let b = vec![2, 5, 7];
        assert_eq!(intersect([Some(&a), Some(&b)].into_iter()), vec![2, 5]);
        assert!(intersect([Some(&a), None].into_iter()).is_empty());
    }
}
