//! [`Log`]: the append-only series behind the report's per-event logs.
//!
//! A `Vec` that grows by doubling holds up to twice its entries: at
//! 300 000 jobs the chunk and admission logs held 75.5 MB of capacity
//! for 52.8 MB of entries. A `Log` is a list of pages instead. The first
//! page holds 64 entries and each next one twice as many, up to 65 536,
//! which every later page holds: a run of a few dozen jobs allocates as
//! little as a small `Vec` would, a long run never holds more than one
//! page of slack, and no entry ever moves.

use std::fmt;

/// Entries in a log's first page.
const FIRST_PAGE: usize = 64;
/// Entries in every page from the one that reaches this size on.
const PAGE: usize = 1 << 16;

/// Capacity of page `k`.
fn page_entries(k: usize) -> usize {
    if k < (PAGE / FIRST_PAGE).trailing_zeros() as usize {
        FIRST_PAGE << k
    } else {
        PAGE
    }
}

/// An append-only series of `T` in insertion order: `push`, `len`, and
/// double-ended iteration (`iter()`, `&log` in a `for`). Two logs are
/// equal when they hold equal entries in the same order, however each
/// was built.
#[derive(Clone)]
pub struct Log<T> {
    pages: Vec<Vec<T>>,
    len: usize,
}

/// Borrowing iterator over a [`Log`], first entry to last.
pub type Iter<'a, T> = std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>;

impl<T> Log<T> {
    /// An empty log (allocates nothing).
    pub fn new() -> Self {
        Log {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Append `entry`.
    pub fn push(&mut self, entry: T) {
        match self.pages.last_mut() {
            Some(page) if page.len() < page.capacity() => page.push(entry),
            _ => {
                let mut page = Vec::with_capacity(page_entries(self.pages.len()));
                page.push(entry);
                self.pages.push(page);
            }
        }
        self.len += 1;
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in insertion order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.pages.iter().flatten()
    }
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log::new()
    }
}

impl<'a, T> IntoIterator for &'a Log<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Log<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other)
    }
}

impl<T: fmt::Debug> fmt::Debug for Log<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pages_double_up_to_the_fixed_page() {
        assert_eq!(page_entries(0), FIRST_PAGE);
        assert_eq!(page_entries(1), 2 * FIRST_PAGE);
        assert_eq!(page_entries(9), PAGE / 2);
        assert_eq!(page_entries(10), PAGE);
        assert_eq!(page_entries(40), PAGE);
        let mut log = Log::new();
        assert!(log.pages.is_empty(), "an empty log owns no page");
        for i in 0..3 * PAGE {
            log.push(i);
        }
        let held: usize = log.pages.iter().map(Vec::capacity).sum();
        assert!(held - log.len() <= PAGE, "at most one page of slack");
    }

    proptest! {
        /// Against a plain `Vec`: length, both iteration directions, the
        /// `Debug` form, and equality between logs that reached the same
        /// entries through different pushes (a clone's last page is cut
        /// to its length, so it pages differently from there on).
        #[test]
        fn matches_a_vec_model(head in 0usize..3000, tail in 0usize..3000) {
            let model: Vec<u32> = (0..(head + tail) as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let mut straight = Log::new();
            prop_assert!(straight.is_empty());
            for &v in &model {
                straight.push(v);
            }
            let mut resumed = Log::new();
            for &v in &model[..head] {
                resumed.push(v);
            }
            let mut resumed = resumed.clone();
            for &v in &model[head..] {
                resumed.push(v);
            }
            for log in [&straight, &resumed] {
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.is_empty(), model.is_empty());
                prop_assert!(log.iter().eq(&model));
                prop_assert!(log.iter().rev().eq(model.iter().rev()));
                prop_assert!(log.into_iter().eq(&model));
                prop_assert_eq!(format!("{log:?}"), format!("{model:?}"));
            }
            prop_assert!(straight == resumed);
            resumed.push(7);
            prop_assert!(straight != resumed);
            straight.push(8);
            prop_assert!(straight != resumed, "same length, different last entry");
        }
    }
}
