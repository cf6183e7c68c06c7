//! Word-packed and adaptive bitsets: the shared representation machinery
//! behind [`crate::rumor::RumorSet`] and
//! [`crate::informed_list::InformedList`].
//!
//! Both collections live over the fixed universe `0..n` of process indices.
//! [`WordSet`] packs membership 64 indices per word: `contains` is a bit
//! test, `union` is a word-wise OR, and iteration walks set bits in
//! ascending index order (which is exactly the origin order the old
//! tree-based representations produced). The capacity grows on demand
//! because the collections are constructed before `n` is known to them; two
//! sets that hold the same indices compare equal regardless of how much
//! capacity each happens to have allocated.
//!
//! [`AdaptiveSet`] is the roaring-bitmap-style wrapper that makes the same
//! semantics affordable at `n = 65 536`: a set starts as a sorted sparse id
//! list (cost independent of the universe size) and promotes — once,
//! irreversibly — to the dense word-packed form when [`prefers_dense`]
//! says so. That one rule decides every sparse→dense switch in the crate
//! (`AdaptiveSet`, `RumorSet` and the `InformedList` matrix) from the set's
//! own contents:
//!
//! * **bytes** — dense once the sparse entries cost more bytes than the
//!   dense words spanning the largest id (4 B per `AdaptiveSet` id, 16 B per
//!   `RumorSet` entry, 4 B per `InformedList` pair against its whole
//!   matrix);
//! * **floor** — never dense at [`ADAPTIVE_DENSE_FLOOR`] entries or fewer,
//!   so singletons and early-phase sets stay sparse at any `n`;
//! * **cap** — a single set is always dense past [`ADAPTIVE_SPARSE_LIMIT`]
//!   entries, which bounds the sparse form at ~4 KiB.
//!
//! Every observable behaviour (membership, union deltas, ascending
//! iteration order, equality, wire bytes) is identical in both
//! representations, so executions are bit-for-bit unchanged; only the
//! memory touched and the cost of the hot checks move: small sets stay
//! `O(|set|)` instead of `Θ(n)`, and sets dense in a small universe (every
//! set at `n = 128`) get bit-parallel unions and superset checks.

use std::borrow::Cow;

/// The cap of the sparse form: a single set (an `AdaptiveSet`, or the
/// sparse entry list inside `RumorSet`) holding more than this many
/// elements is always dense. At 16 bytes per sparse `RumorSet` entry the
/// sparse form caps at ~4 KiB — about the dense bitmap cost at
/// `n = 32 768` — while staying small enough that sorted-merge unions of
/// two sparse sets are cheap.
pub const ADAPTIVE_SPARSE_LIMIT: usize = 256;

/// The floor of the sparse form: a set (or an `InformedList`) of at most
/// this many elements always stays sparse, whatever its ids — so a fresh
/// process's singleton, and the handful of rumors an early-phase process
/// has heard at `n = 65 536`, never touch a bitmap.
pub const ADAPTIVE_DENSE_FLOOR: usize = 32;

/// The sparse→dense rule: true once `len` sparse entries of `entry_bytes`
/// each cost more than `dense_words` bitmap words, and `len` is past
/// [`ADAPTIVE_DENSE_FLOOR`]. The decision reads only the contents, never
/// the current representation.
pub(crate) fn prefers_dense(len: usize, entry_bytes: usize, dense_words: usize) -> bool {
    len > ADAPTIVE_DENSE_FLOOR && len.saturating_mul(entry_bytes) > dense_words.saturating_mul(8)
}

/// [`prefers_dense`] for one set whose largest id is `max_id`, capped at
/// [`ADAPTIVE_SPARSE_LIMIT`] entries.
pub(crate) fn set_prefers_dense(len: usize, entry_bytes: usize, max_id: usize) -> bool {
    len > ADAPTIVE_SPARSE_LIMIT || prefers_dense(len, entry_bytes, max_id / 64 + 1)
}

/// True if sorted, duplicate-free `own` contains every element of sorted,
/// duplicate-free `theirs` (compared by `key`): one merge walk, linear in
/// `own.len() + theirs.len()`.
pub(crate) fn sorted_superset<T, K: Ord>(own: &[T], theirs: &[T], key: impl Fn(&T) -> K) -> bool {
    if theirs.len() > own.len() {
        return false;
    }
    let mut own = own.iter().map(&key);
    theirs.iter().map(&key).all(|want| {
        own.by_ref()
            .find(|have| *have >= want)
            .is_some_and(|have| have == want)
    })
}

/// True if every bit of `theirs` is set in `own` (both low word first;
/// words past either end count as zero).
pub(crate) fn words_superset(own: &[u64], theirs: &[u64]) -> bool {
    let theirs = trimmed(theirs);
    theirs.len() <= own.len() && own.iter().zip(theirs).all(|(&own, &word)| word & !own == 0)
}

/// Iterates the set bits of `words` (low word first) in ascending order.
pub(crate) fn iter_bits(words: &[u64]) -> WordSetIter<'_> {
    WordSetIter {
        words,
        w: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// ORs `words` into `own` word by word (words past `own`'s end are
/// dropped). Returns the number of bits newly set. A straight-line zip over
/// two slices — no per-word bounds checks or growth branches — so it
/// autovectorizes.
pub(crate) fn or_words_into(own: &mut [u64], words: &[u64]) -> usize {
    let mut added = 0usize;
    for (own, &word) in own.iter_mut().zip(words) {
        added += (word & !*own).count_ones() as usize;
        *own |= word;
    }
    added
}

/// [`or_words_into`] for raw little-endian 8-byte words (a dense wire
/// section); trailing bytes short of a full word are ignored.
pub(crate) fn or_le_words_into(own: &mut [u64], bytes: &[u8]) -> usize {
    let mut added = 0usize;
    for (own, chunk) in own.iter_mut().zip(bytes.chunks_exact(8)) {
        let word = le_word(chunk);
        added += (word & !*own).count_ones() as usize;
        *own |= word;
    }
    added
}

/// ANDs `words` into `mask` (words past `words`' end count as zero).
pub(crate) fn and_words_into(words: &[u64], mask: &mut [u64]) {
    for (w, m) in mask.iter_mut().enumerate() {
        *m &= words.get(w).copied().unwrap_or(0);
    }
}

/// True if bit `index` of `words` is set.
pub(crate) fn has_bit(words: &[u64], index: usize) -> bool {
    words
        .get(index / 64)
        .is_some_and(|w| w & (1 << (index % 64)) != 0)
}

/// The little-endian 8-byte word at the start of `chunk` (0 if short).
pub(crate) fn le_word(chunk: &[u8]) -> u64 {
    chunk
        .first_chunk::<8>()
        .map(|arr| u64::from_le_bytes(*arr))
        .unwrap_or(0)
}

/// Presence words with trailing zero words trimmed (the capacity a set has
/// grown to is not part of its value).
pub(crate) fn trimmed(words: &[u64]) -> &[u64] {
    let len = words.len() - words.iter().rev().take_while(|&&w| w == 0).count();
    &words[..len]
}

/// A set of `usize` indices packed 64 per word.
#[derive(Clone, Default)]
pub(crate) struct WordSet {
    words: Vec<u64>,
}

impl WordSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The backing words (low word first).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Grows the backing storage to at least `len` words.
    pub(crate) fn ensure_words(&mut self, len: usize) {
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
    }

    /// True if `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        has_bit(&self.words, index)
    }

    /// Inserts `index`. Returns `true` if it was not present before.
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        self.ensure_words(index / 64 + 1);
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// ORs `word` into the `w`-th backing word, growing as needed. Returns
    /// the mask of bits that were newly set.
    pub(crate) fn or_word(&mut self, w: usize, word: u64) -> u64 {
        if word == 0 {
            return 0;
        }
        self.ensure_words(w + 1);
        let fresh = word & !self.words[w];
        self.words[w] |= word;
        fresh
    }

    /// Merges `other` into `self`. Returns the number of indices added.
    pub(crate) fn union(&mut self, other: &WordSet) -> usize {
        self.or_words(&other.words)
    }

    /// ORs a word slice (low word first) into the set, growing once up
    /// front. Returns the number of indices added. The loop body is a
    /// straight-line zip over two slices — no per-word bounds checks or
    /// growth branches — so it autovectorizes.
    pub(crate) fn or_words(&mut self, words: &[u64]) -> usize {
        let words = trimmed(words);
        self.ensure_words(words.len());
        or_words_into(&mut self.words, words)
    }

    /// ORs `bytes.len() / 8` little-endian 8-byte words (starting at word
    /// 0) into the set — the dense wire section lands here without an
    /// intermediate `Vec<u64>`. Trailing bytes short of a full word are
    /// ignored. Returns the number of indices added.
    pub(crate) fn or_le_words(&mut self, bytes: &[u8]) -> usize {
        self.ensure_words(bytes.len() / 8);
        or_le_words_into(&mut self.words, bytes)
    }

    /// True if every index of `other` is in `self`.
    pub(crate) fn is_superset_of(&self, other: &WordSet) -> bool {
        words_superset(&self.words, &other.words)
    }

    /// Iterates over the set indices in ascending order.
    pub(crate) fn iter(&self) -> WordSetIter<'_> {
        iter_bits(&self.words)
    }
}

/// Ascending iterator over a [`WordSet`]'s indices (or any word slice's
/// set bits, see [`iter_bits`]).
pub(crate) struct WordSetIter<'a> {
    words: &'a [u64],
    w: usize,
    current: u64,
}

impl Iterator for WordSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.w += 1;
            if self.w >= self.words.len() {
                return None;
            }
            self.current = self.words[self.w];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.w * 64 + bit)
    }
}

/// An index set that adapts its representation to its contents: sorted
/// sparse ids until [`set_prefers_dense`] fires (4 bytes per id against the
/// bitmap spanning the largest id, past the floor, capped at
/// [`ADAPTIVE_SPARSE_LIMIT`]), the dense word-packed [`WordSet`] after.
/// Promotion is one-way — a set that has gone dense stays dense — so a
/// long-lived set settles into the representation its steady state wants.
#[derive(Clone)]
pub(crate) enum AdaptiveSet {
    /// Sorted ascending, no duplicates.
    Sparse(Vec<u32>),
    /// The word-packed form.
    Dense(WordSet),
}

impl Default for AdaptiveSet {
    fn default() -> Self {
        AdaptiveSet::Sparse(Vec::new())
    }
}

impl AdaptiveSet {
    /// Creates an empty set (sparse).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True if the set holds no index.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => ids.is_empty(),
            AdaptiveSet::Dense(words) => words.words().iter().all(|&w| w == 0),
        }
    }

    /// True if the set is in the dense word-packed representation.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self, AdaptiveSet::Dense(_))
    }

    /// True if `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => {
                u32::try_from(index).is_ok_and(|id| ids.binary_search(&id).is_ok())
            }
            AdaptiveSet::Dense(words) => words.contains(index),
        }
    }

    /// Switches to the dense representation (no-op if already dense).
    pub(crate) fn promote(&mut self) {
        if let AdaptiveSet::Sparse(ids) = self {
            let mut words = WordSet::new();
            if let Some(&max) = ids.last() {
                words.ensure_words(max as usize / 64 + 1);
            }
            for &id in ids.iter() {
                words.insert(id as usize);
            }
            *self = AdaptiveSet::Dense(words);
        }
    }

    /// Promotes a sparse set once [`set_prefers_dense`] fires for its ids.
    fn settle(&mut self) {
        if let AdaptiveSet::Sparse(ids) = self {
            if let Some(&max) = ids.last() {
                if set_prefers_dense(ids.len(), ID_BYTES, max as usize) {
                    self.promote();
                }
            }
        }
    }

    /// Switches back to the sparse id list (no-op if already sparse, or if
    /// an index does not fit a `u32`). A hook for the
    /// representation-differential tests; protocol code never demotes.
    pub(crate) fn demote(&mut self) {
        if let AdaptiveSet::Dense(words) = self {
            if let Ok(ids) = words.iter().map(u32::try_from).collect() {
                *self = AdaptiveSet::Sparse(ids);
            }
        }
    }

    /// Inserts `index`. Returns `true` if it was not present before.
    /// Promotes when the sparse→dense rule fires (or for indices beyond
    /// `u32`, which the sparse id list cannot represent).
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let Ok(id) = u32::try_from(index) else {
                    self.promote();
                    return self.insert(index);
                };
                match ids.binary_search(&id) {
                    Ok(_) => false,
                    Err(pos) => {
                        ids.insert(pos, id);
                        self.settle();
                        true
                    }
                }
            }
            AdaptiveSet::Dense(words) => words.insert(index),
        }
    }

    /// Merges `other` into `self`. Returns the number of indices added.
    pub(crate) fn union(&mut self, other: &AdaptiveSet) -> usize {
        match (&mut *self, other) {
            (AdaptiveSet::Sparse(own), AdaptiveSet::Sparse(theirs)) => {
                let added = merge_sorted(own, theirs);
                self.settle();
                added
            }
            (AdaptiveSet::Sparse(_), AdaptiveSet::Dense(_)) => {
                self.promote();
                self.union(other)
            }
            (AdaptiveSet::Dense(words), AdaptiveSet::Sparse(theirs)) => theirs
                .iter()
                .map(|&id| words.insert(id as usize) as usize)
                .sum(),
            (AdaptiveSet::Dense(own), AdaptiveSet::Dense(theirs)) => own.union(theirs),
        }
    }

    /// ORs raw little-endian word bytes (a dense wire row) into the set,
    /// promoting to the dense form first. Returns the number of indices
    /// added.
    pub(crate) fn or_le_words(&mut self, bytes: &[u8]) -> usize {
        self.promote();
        match self {
            AdaptiveSet::Dense(words) => words.or_le_words(bytes),
            AdaptiveSet::Sparse(_) => 0,
        }
    }

    /// True if every index named by raw little-endian word bytes is in
    /// `self`.
    pub(crate) fn is_superset_of_le_words(&self, bytes: &[u8]) -> bool {
        match self {
            AdaptiveSet::Dense(words) => le_words_superset(words.words(), bytes),
            AdaptiveSet::Sparse(_) => bytes.chunks_exact(8).enumerate().all(|(w, chunk)| {
                let mut word = le_word(chunk);
                while word != 0 {
                    let index = w * 64 + word.trailing_zeros() as usize;
                    if !self.contains(index) {
                        return false;
                    }
                    word &= word - 1;
                }
                true
            }),
        }
    }

    /// True if every index of `other` is in `self`.
    pub(crate) fn is_superset_of(&self, other: &AdaptiveSet) -> bool {
        match (self, other) {
            (AdaptiveSet::Dense(own), AdaptiveSet::Dense(theirs)) => own.is_superset_of(theirs),
            (AdaptiveSet::Sparse(own), AdaptiveSet::Sparse(theirs)) => {
                sorted_superset(own, theirs, |&id| id)
            }
            (AdaptiveSet::Dense(own), AdaptiveSet::Sparse(theirs)) => {
                theirs.iter().all(|&id| own.contains(id as usize))
            }
            (AdaptiveSet::Sparse(_), AdaptiveSet::Dense(theirs)) => {
                self.is_superset_of_words(theirs.words())
            }
        }
    }

    /// True if every index named by `words` (low word first) is in `self`.
    pub(crate) fn is_superset_of_words(&self, words: &[u64]) -> bool {
        match self {
            AdaptiveSet::Dense(own) => words_superset(own.words(), words),
            AdaptiveSet::Sparse(_) => iter_bits(words).all(|id| self.contains(id)),
        }
    }

    /// Iterates over the set indices in ascending order.
    pub(crate) fn iter(&self) -> AdaptiveIter<'_> {
        match self {
            AdaptiveSet::Sparse(ids) => AdaptiveIter::Sparse(ids.iter()),
            AdaptiveSet::Dense(words) => AdaptiveIter::Dense(words.iter()),
        }
    }

    /// ANDs this set into `mask` (one bit per index, `mask[w]` covering
    /// indices `64w..64w+64`): bits of `mask` whose index is not in the set
    /// are cleared. Indices beyond the mask are ignored.
    pub(crate) fn and_into(&self, mask: &mut [u64]) {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let mut next = 0usize;
                for (w, m) in mask.iter_mut().enumerate() {
                    let mut own = 0u64;
                    while next < ids.len() && ids[next] as usize / 64 == w {
                        own |= 1 << (ids[next] % 64);
                        next += 1;
                    }
                    *m &= own;
                }
            }
            AdaptiveSet::Dense(words) => and_words_into(words.words(), mask),
        }
    }

    /// ORs this set into `words` (one bit per index, low word first);
    /// indices beyond the slice are dropped. Returns the number of bits
    /// newly set.
    pub(crate) fn or_into(&self, words: &mut [u64]) -> usize {
        match self {
            AdaptiveSet::Sparse(ids) => ids
                .iter()
                .map(|&id| {
                    let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
                    words.get_mut(w).map_or(0, |word| {
                        let fresh = *word & bit == 0;
                        *word |= bit;
                        fresh as usize
                    })
                })
                .sum(),
            AdaptiveSet::Dense(own) => or_words_into(words, own.words()),
        }
    }

    /// True if every index of `self` is set in `words`.
    pub(crate) fn is_within_words(&self, words: &[u64]) -> bool {
        match self {
            AdaptiveSet::Sparse(ids) => ids.iter().all(|&id| has_bit(words, id as usize)),
            AdaptiveSet::Dense(own) => words_superset(words, own.words()),
        }
    }

    /// The set as trimmed dense words — borrowed when already dense,
    /// materialized when sparse. This is what the wire codec's dense section
    /// ships, so the bytes are identical whichever representation the set
    /// happens to be in.
    pub(crate) fn to_words(&self) -> Cow<'_, [u64]> {
        match self {
            AdaptiveSet::Sparse(ids) => {
                let Some(&max) = ids.last() else {
                    return Cow::Owned(Vec::new());
                };
                let mut words = vec![0u64; max as usize / 64 + 1];
                for &id in ids {
                    words[id as usize / 64] |= 1 << (id % 64);
                }
                Cow::Owned(words)
            }
            AdaptiveSet::Dense(words) => Cow::Borrowed(trimmed(words.words())),
        }
    }
}

/// Bytes per id in the sparse form of an [`AdaptiveSet`].
const ID_BYTES: usize = std::mem::size_of::<u32>();

/// True if every bit named by raw little-endian word bytes is set in `own`.
pub(crate) fn le_words_superset(own: &[u64], bytes: &[u8]) -> bool {
    bytes
        .chunks_exact(8)
        .enumerate()
        .all(|(w, chunk)| le_word(chunk) & !own.get(w).copied().unwrap_or(0) == 0)
}

/// Merges sorted `theirs` into sorted `own` (both ascending, duplicate
/// free). Returns the number of new elements.
fn merge_sorted(own: &mut Vec<u32>, theirs: &[u32]) -> usize {
    if theirs.is_empty() {
        return 0;
    }
    // Fast path: everything new lands past the current tail.
    if own.last().is_none_or(|&tail| tail < theirs[0]) {
        own.extend_from_slice(theirs);
        return theirs.len();
    }
    let mut merged = Vec::with_capacity(own.len() + theirs.len());
    let (mut i, mut j, mut added) = (0usize, 0usize, 0usize);
    while i < own.len() && j < theirs.len() {
        match own[i].cmp(&theirs[j]) {
            std::cmp::Ordering::Less => {
                merged.push(own[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(theirs[j]);
                j += 1;
                added += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(own[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&own[i..]);
    added += theirs.len() - j;
    merged.extend_from_slice(&theirs[j..]);
    *own = merged;
    added
}

/// Ascending iterator over an [`AdaptiveSet`]'s indices.
pub(crate) enum AdaptiveIter<'a> {
    Sparse(std::slice::Iter<'a, u32>),
    Dense(WordSetIter<'a>),
}

impl Iterator for AdaptiveIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            AdaptiveIter::Sparse(ids) => ids.next().map(|&id| id as usize),
            AdaptiveIter::Dense(bits) => bits.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_growth() {
        let mut s = WordSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200), "insertion grows the word vector");
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(199));
        assert_eq!(s.words().len(), 4);
    }

    #[test]
    fn union_counts_fresh_bits_only() {
        let mut a = WordSet::new();
        a.insert(1);
        a.insert(65);
        let mut b = WordSet::new();
        b.insert(1);
        b.insert(2);
        b.insert(130);
        assert_eq!(a.union(&b), 2);
        assert_eq!(a.union(&b), 0);
        assert!(a.is_superset_of(&b));
        assert!(!b.is_superset_of(&a));
    }

    #[test]
    fn or_words_and_or_le_words_match_per_word_or() {
        let mut by_word = WordSet::new();
        let mut by_slice = WordSet::new();
        let mut by_bytes = WordSet::new();
        let words = [0b1010u64, 0, u64::MAX, 1 << 63];
        for (w, &word) in words.iter().enumerate() {
            by_word.or_word(w, word);
        }
        assert_eq!(by_slice.or_words(&words), 64 + 3);
        assert_eq!(by_slice.or_words(&words), 0);
        let mut bytes = Vec::new();
        for &word in &words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(by_bytes.or_le_words(&bytes), 64 + 3);
        assert_eq!(by_word.words(), by_slice.words());
        assert_eq!(trimmed(by_word.words()), trimmed(by_bytes.words()));
        // Trailing partial words are ignored.
        let mut partial = WordSet::new();
        assert_eq!(partial.or_le_words(&[0xFF, 0xFF, 0xFF]), 0);
        assert!(partial.words().is_empty());
    }

    #[test]
    fn iter_is_ascending() {
        let mut s = WordSet::new();
        for i in [130, 0, 63, 64, 5] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 130]);
    }

    #[test]
    fn or_word_reports_fresh_mask() {
        let mut s = WordSet::new();
        assert_eq!(s.or_word(2, 0b1010), 0b1010);
        assert_eq!(s.or_word(2, 0b1110), 0b0100);
        assert_eq!(s.or_word(5, 0), 0, "zero word neither grows nor sets");
        assert_eq!(s.words().len(), 3);
    }

    #[test]
    fn adaptive_starts_sparse_and_promotes_past_the_crossover() {
        // Floor: ids packed into one word stay sparse up to the floor, and
        // the first id past it promotes (4 B per id against one 8-byte word).
        let mut packed = AdaptiveSet::new();
        for i in 0..ADAPTIVE_DENSE_FLOOR {
            assert!(packed.insert(i));
        }
        assert!(!packed.is_dense(), "at the floor the set is still sparse");
        assert!(packed.insert(ADAPTIVE_DENSE_FLOOR));
        assert!(
            packed.is_dense(),
            "one past the floor promotes a packed set"
        );

        // Bytes: 40 ids whose largest is 1279 cost 160 B sparse, exactly the
        // 20-word bitmap spanning them — still sparse; the 41st id tips it.
        let mut spanned = AdaptiveSet::new();
        spanned.insert(20 * 64 - 1);
        for i in 0..39 {
            spanned.insert(i);
        }
        assert!(
            !spanned.is_dense(),
            "sparse bytes equal to dense bytes stay sparse"
        );
        spanned.insert(39);
        assert!(
            spanned.is_dense(),
            "one more id makes the sparse form costlier"
        );

        // Cap: ids 128 apart never make the bitmap cheaper, so only the cap
        // promotes them — one past ADAPTIVE_SPARSE_LIMIT.
        let mut s = AdaptiveSet::new();
        for i in 0..ADAPTIVE_SPARSE_LIMIT {
            assert!(s.insert(i * 128));
        }
        assert!(!s.is_dense(), "at the cap a spread set is still sparse");
        assert!(s.insert(ADAPTIVE_SPARSE_LIMIT * 128));
        assert!(s.is_dense(), "one past the cap promotes");
        // Semantics survive the promotion.
        for i in 0..=ADAPTIVE_SPARSE_LIMIT {
            assert!(s.contains(i * 128));
            assert!(!s.contains(i * 128 + 1));
        }
        let got: Vec<usize> = s.iter().collect();
        let want: Vec<usize> = (0..=ADAPTIVE_SPARSE_LIMIT).map(|i| i * 128).collect();
        assert_eq!(got, want);
        let packed_ids: Vec<usize> = packed.iter().collect();
        assert_eq!(packed_ids, (0..=ADAPTIVE_DENSE_FLOOR).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_union_matches_in_every_representation_pairing() {
        let build = |ids: &[usize], dense: bool| {
            let mut s = AdaptiveSet::new();
            if dense {
                s.promote();
            }
            for &i in ids {
                s.insert(i);
            }
            s
        };
        let a_ids = [1usize, 5, 64, 130];
        let b_ids = [0usize, 5, 131, 200];
        for &a_dense in &[false, true] {
            for &b_dense in &[false, true] {
                let mut a = build(&a_ids, a_dense);
                let b = build(&b_ids, b_dense);
                assert_eq!(a.union(&b), 3, "({a_dense}, {b_dense})");
                assert_eq!(a.union(&b), 0);
                let got: Vec<usize> = a.iter().collect();
                assert_eq!(got, vec![0, 1, 5, 64, 130, 131, 200]);
                assert!(a.is_superset_of(&b));
                assert!(!b.is_superset_of(&a));
            }
        }
    }

    #[test]
    fn adaptive_union_promotes_when_the_merge_crosses_the_limit() {
        // Floor and bytes: two half-floor sets merge to exactly the floor
        // (sparse); one more packed id promotes.
        let half = ADAPTIVE_DENSE_FLOOR / 2;
        let mut a = AdaptiveSet::new();
        let mut b = AdaptiveSet::new();
        for i in 0..half {
            a.insert(2 * i);
            b.insert(2 * i + 1);
        }
        assert_eq!(a.union(&b), half);
        assert!(!a.is_dense(), "a merge reaching the floor stays sparse");
        let mut one = AdaptiveSet::new();
        one.insert(ADAPTIVE_DENSE_FLOOR);
        assert_eq!(a.union(&one), 1);
        assert!(a.is_dense(), "a merge past the floor promotes a packed set");

        // Cap: spread ids (128 apart) stay sparse on both sides; the merge
        // of 129 + 128 crosses ADAPTIVE_SPARSE_LIMIT and promotes.
        let mut a = AdaptiveSet::new();
        let mut b = AdaptiveSet::new();
        for i in 0..=ADAPTIVE_SPARSE_LIMIT / 2 {
            a.insert(i * 256);
        }
        for i in 0..ADAPTIVE_SPARSE_LIMIT / 2 {
            b.insert(i * 256 + 128);
        }
        assert!(!a.is_dense() && !b.is_dense());
        assert_eq!(a.union(&b), ADAPTIVE_SPARSE_LIMIT / 2);
        assert!(a.is_dense());
        assert_eq!(a.iter().count(), ADAPTIVE_SPARSE_LIMIT + 1);
    }

    #[test]
    fn the_rule_compares_bytes_past_the_floor_and_caps_single_sets() {
        // Never dense at or below the floor, whatever the bytes say.
        assert!(!prefers_dense(ADAPTIVE_DENSE_FLOOR, 16, 0));
        assert!(prefers_dense(ADAPTIVE_DENSE_FLOOR + 1, 16, 1));
        // Strictly more sparse bytes than dense bytes.
        assert!(!prefers_dense(64, 4, 32));
        assert!(prefers_dense(65, 4, 32));
        // A RumorSet at n = 128 (two words) promotes at 33 entries; at
        // n = 65 536 (1 024 words) only the cap promotes it.
        assert!(set_prefers_dense(ADAPTIVE_DENSE_FLOOR + 1, 16, 127));
        assert!(!set_prefers_dense(ADAPTIVE_SPARSE_LIMIT, 16, 65_535));
        assert!(set_prefers_dense(ADAPTIVE_SPARSE_LIMIT + 1, 16, 65_535));
    }

    #[test]
    fn sorted_superset_is_one_merge_walk() {
        let own = [1u32, 4, 9, 12];
        assert!(sorted_superset(&own, &[4, 12], |&x| x));
        assert!(sorted_superset(&own, &[], |&x| x));
        assert!(!sorted_superset(&own, &[4, 5], |&x| x));
        assert!(!sorted_superset(&own, &[13], |&x| x));
        assert!(!sorted_superset(&[1u32], &[0, 1], |&x| x), "longer other");
    }

    #[test]
    fn adaptive_and_into_masks_identically_for_both_representations() {
        let ids = [0usize, 3, 64, 127, 190];
        let mut sparse = AdaptiveSet::new();
        let mut dense = AdaptiveSet::new();
        dense.promote();
        for &i in &ids {
            sparse.insert(i);
            dense.insert(i);
        }
        let mut m1 = vec![u64::MAX; 3];
        let mut m2 = m1.clone();
        sparse.and_into(&mut m1);
        dense.and_into(&mut m2);
        assert_eq!(m1, m2);
        for i in 0..192 {
            let set = m1[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(set, ids.contains(&i), "index {i}");
        }
    }

    #[test]
    fn adaptive_to_words_is_identical_for_both_representations() {
        let ids = [1usize, 64, 500];
        let mut sparse = AdaptiveSet::new();
        let mut dense = AdaptiveSet::new();
        dense.promote();
        for &i in &ids {
            sparse.insert(i);
            dense.insert(i);
        }
        assert_eq!(sparse.to_words(), dense.to_words());
        assert!(AdaptiveSet::new().to_words().is_empty());
        // Dense words are trimmed: trailing capacity is not part of the value.
        let mut grown = AdaptiveSet::Dense(WordSet::new());
        grown.insert(1);
        if let AdaptiveSet::Dense(w) = &mut grown {
            w.ensure_words(12);
        }
        assert_eq!(grown.to_words().len(), 1);
    }

    #[test]
    fn merge_sorted_counts_only_new_elements() {
        let mut own = vec![1, 4, 9];
        assert_eq!(merge_sorted(&mut own, &[0, 4, 10]), 2);
        assert_eq!(own, vec![0, 1, 4, 9, 10]);
        assert_eq!(merge_sorted(&mut own, &[]), 0);
        assert_eq!(merge_sorted(&mut own, &[11, 12]), 2, "append fast path");
        assert_eq!(own, vec![0, 1, 4, 9, 10, 11, 12]);
    }
}
