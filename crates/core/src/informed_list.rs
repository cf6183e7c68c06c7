//! The informed-list `I(p)` of the `ears` protocol.
//!
//! `I(p)` is a set of pairs `⟨r, q⟩` meaning "process `p` knows that rumor
//! `r` has been sent to process `q` by some process" (paper, Section 3.1).
//! From `V(p)` and `I(p)` the process derives `L(p)`, the set of processes it
//! cannot ascertain have been sent every rumor in `V(p)`; the protocol keeps
//! gossiping while `L(p)` is non-empty.
//!
//! The list holds one adaptive target row per rumor origin until the
//! crate's one sparse→dense rule (`bits::prefers_dense`), applied to the
//! whole list, fires: more than [`crate::ADAPTIVE_DENSE_FLOOR`] pairs whose
//! 4-byte ids cost more than one row-major word matrix spanning the largest
//! origin and target. From then on every row lives in that single
//! `Vec<u64>`, so a copy-on-write clone is one allocation and one memcpy.
//! Rows held outside the matrix follow the same rule one by one, capped at
//! [`crate::ADAPTIVE_SPARSE_LIMIT`] ids.

use std::borrow::Cow;
use std::fmt;

use agossip_sim::ProcessId;

use crate::bits::{
    and_words_into, has_bit, iter_bits, le_words_superset, or_le_words_into, or_words_into,
    prefers_dense, trimmed, words_superset, AdaptiveSet,
};
use crate::codec_view::{InformedListView, InformedViewRepr};
use crate::rumor::RumorSet;

/// The set of `⟨rumor origin, target⟩` pairs a process knows about.
///
/// Rumors are identified by their origin (each origin has exactly one rumor),
/// so a pair `(r, q)` is stored as `(r.origin, q)` — a point in the fixed
/// `n × n` universe. The list has two representations, chosen by the
/// crate's one sparse→dense rule (see the `bits` module) over the whole
/// list:
///
/// * **rows** — one adaptive target set per origin row, each a sorted
///   sparse id list (4 bytes per pair) promoting on its own to a word-packed
///   row under the same rule. An early-phase process at `n = 65 536` holds a
///   few dozen ids per known rumor instead of `Θ(n)` bitmap words.
/// * **matrix** — once the list holds more than the floor of pairs and its
///   4-byte ids cost more than a row-major word matrix spanning its largest
///   origin and target, every row lives in one `Vec<u64>` with a stride
///   that grows on demand. A copy-on-write clone is one allocation and one
///   memcpy; [`InformedList::union`] and [`InformedList::is_superset_of`]
///   are flat OR / AND-NOT sweeps; the coverage queries that `ears`/`sears`
///   evaluate every local step AND the matrix rows of the known rumors. At
///   `n = 128` a list turns into a matrix (at most 2 KiB) past 512 pairs.
///   A growth that would make the matrix the costlier form splits it back
///   into rows, so memory stays bounded by the pairs actually held.
///
/// Iteration yields pairs in ascending `(origin, target)` order in either
/// representation, exactly as the historical
/// `BTreeSet<(ProcessId, ProcessId)>` did.
#[derive(Clone, Default)]
pub struct InformedList {
    repr: Repr,
    len: usize,
}

#[derive(Clone)]
enum Repr {
    /// `rows[origin]` is the set of targets covered for that origin's rumor;
    /// `width` is the word count spanning the largest target held.
    Rows {
        rows: Vec<AdaptiveSet>,
        width: usize,
    },
    /// Every row in one row-major word matrix.
    Matrix(Matrix),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Rows {
            rows: Vec::new(),
            width: 0,
        }
    }
}

/// Bytes per pair in the row form (one `u32` target id).
const PAIR_BYTES: usize = std::mem::size_of::<u32>();

/// True if a `rows × stride` word matrix is the cheaper home for `len`
/// pairs.
fn matrix_fits(len: usize, rows: usize, stride: usize) -> bool {
    prefers_dense(len, PAIR_BYTES, rows.saturating_mul(stride))
}

/// Every row's target bitmap in one row-major allocation: row `origin` is
/// `words[origin * stride..][..stride]`.
#[derive(Clone)]
struct Matrix {
    words: Vec<u64>,
    stride: usize,
}

impl Matrix {
    /// A `rows × stride` matrix holding `sets`' contents.
    fn from_rows(sets: &[AdaptiveSet], rows: usize, stride: usize) -> Matrix {
        let mut m = Matrix {
            words: vec![0; rows * stride],
            stride,
        };
        for (origin, set) in sets.iter().enumerate() {
            set.or_into(m.row_mut(origin));
        }
        m
    }

    fn rows(&self) -> usize {
        self.words.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Row `origin` (empty past the last row).
    fn row(&self, origin: usize) -> &[u64] {
        origin
            .checked_mul(self.stride)
            .and_then(|start| self.words.get(start..))
            .and_then(|tail| tail.get(..self.stride))
            .unwrap_or(&[])
    }

    /// Row `origin`, mutably (empty past the last row: callers size the
    /// matrix first, with `make_room` or `reshape`).
    fn row_mut(&mut self, origin: usize) -> &mut [u64] {
        let stride = self.stride;
        origin
            .checked_mul(stride)
            .and_then(|start| self.words.get_mut(start..))
            .and_then(|tail| tail.get_mut(..stride))
            .unwrap_or_default()
    }

    /// Grows to at least `rows × stride`, keeping every bit in place.
    fn reshape(&mut self, rows: usize, stride: usize) {
        let rows = rows.max(self.rows());
        if stride > self.stride {
            let mut grown = Matrix::from_rows(&[], rows, stride);
            for origin in 0..self.rows() {
                grown.row_mut(origin)[..self.stride].copy_from_slice(self.row(origin));
            }
            *self = grown;
        } else {
            self.words.resize(rows * self.stride, 0);
        }
    }

    /// ORs `other` in; `self` must span at least `other`'s rows and
    /// stride. Returns the number of bits newly set.
    fn or_matrix(&mut self, other: &Matrix) -> usize {
        if self.stride == other.stride {
            or_words_into(&mut self.words, &other.words)
        } else {
            (0..other.rows())
                .map(|origin| or_words_into(self.row_mut(origin), other.row(origin)))
                .sum()
        }
    }

    fn is_superset_of(&self, other: &Matrix) -> bool {
        if self.stride == other.stride && other.words.len() <= self.words.len() {
            self.words
                .iter()
                .zip(&other.words)
                .all(|(&own, &word)| word & !own == 0)
        } else {
            (0..other.rows()).all(|origin| words_superset(self.row(origin), other.row(origin)))
        }
    }

    /// Splits back into one adaptive row per origin.
    fn to_rows(&self) -> Vec<AdaptiveSet> {
        (0..self.rows())
            .map(|origin| {
                let mut row = AdaptiveSet::new();
                for target in iter_bits(self.row(origin)) {
                    row.insert(target);
                }
                row
            })
            .collect()
    }
}

/// Row `origin` of the row form, growing the row vector as needed.
fn row_mut(rows: &mut Vec<AdaptiveSet>, origin: usize) -> &mut AdaptiveSet {
    if rows.len() <= origin {
        rows.resize_with(origin + 1, AdaptiveSet::new);
    }
    &mut rows[origin]
}

impl InformedList {
    /// Creates an empty informed-list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The origin rows and target words the list spans.
    fn dims(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Rows { rows, width } => (rows.len(), *width),
            Repr::Matrix(m) => (m.rows(), m.stride),
        }
    }

    /// Readies the matrix form for an operation touching origin rows
    /// `..rows` and target words `..stride` that leaves at most `len_bound`
    /// pairs: grows it, or — if a matrix that large is no longer the cheaper
    /// form — splits it back into rows. A no-op in the row form.
    fn make_room(&mut self, rows: usize, stride: usize, len_bound: usize) {
        let Repr::Matrix(m) = &mut self.repr else {
            return;
        };
        if rows <= m.rows() && stride <= m.stride {
            return;
        }
        let (rows, stride) = (rows.max(m.rows()), stride.max(m.stride));
        if matrix_fits(len_bound, rows, stride) {
            m.reshape(rows, stride);
        } else {
            let width = m.stride;
            self.repr = Repr::Rows {
                rows: m.to_rows(),
                width,
            };
        }
    }

    /// Switches the row form to the matrix once the rule says a matrix
    /// spanning the list and at least `rows × stride` is the cheaper home
    /// for `len` pairs.
    fn adopt_matrix(&mut self, len: usize, rows: usize, stride: usize) {
        if let Repr::Rows { rows: sets, width } = &self.repr {
            let (rows, stride) = (rows.max(sets.len()), stride.max(*width));
            if matrix_fits(len, rows, stride) {
                self.repr = Repr::Matrix(Matrix::from_rows(sets, rows, stride));
            }
        }
    }

    /// Forces the matrix representation regardless of size. A hook for the
    /// representation-differential tests; never needed in protocol code.
    #[doc(hidden)]
    pub fn force_dense(&mut self) {
        if let Repr::Rows { rows, width } = &self.repr {
            self.repr = Repr::Matrix(Matrix::from_rows(rows, rows.len(), *width));
        }
    }

    /// Forces the row representation with every row a sparse id list,
    /// regardless of size. The next insert or union applies the
    /// sparse→dense rule again. A hook for the representation-differential
    /// tests; never needed in protocol code.
    #[doc(hidden)]
    pub fn force_sparse(&mut self) {
        if let Repr::Matrix(m) = &self.repr {
            self.repr = Repr::Rows {
                rows: m.to_rows(),
                width: m.stride,
            };
        }
        if let Repr::Rows { rows, .. } = &mut self.repr {
            rows.iter_mut().for_each(AdaptiveSet::demote);
        }
    }

    /// True if the list is currently in the matrix representation (test
    /// hook).
    #[doc(hidden)]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Matrix(_))
    }

    /// Records that the rumor originating at `rumor_origin` has been sent to
    /// `target`. Returns true if the pair is new.
    pub fn insert(&mut self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        let (origin, target) = (rumor_origin.index(), target.index());
        self.make_room(origin + 1, target / 64 + 1, self.len + 1);
        let fresh = match &mut self.repr {
            Repr::Rows { rows, width } => {
                *width = (*width).max(target / 64 + 1);
                row_mut(rows, origin).insert(target)
            }
            Repr::Matrix(m) => {
                let row = m.row_mut(origin);
                let fresh = !has_bit(row, target);
                if let Some(word) = row.get_mut(target / 64) {
                    *word |= 1 << (target % 64);
                }
                fresh
            }
        };
        if fresh {
            self.len += 1;
            self.adopt_matrix(self.len, 0, 0);
        }
        fresh
    }

    /// Records that every rumor in `rumors` has been sent to `target`.
    pub fn insert_all(&mut self, rumors: &RumorSet, target: ProcessId) {
        for origin in rumors.origins() {
            self.insert(origin, target);
        }
    }

    /// True if the list records that `rumor_origin`'s rumor was sent to
    /// `target`.
    pub fn contains(&self, rumor_origin: ProcessId, target: ProcessId) -> bool {
        let (origin, target) = (rumor_origin.index(), target.index());
        match &self.repr {
            Repr::Rows { rows, .. } => rows.get(origin).is_some_and(|row| row.contains(target)),
            Repr::Matrix(m) => has_bit(m.row(origin), target),
        }
    }

    /// Merges another informed-list into this one. Returns the number of new
    /// pairs.
    pub fn union(&mut self, other: &InformedList) -> usize {
        let (rows, stride) = other.dims();
        let bound = self.len + other.len;
        if other.is_dense() {
            self.adopt_matrix(bound, rows, stride);
        }
        self.make_room(rows, stride, bound);
        let added = match (&mut self.repr, &other.repr) {
            (Repr::Matrix(own), Repr::Matrix(theirs)) => own.or_matrix(theirs),
            (Repr::Matrix(own), Repr::Rows { rows, .. }) => rows
                .iter()
                .enumerate()
                .map(|(origin, row)| row.or_into(own.row_mut(origin)))
                .sum(),
            (Repr::Rows { rows: own, width }, Repr::Matrix(theirs)) => {
                *width = (*width).max(theirs.stride);
                (0..theirs.rows())
                    .filter(|&origin| !trimmed(theirs.row(origin)).is_empty())
                    .map(|origin| {
                        let row = row_mut(own, origin);
                        iter_bits(theirs.row(origin))
                            .filter(|&target| row.insert(target))
                            .count()
                    })
                    .sum()
            }
            (Repr::Rows { rows: own, width }, Repr::Rows { rows: theirs, .. }) => {
                *width = (*width).max(stride);
                theirs
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| !row.is_empty())
                    .map(|(origin, row)| row_mut(own, origin).union(row))
                    .sum()
            }
        };
        if added > 0 {
            self.len += added;
            self.adopt_matrix(self.len, 0, 0);
        }
        added
    }

    /// Merges a borrowed wire view (see [`crate::codec_view`]) into `self`,
    /// producing exactly the contents that decoding the view's frame and
    /// calling [`InformedList::union`] would — without materializing the
    /// sender's list. Dense rows are OR-ed straight into the matching target
    /// rows. Returns the number of new pairs.
    pub fn union_view(&mut self, view: &InformedListView<'_>) -> usize {
        match view.repr() {
            InformedViewRepr::Sparse { .. } => {
                let mut added = 0usize;
                for (origin, target) in view.iter() {
                    added += self.insert(origin, target) as usize;
                }
                added
            }
            InformedViewRepr::Dense { .. } => {
                let (rows, stride) = view.rows().fold((0, 0), |(rows, stride), row| {
                    (rows.max(row.origin + 1), stride.max(row.words.len() / 8))
                });
                let bound = self.len + view.len();
                self.adopt_matrix(bound, rows, stride);
                self.make_room(rows, stride, bound);
                let added: usize = match &mut self.repr {
                    Repr::Matrix(m) => view
                        .rows()
                        .map(|row| or_le_words_into(m.row_mut(row.origin), row.words))
                        .sum(),
                    Repr::Rows { rows: own, width } => {
                        *width = (*width).max(stride);
                        view.rows()
                            .map(|row| row_mut(own, row.origin).or_le_words(row.words))
                            .sum()
                    }
                };
                if added > 0 {
                    self.len += added;
                    self.adopt_matrix(self.len, 0, 0);
                }
                added
            }
        }
    }

    /// True if `self` records every pair of the borrowed wire view — the
    /// same answer [`InformedList::is_superset_of`] gives for the decoded
    /// frame, with no allocation.
    pub fn is_superset_of_view(&self, view: &InformedListView<'_>) -> bool {
        if view.len() > self.len {
            return false;
        }
        match view.repr() {
            InformedViewRepr::Sparse { .. } => view
                .iter()
                .all(|(origin, target)| self.contains(origin, target)),
            InformedViewRepr::Dense { .. } => view.rows().all(|row| match &self.repr {
                Repr::Rows { rows, .. } => match rows.get(row.origin) {
                    Some(own) => own.is_superset_of_le_words(row.words),
                    None => row.words.iter().all(|&b| b == 0),
                },
                Repr::Matrix(m) => le_words_superset(m.row(row.origin), row.words),
            }),
        }
    }

    /// True if every pair of `other` is already recorded in `self`.
    pub fn is_superset_of(&self, other: &InformedList) -> bool {
        if other.len > self.len {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Matrix(own), Repr::Matrix(theirs)) => own.is_superset_of(theirs),
            (Repr::Rows { rows, .. }, Repr::Matrix(theirs)) => {
                (0..theirs.rows()).all(|origin| match rows.get(origin) {
                    Some(own) => own.is_superset_of_words(theirs.row(origin)),
                    None => trimmed(theirs.row(origin)).is_empty(),
                })
            }
            (Repr::Matrix(own), Repr::Rows { rows, .. }) => rows
                .iter()
                .enumerate()
                .all(|(origin, row)| row.is_within_words(own.row(origin))),
            (Repr::Rows { rows: own, .. }, Repr::Rows { rows: theirs, .. }) => theirs
                .iter()
                .enumerate()
                .all(|(origin, row)| match own.get(origin) {
                    Some(own) => own.is_superset_of(row),
                    None => row.is_empty(),
                }),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pair is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// AND-accumulates, over every rumor in `rumors`, the target rows into a
    /// "covered" bitmask of `⌈n/64⌉` words: bit `q` survives iff every rumor
    /// has been sent to `q`. An empty rumor set covers everything vacuously.
    fn covered_mask(&self, rumors: &RumorSet, n: usize) -> Vec<u64> {
        let word_count = n.div_ceil(64);
        let mut covered = vec![u64::MAX; word_count];
        if !n.is_multiple_of(64) {
            // Mask off the bits beyond the universe in the last word.
            covered[word_count - 1] = (1u64 << (n % 64)) - 1;
        }
        for origin in rumors.origins() {
            match &self.repr {
                Repr::Rows { rows, .. } => match rows.get(origin.index()) {
                    Some(row) => row.and_into(&mut covered),
                    None => {
                        covered.fill(0);
                        break;
                    }
                },
                Repr::Matrix(m) => and_words_into(m.row(origin.index()), &mut covered),
            }
            if covered.iter().all(|&w| w == 0) {
                break;
            }
        }
        covered
    }

    /// Computes `L(p)` — the processes `q ∈ [n]` for which there exists a
    /// rumor `r ∈ rumors` with `(r, q)` not in the list (paper, Section 3.1).
    pub fn uncovered_targets(&self, rumors: &RumorSet, n: usize) -> Vec<ProcessId> {
        if rumors.is_empty() {
            return Vec::new();
        }
        let covered = self.covered_mask(rumors, n);
        ProcessId::all(n)
            .filter(|q| covered[q.index() / 64] & (1 << (q.index() % 64)) == 0)
            .collect()
    }

    /// True if every process in `[n]` is covered for every rumor in `rumors`
    /// (i.e. `L(p) = ∅`).
    pub fn covers_all(&self, rumors: &RumorSet, n: usize) -> bool {
        if rumors.is_empty() || n == 0 {
            return true;
        }
        let covered = self.covered_mask(rumors, n);
        let full = n / 64;
        covered[..full].iter().all(|&w| w == u64::MAX)
            && (n.is_multiple_of(64) || covered[full] == (1u64 << (n % 64)) - 1)
    }

    /// The non-empty rows as `(origin, trimmed dense words)` — for the wire
    /// codec's dense section. Matrix rows and dense rows are borrowed, sparse
    /// rows materialized, so the bytes on the wire are identical whichever
    /// representation the list happens to be in.
    pub(crate) fn dense_rows(&self) -> Vec<(usize, Cow<'_, [u64]>)> {
        match &self.repr {
            Repr::Rows { rows, .. } => rows
                .iter()
                .enumerate()
                .filter(|(_, row)| !row.is_empty())
                .map(|(origin, row)| (origin, row.to_words()))
                .collect(),
            Repr::Matrix(m) => (0..m.rows())
                .map(|origin| (origin, trimmed(m.row(origin))))
                .filter(|(_, words)| !words.is_empty())
                .map(|(origin, words)| (origin, Cow::Borrowed(words)))
                .collect(),
        }
    }

    /// Iterates over the pairs `(rumor origin, target)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        let (rows, matrix) = match &self.repr {
            Repr::Rows { rows, .. } => (rows.as_slice(), None),
            Repr::Matrix(m) => (&[][..], Some(m)),
        };
        let sparse = rows.iter().enumerate().flat_map(|(origin, row)| {
            row.iter()
                .map(move |target| (ProcessId(origin), ProcessId(target)))
        });
        let dense = matrix.into_iter().flat_map(|m| {
            (0..m.rows()).flat_map(move |origin| {
                iter_bits(m.row(origin)).map(move |target| (ProcessId(origin), ProcessId(target)))
            })
        });
        sparse.chain(dense)
    }
}

impl PartialEq for InformedList {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.is_superset_of(other)
    }
}

impl Eq for InformedList {}

impl fmt::Debug for InformedList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::ADAPTIVE_SPARSE_LIMIT;
    use crate::rumor::Rumor;

    fn rumors(origins: &[usize]) -> RumorSet {
        origins
            .iter()
            .map(|&o| Rumor::new(ProcessId(o), o as u64))
            .collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut il = InformedList::new();
        assert!(il.is_empty());
        assert!(il.insert(ProcessId(0), ProcessId(1)));
        assert!(!il.insert(ProcessId(0), ProcessId(1)));
        assert!(il.contains(ProcessId(0), ProcessId(1)));
        assert!(!il.contains(ProcessId(1), ProcessId(0)));
        assert_eq!(il.len(), 1);
    }

    #[test]
    fn insert_all_covers_every_rumor_for_target() {
        let mut il = InformedList::new();
        let v = rumors(&[0, 1, 2]);
        il.insert_all(&v, ProcessId(3));
        assert_eq!(il.len(), 3);
        for o in 0..3 {
            assert!(il.contains(ProcessId(o), ProcessId(3)));
        }
    }

    #[test]
    fn union_merges_pairs() {
        let mut a = InformedList::new();
        a.insert(ProcessId(0), ProcessId(1));
        let mut b = InformedList::new();
        b.insert(ProcessId(0), ProcessId(1));
        b.insert(ProcessId(2), ProcessId(3));
        assert_eq!(a.union(&b), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.union(&b), 0);
    }

    #[test]
    fn superset_and_equality_ignore_representation() {
        let mut a = InformedList::new();
        a.insert(ProcessId(5), ProcessId(70));
        a.insert(ProcessId(0), ProcessId(0));
        let mut b = InformedList::new();
        b.insert(ProcessId(0), ProcessId(0));
        b.insert(ProcessId(5), ProcessId(70));
        assert_eq!(a, b);
        assert!(a.is_superset_of(&b));
        // Promoting one side's rows must not disturb equality either way.
        b.force_dense();
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.insert(ProcessId(9), ProcessId(1));
        assert_ne!(a, b);
        assert!(b.is_superset_of(&a));
        assert!(!a.is_superset_of(&b));
    }

    #[test]
    fn uncovered_targets_matches_definition() {
        let n = 3;
        let v = rumors(&[0, 1]);
        let mut il = InformedList::new();
        // Cover everything for target 0 and 1 but only rumor 0 for target 2.
        il.insert_all(&v, ProcessId(0));
        il.insert_all(&v, ProcessId(1));
        il.insert(ProcessId(0), ProcessId(2));
        let uncovered = il.uncovered_targets(&v, n);
        assert_eq!(uncovered, vec![ProcessId(2)]);
        assert!(!il.covers_all(&v, n));
        il.insert(ProcessId(1), ProcessId(2));
        assert!(il.covers_all(&v, n));
        assert!(il.uncovered_targets(&v, n).is_empty());
    }

    #[test]
    fn empty_rumor_set_is_trivially_covered() {
        let il = InformedList::new();
        assert!(il.covers_all(&RumorSet::new(), 5));
        assert!(il.uncovered_targets(&RumorSet::new(), 5).is_empty());
    }

    #[test]
    fn unknown_rumor_row_uncovers_everything() {
        let n = 4;
        let mut il = InformedList::new();
        let v = rumors(&[0]);
        for q in ProcessId::all(n) {
            il.insert(ProcessId(0), q);
        }
        assert!(il.covers_all(&v, n));
        // A rumor with no row at all leaves every target uncovered.
        let v2 = rumors(&[0, 7]);
        assert!(!il.covers_all(&v2, n));
        assert_eq!(il.uncovered_targets(&v2, n).len(), n);
    }

    #[test]
    fn coverage_works_past_one_word_of_targets() {
        let n = 130;
        let v = rumors(&[1]);
        let mut il = InformedList::new();
        for q in ProcessId::all(n) {
            il.insert(ProcessId(1), q);
        }
        assert!(il.covers_all(&v, n));
        assert!(il.uncovered_targets(&v, n).is_empty());
        let mut partial = InformedList::new();
        for q in ProcessId::all(n) {
            if q.index() != 129 {
                partial.insert(ProcessId(1), q);
            }
        }
        assert!(!partial.covers_all(&v, n));
        assert_eq!(partial.uncovered_targets(&v, n), vec![ProcessId(129)]);
    }

    #[test]
    fn coverage_is_identical_across_row_representations() {
        // A sparse row and its force-promoted twin answer the coverage
        // queries identically (the rows here stay far below the crossover).
        let n = 200;
        let v = rumors(&[3]);
        let targets = [0usize, 64, 65, 130, 199];
        let mut sparse = InformedList::new();
        for &t in &targets {
            sparse.insert(ProcessId(3), ProcessId(t));
        }
        let mut dense = sparse.clone();
        dense.force_dense();
        assert_eq!(
            sparse.uncovered_targets(&v, n),
            dense.uncovered_targets(&v, n)
        );
        assert_eq!(sparse.covers_all(&v, n), dense.covers_all(&v, n));
        assert!(ADAPTIVE_SPARSE_LIMIT > targets.len());
    }

    #[test]
    fn new_rumor_uncovers_targets_again() {
        let n = 2;
        let mut v = rumors(&[0]);
        let mut il = InformedList::new();
        il.insert_all(&v, ProcessId(0));
        il.insert_all(&v, ProcessId(1));
        assert!(il.covers_all(&v, n));
        // Learning a new rumor re-opens L(p).
        v.insert(Rumor::new(ProcessId(1), 1));
        assert!(!il.covers_all(&v, n));
        assert_eq!(il.uncovered_targets(&v, n).len(), 2);
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let mut il = InformedList::new();
        il.insert(ProcessId(2), ProcessId(0));
        il.insert(ProcessId(0), ProcessId(1));
        let pairs: Vec<_> = il.iter().collect();
        assert_eq!(
            pairs,
            vec![(ProcessId(0), ProcessId(1)), (ProcessId(2), ProcessId(0))]
        );
    }
}
