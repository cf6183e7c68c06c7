//! Representation-differential proptests for the adaptive sparse/dense
//! rework: the same operation sequence is driven once against sets left in
//! their natural adaptive representation (sparse id lists promoting to dense
//! word-packed form past [`ADAPTIVE_SPARSE_LIMIT`]) and once against copies
//! force-promoted to dense up front. Every observable — membership, length,
//! union deltas, iteration order, coverage queries, equality, and the exact
//! wire bytes of the codec — must be identical regardless of which
//! representation each set happens to be in.
//!
//! The origin universe deliberately straddles the promotion crossover so
//! sequences exercise sparse-only, mixed, and post-promotion states; together
//! with the oracle tests in `rumor_differential.rs` and the golden pins in
//! `seed_equivalence.rs` this proves the adaptive rework is bit-for-bit
//! equivalent to the dense-only behaviour.
//!
//! A second group runs the other way round, in the dense universe `0..128`
//! where the sparse→dense rule fires on its own: an `InformedList` that
//! adopts its row-major matrix naturally is checked, operation by
//! operation, against a sparse twin forced back to sparse id rows after
//! every step and against a `BTreeSet` of pairs — including matrix growth
//! (a target past the current stride, an origin past the current rows),
//! the borrowed-view union and identical encoded bytes.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use agossip_core::informed_list::InformedList;
use agossip_core::{
    EarsMessage, Rumor, RumorSet, WireCodec, WireDecodeView, ADAPTIVE_DENSE_FLOOR,
    ADAPTIVE_SPARSE_LIMIT,
};
use agossip_sim::ProcessId;

/// Universe of origins: wide enough that a union can jump a set from far
/// below the crossover to far above it in one operation.
const UNIVERSE: usize = 3 * ADAPTIVE_SPARSE_LIMIT;

/// One operation of the differential driver, applied to both twins.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64),
    /// Union with a set built from these rumors (the argument itself is
    /// built adaptively on one side and force-promoted on the other).
    Union(Vec<(usize, u64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..2usize,
        (0..UNIVERSE, any::<u64>()),
        prop::collection::vec((0..UNIVERSE, any::<u64>()), 0..(ADAPTIVE_SPARSE_LIMIT + 64)),
    )
        .prop_map(|(tag, (o, p), rumors)| match tag {
            0 => Op::Insert(o, p),
            _ => Op::Union(rumors),
        })
}

/// Payload strategy biased towards the identity encoding (`payload ==
/// origin`) the gossip protocols use, with enough explicit payloads mixed in
/// to exercise the materialized path.
fn set_from(rumors: &[(usize, u64)]) -> RumorSet {
    let mut set = RumorSet::new();
    for &(o, p) in rumors {
        set.insert(Rumor::new(ProcessId(o), p));
    }
    set
}

fn dense_twin(set: &RumorSet) -> RumorSet {
    let mut twin = set.clone();
    twin.force_dense();
    twin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary insert/union sequences observe identical state whether the
    /// sets stay adaptive or are force-promoted to dense after every step.
    #[test]
    fn rumor_set_observables_are_representation_independent(
        ops in prop::collection::vec(op_strategy(), 0..16),
        identity_payloads in any::<bool>(),
    ) {
        let mut adaptive = RumorSet::new();
        let mut dense = RumorSet::new();
        dense.force_dense();
        for op in ops {
            match op {
                Op::Insert(origin, payload) => {
                    let payload = if identity_payloads { origin as u64 } else { payload };
                    let r = Rumor::new(ProcessId(origin), payload);
                    prop_assert_eq!(adaptive.insert(r), dense.insert(r));
                }
                Op::Union(rumors) => {
                    let rumors: Vec<(usize, u64)> = if identity_payloads {
                        rumors.iter().map(|&(o, _)| (o, o as u64)).collect()
                    } else {
                        rumors
                    };
                    let arg = set_from(&rumors);
                    // Cross the representations on the argument side too:
                    // adaptive ∪ dense-arg and dense ∪ adaptive-arg.
                    prop_assert_eq!(adaptive.union(&dense_twin(&arg)), dense.union(&arg));
                }
            }
            prop_assert_eq!(adaptive.len(), dense.len());
            prop_assert_eq!(adaptive == dense, true, "PartialEq must ignore representation");
            let a: Vec<Rumor> = adaptive.iter().collect();
            let d: Vec<Rumor> = dense.iter().collect();
            prop_assert_eq!(a, d, "iteration order must match");
            for q in ProcessId::all(UNIVERSE) {
                prop_assert_eq!(adaptive.get(q), dense.get(q));
            }
            prop_assert_eq!(
                adaptive.is_superset_of(&dense) && dense.is_superset_of(&adaptive),
                true
            );
        }
    }

    /// The wire codec emits byte-identical frames for a message whose sets
    /// are adaptive and its force-promoted twin — the sparse-vs-dense wire
    /// section choice is a pure function of the contents.
    #[test]
    fn wire_bytes_are_representation_independent(
        rumors in prop::collection::vec(0..UNIVERSE, 0..(ADAPTIVE_SPARSE_LIMIT + 32)),
        pairs in prop::collection::vec((0..UNIVERSE, 0..64usize), 0..(ADAPTIVE_SPARSE_LIMIT + 32)),
    ) {
        let mut set = RumorSet::new();
        for &o in &rumors {
            set.insert(Rumor::new(ProcessId(o), o as u64));
        }
        let mut informed = InformedList::new();
        for &(o, t) in &pairs {
            informed.insert(ProcessId(o), ProcessId(t));
        }
        let mut dense_set = set.clone();
        dense_set.force_dense();
        let mut dense_informed = informed.clone();
        dense_informed.force_dense();

        let adaptive_frame = EarsMessage {
            rumors: Arc::new(set),
            informed: Arc::new(informed),
        }
        .encode();
        let dense_frame = EarsMessage {
            rumors: Arc::new(dense_set),
            informed: Arc::new(dense_informed),
        }
        .encode();
        prop_assert_eq!(&adaptive_frame, &dense_frame, "wire bytes diverged across representations");

        // And the frame round-trips back to equal state.
        let decoded = EarsMessage::decode(&adaptive_frame).unwrap();
        let reencoded = decoded.encode();
        prop_assert_eq!(adaptive_frame, reencoded);
    }

    /// `InformedList` coverage queries and unions agree between adaptive
    /// rows and force-promoted rows.
    #[test]
    fn informed_list_observables_are_representation_independent(
        pairs in prop::collection::vec((0..UNIVERSE, 0..48usize), 0..(ADAPTIVE_SPARSE_LIMIT + 32)),
        extra in prop::collection::vec((0..UNIVERSE, 0..48usize), 0..32),
        probe_origins in prop::collection::vec(0..UNIVERSE, 0..8),
    ) {
        let n = 48;
        let mut adaptive = InformedList::new();
        let mut dense = InformedList::new();
        for &(o, t) in &pairs {
            prop_assert_eq!(
                adaptive.insert(ProcessId(o), ProcessId(t)),
                dense.insert(ProcessId(o), ProcessId(t))
            );
        }
        dense.force_dense();

        let mut probe = RumorSet::new();
        for &o in &probe_origins {
            probe.insert(Rumor::new(ProcessId(o), o as u64));
        }
        prop_assert_eq!(adaptive.len(), dense.len());
        let a: Vec<_> = adaptive.iter().collect();
        let d: Vec<_> = dense.iter().collect();
        prop_assert_eq!(a, d, "pair iteration order must match");
        prop_assert_eq!(
            adaptive.uncovered_targets(&probe, n),
            dense.uncovered_targets(&probe, n)
        );
        prop_assert_eq!(adaptive.covers_all(&probe, n), dense.covers_all(&probe, n));

        // Union across mixed representations: adaptive ∪ dense-arg must
        // report the same delta as dense ∪ adaptive-arg.
        let mut adaptive_arg = InformedList::new();
        for &(o, t) in &extra {
            adaptive_arg.insert(ProcessId(o), ProcessId(t));
        }
        let mut dense_arg = adaptive_arg.clone();
        dense_arg.force_dense();
        prop_assert_eq!(adaptive.union(&dense_arg), dense.union(&adaptive_arg));
        prop_assert_eq!(adaptive.len(), dense.len());
        let a: Vec<_> = adaptive.iter().collect();
        let d: Vec<_> = dense.iter().collect();
        prop_assert_eq!(a, d, "post-union pair iteration order must match");
    }
}

/// The dense universe: `n = 128`, where a list past 512 pairs is cheaper as
/// a matrix of at most 128 × 2 words.
const DENSE_N: usize = 128;

/// One operation of the dense-universe driver, applied to the natural
/// list, its sparse twin and the oracle.
#[derive(Debug, Clone)]
enum ListOp {
    Insert(usize, usize),
    /// `insert_all` of a rumor set built from these origins.
    InsertAll(Vec<usize>, usize),
    /// Union with a list built from these pairs.
    Union(Vec<(usize, usize)>),
    /// Union with the borrowed view of the encoded frame of a list built
    /// from these pairs.
    UnionView(Vec<(usize, usize)>),
}

fn list_op_strategy(origins: usize, targets: usize) -> impl Strategy<Value = ListOp> {
    (
        0..4usize,
        (0..origins, 0..targets),
        prop::collection::vec(0..origins, 0..48),
        prop::collection::vec((0..origins, 0..targets), 0..600),
    )
        .prop_map(|(tag, (o, t), rumors, pairs)| match tag {
            0 => ListOp::Insert(o, t),
            1 => ListOp::InsertAll(rumors, t),
            2 => ListOp::Union(pairs),
            _ => ListOp::UnionView(pairs),
        })
}

fn list_from(pairs: &[(usize, usize)]) -> InformedList {
    let mut list = InformedList::new();
    for &(o, t) in pairs {
        list.insert(ProcessId(o), ProcessId(t));
    }
    list
}

fn sparse_twin(list: &InformedList) -> InformedList {
    let mut twin = list.clone();
    twin.force_sparse();
    twin
}

/// The `ears` frame carrying `list` (and no rumor).
fn frame_of(list: &InformedList) -> Vec<u8> {
    EarsMessage {
        rumors: Arc::new(RumorSet::new()),
        informed: Arc::new(list.clone()),
    }
    .encode()
}

/// Applies `op` to the natural list, the sparse twin and the oracle,
/// asserting the union deltas agree, then forces the twin back to sparse.
fn apply(
    op: &ListOp,
    list: &mut InformedList,
    twin: &mut InformedList,
    oracle: &mut BTreeSet<(usize, usize)>,
) {
    match op {
        ListOp::Insert(o, t) => {
            let fresh = oracle.insert((*o, *t));
            prop_assert_eq!(list.insert(ProcessId(*o), ProcessId(*t)), fresh);
            prop_assert_eq!(twin.insert(ProcessId(*o), ProcessId(*t)), fresh);
        }
        ListOp::InsertAll(origins, t) => {
            let rumors: RumorSet = origins
                .iter()
                .map(|&o| Rumor::new(ProcessId(o), o as u64))
                .collect();
            list.insert_all(&rumors, ProcessId(*t));
            twin.insert_all(&rumors, ProcessId(*t));
            oracle.extend(origins.iter().map(|&o| (o, *t)));
        }
        ListOp::Union(pairs) | ListOp::UnionView(pairs) => {
            let before = oracle.len();
            oracle.extend(pairs.iter().copied());
            let fresh = oracle.len() - before;
            let arg = list_from(pairs);
            if let ListOp::Union(_) = op {
                // Cross the representations on the argument side too.
                prop_assert_eq!(list.union(&sparse_twin(&arg)), fresh);
                prop_assert_eq!(twin.union(&arg), fresh);
            } else {
                let bytes = frame_of(&arg);
                let view = EarsMessage::decode_view(&bytes).unwrap();
                prop_assert_eq!(list.is_superset_of_view(&view.informed), fresh == 0);
                prop_assert_eq!(twin.is_superset_of_view(&view.informed), fresh == 0);
                prop_assert_eq!(list.union_view(&view.informed), fresh);
                prop_assert_eq!(twin.union_view(&view.informed), fresh);
            }
        }
    }
    twin.force_sparse();
}

/// Asserts every observable of `list` and its sparse `twin` matches the
/// oracle, and that both encode to the same bytes.
fn check_against(
    list: &InformedList,
    twin: &InformedList,
    oracle: &BTreeSet<(usize, usize)>,
    probe: &RumorSet,
) {
    let want: Vec<(ProcessId, ProcessId)> = oracle
        .iter()
        .map(|&(o, t)| (ProcessId(o), ProcessId(t)))
        .collect();
    prop_assert_eq!(list.len(), oracle.len());
    prop_assert_eq!(twin.len(), oracle.len());
    prop_assert_eq!(list.iter().collect::<Vec<_>>(), want.clone());
    prop_assert_eq!(twin.iter().collect::<Vec<_>>(), want);
    // PartialEq must ignore representation, in both directions.
    prop_assert_eq!(list, twin);
    prop_assert_eq!(twin, list);
    prop_assert!(list.is_superset_of(twin) && twin.is_superset_of(list));
    prop_assert_eq!(
        list.uncovered_targets(probe, DENSE_N),
        twin.uncovered_targets(probe, DENSE_N)
    );
    prop_assert_eq!(
        list.covers_all(probe, DENSE_N),
        twin.covers_all(probe, DENSE_N)
    );
    prop_assert_eq!(frame_of(list), frame_of(twin), "wire bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In the dense universe the natural list adopts its matrix and must
    /// stay observably identical to a twin kept in sparse rows.
    #[test]
    fn informed_list_in_a_dense_universe_matches_its_sparse_twin(
        prefill in prop::collection::vec((0..DENSE_N, 0..DENSE_N), 0..1500),
        ops in prop::collection::vec(list_op_strategy(DENSE_N, DENSE_N), 0..10),
        probe_origins in prop::collection::vec(0..DENSE_N, 0..6),
    ) {
        let probe: RumorSet = probe_origins
            .iter()
            .map(|&o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        let mut list = list_from(&prefill);
        let mut twin = sparse_twin(&list);
        let mut oracle: BTreeSet<(usize, usize)> = prefill.iter().copied().collect();
        check_against(&list, &twin, &oracle, &probe);
        for op in &ops {
            apply(op, &mut list, &mut twin, &mut oracle);
            check_against(&list, &twin, &oracle, &probe);
        }
    }

    /// A matrix adopted over a small corner of the universe grows in place
    /// (or splits back into rows) when later pairs name a target past its
    /// stride or an origin past its rows.
    #[test]
    fn informed_list_matrix_growth_matches_its_sparse_twin(
        corner in prop::collection::vec((0..48usize, 0..64usize), 400..1200),
        ops in prop::collection::vec(list_op_strategy(DENSE_N, 3 * DENSE_N / 2), 1..8),
        probe_origins in prop::collection::vec(0..DENSE_N, 0..6),
    ) {
        let probe: RumorSet = probe_origins
            .iter()
            .map(|&o| Rumor::new(ProcessId(o), o as u64))
            .collect();
        let mut list = list_from(&corner);
        prop_assert!(list.is_dense(), "a dense corner adopts the matrix");
        let mut twin = sparse_twin(&list);
        let mut oracle: BTreeSet<(usize, usize)> = corner.iter().copied().collect();
        for op in &ops {
            apply(op, &mut list, &mut twin, &mut oracle);
            check_against(&list, &twin, &oracle, &probe);
        }
    }
}

#[test]
fn matrix_grows_past_its_stride_and_rows_then_splits_when_it_stops_paying() {
    // Full 64 × 64 corner: one word per row.
    let corner: Vec<(usize, usize)> = (0..64).flat_map(|o| (0..64).map(move |t| (o, t))).collect();
    let mut list = list_from(&corner);
    let mut oracle: BTreeSet<(usize, usize)> = corner.iter().copied().collect();
    assert!(list.is_dense());
    let mut twin = sparse_twin(&list);
    let probe: RumorSet = [Rumor::new(ProcessId(3), 3)].into_iter().collect();

    // A target past the stride, then an origin past the rows: the matrix
    // still pays for 4 098 pairs and grows in place.
    for (o, t) in [(10, 100), (100, 5)] {
        apply(&ListOp::Insert(o, t), &mut list, &mut twin, &mut oracle);
        assert!(list.is_dense(), "({o}, {t}) grows the matrix");
        check_against(&list, &twin, &oracle, &probe);
    }
    assert!(list.contains(ProcessId(10), ProcessId(100)));
    assert!(list.contains(ProcessId(100), ProcessId(5)));
    assert!(!list.contains(ProcessId(100), ProcessId(6)));

    // A small matrix asked to span a far corner splits back into rows
    // instead of allocating 1 001 × 16 words for 34 pairs.
    let small: Vec<(usize, usize)> = (0..=ADAPTIVE_DENSE_FLOOR).map(|t| (0, t)).collect();
    let mut list = list_from(&small);
    let mut oracle: BTreeSet<(usize, usize)> = small.iter().copied().collect();
    assert!(list.is_dense());
    let mut twin = sparse_twin(&list);
    apply(
        &ListOp::Insert(1000, 1000),
        &mut list,
        &mut twin,
        &mut oracle,
    );
    assert!(
        !list.is_dense(),
        "a matrix that no longer pays splits into rows"
    );
    check_against(&list, &twin, &oracle, &probe);
}
