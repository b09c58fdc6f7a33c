//! Tests of [`ScanIndex`]'s row-major walk over the popcount bucket range:
//! every entry point must answer exactly like the naive [`GroupTable`] scan.

use super::*;

/// Deterministic xorshift generator so tests need no RNG dependency.
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

pub(crate) fn random_table(num_bits: usize, rows: usize, seed: u64) -> GroupTable {
    let mut rng = XorShift(seed | 1);
    let mut table = GroupTable::new(num_bits);
    while table.len() < rows {
        let density = rng.next() % 64;
        let state = BitSet::from_indices(
            num_bits,
            (0..num_bits).filter(|_| (rng.next() % 64) < density),
        );
        table.observe(&state);
    }
    table
}

pub(crate) fn random_query(num_bits: usize, rng: &mut XorShift) -> BitSet {
    let density = rng.next() % 64;
    BitSet::from_indices(
        num_bits,
        (0..num_bits).filter(|_| (rng.next() % 64) < density),
    )
}

fn table() -> GroupTable {
    let mut t = GroupTable::new(5);
    t.observe(&BitSet::from_indices(5, [0, 1])); // G0
    t.observe(&BitSet::from_indices(5, [3, 4])); // G1
    t.observe(&BitSet::from_indices(5, [0, 1, 2])); // G2
    t
}

#[test]
fn build_mirrors_table_rows() {
    let t = table();
    let idx = ScanIndex::build(&t);
    assert_eq!(idx.len(), 3);
    assert!(!idx.is_empty());
    assert_eq!(idx.num_bits(), 5);
}

#[test]
fn candidates_match_naive_scan() {
    let t = table();
    let idx = ScanIndex::build(&t);
    for max in 0..=5 {
        for query in [
            BitSet::from_indices(5, [0, 1, 3]),
            BitSet::from_indices(5, []),
            BitSet::from_indices(5, [0, 1, 2, 3, 4]),
        ] {
            assert_eq!(
                idx.candidates(&query, max),
                t.candidates(&query, max),
                "max_distance={max}, query={query}"
            );
        }
    }
}

#[test]
fn matches_naive_scan_on_a_300_row_table() {
    let num_bits = 130; // multi-word rows, partial last word
    let table = random_table(num_bits, 300, 0x5eed);
    let mut rng = XorShift(42);
    let queries: Vec<BitSet> = (0..8).map(|_| random_query(num_bits, &mut rng)).collect();
    let refs: Vec<&BitSet> = queries.iter().collect();
    let index = ScanIndex::build(&table);
    assert_eq!(index.len(), 300);
    assert!(!index.is_empty());
    assert_eq!(index.num_bits(), num_bits);
    for query in &queries {
        for max in [0, 1, 3, 7, 64, 130] {
            assert_eq!(
                index.candidates(query, max),
                table.candidates(query, max),
                "max={max}"
            );
        }
        assert_eq!(index.nearest(query), table.nearest(query));
    }
    let mut batch = Vec::new();
    let _ = index.candidates_batch_into(&refs, 3, &mut batch);
    for (query, got) in queries.iter().zip(&batch) {
        assert_eq!(got, &table.candidates(query, 3));
    }
}

#[test]
fn multiword_rows_scan_correctly() {
    let mut table = GroupTable::new(130);
    table.observe(&BitSet::from_indices(130, [0, 64, 129]));
    table.observe(&BitSet::from_indices(130, [1, 65]));
    let query = BitSet::from_indices(130, [0, 64]);
    let index = ScanIndex::build(&table);
    assert_eq!(index.candidates(&query, 130), table.candidates(&query, 130));
    assert_eq!(index.candidates(&query, 3), table.candidates(&query, 3));
    assert_eq!(index.nearest(&query), table.nearest(&query));
}

#[test]
fn nearest_matches_naive_scan_including_ties() {
    let mut t = GroupTable::new(3);
    t.observe(&BitSet::from_indices(3, [0]));
    t.observe(&BitSet::from_indices(3, [1]));
    let idx = ScanIndex::build(&t);
    // Query {2}: both groups tie at distance 2.
    let q = BitSet::from_indices(3, [2]);
    assert_eq!(idx.nearest(&q), t.nearest(&q));
    assert_eq!(idx.nearest(&q).len(), 2);
}

#[test]
fn empty_index_yields_empty_results() {
    let idx = ScanIndex::build(&GroupTable::new(4));
    assert!(idx.is_empty());
    assert!(idx.candidates(&BitSet::new(4), 4).is_empty());
    assert!(idx.nearest(&BitSet::new(4)).is_empty());
    let query = BitSet::new(4);
    let mut batch = Vec::new();
    let profile = idx.candidates_batch_into(&[&query], 4, &mut batch);
    assert_eq!(profile.rows, 0);
    assert!(batch[0].is_empty());
}

#[test]
fn scratch_buffers_are_reused_without_reallocation() {
    let t = table();
    let idx = ScanIndex::build(&t);
    let mut out = Vec::with_capacity(t.len());
    let cap = out.capacity();
    let queries = [
        BitSet::from_indices(5, [0, 1]),
        BitSet::from_indices(5, [3]),
        BitSet::from_indices(5, [0, 2, 4]),
    ];
    for q in &queries {
        let _ = idx.candidates_into(q, 5, &mut out);
        assert_eq!(out.capacity(), cap, "candidates_into must not grow");
        let _ = idx.nearest_into(q, &mut out);
        assert_eq!(out.capacity(), cap, "nearest_into must not grow");
    }
}

#[test]
fn batch_reuses_slots_without_stale_entries() {
    let table = random_table(32, 8, 3);
    let q1 = BitSet::from_indices(32, [0, 5]);
    let q2 = BitSet::from_indices(32, [1]);
    let index = ScanIndex::build(&table);
    let mut batch = Vec::new();
    let _ = index.candidates_batch_into(&[&q1, &q2], 32, &mut batch);
    assert_eq!(batch.len(), 2);
    // A smaller follow-up batch must truncate the slot vector.
    let _ = index.candidates_batch_into(&[&q2], 0, &mut batch);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0], table.candidates(&q2, 0));
}

#[test]
fn batch_matches_single_queries_and_sums_profiles() {
    let table = random_table(70, 300, 0xbeef);
    let mut rng = XorShift(3);
    let queries: Vec<BitSet> = (0..10).map(|_| random_query(70, &mut rng)).collect();
    let refs: Vec<&BitSet> = queries.iter().collect();
    let index = ScanIndex::build(&table);
    for max in [0, 2, 6, 80] {
        let mut batch = Vec::new();
        let batch_profile = index.candidates_batch_into(&refs, max, &mut batch);
        let mut sum = ScanProfile::default();
        for (query, got) in queries.iter().zip(&batch) {
            let mut single = Vec::new();
            sum.absorb(index.candidates_into(query, max, &mut single));
            assert_eq!(got, &single, "max={max}");
        }
        assert_eq!(batch_profile, sum, "max={max}");
    }
}

#[test]
fn scan_profile_counts_visited_and_pruned_rows() {
    // Popcounts 0 and 5 against a 2-bit query: with threshold 1 the
    // bucket range [1, 3] rejects both rows before any XOR work.
    let mut t = GroupTable::new(5);
    t.observe(&BitSet::from_indices(5, []));
    t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
    let idx = ScanIndex::build(&t);
    let q = BitSet::from_indices(5, [0, 1]);
    let mut out = Vec::new();
    let profile = idx.candidates_into(&q, 1, &mut out);
    assert_eq!(profile, ScanProfile { rows: 2, pruned: 2 });
    assert!(out.is_empty());
    // Threshold 2 widens the range to [0, 4] and admits the popcount-0 row.
    let profile = idx.candidates_into(&q, 2, &mut out);
    assert_eq!(profile, ScanProfile { rows: 2, pruned: 1 });
    // nearest_into visits buckets outward from the query's popcount; the
    // empty-set row (distance 2) is the single nearest group.
    let profile = idx.nearest_into(&q, &mut out);
    assert_eq!(profile.rows, 2);
    assert_eq!(out.len(), 1);
}

#[test]
fn bucket_cascade_prunes_out_of_range_rows() {
    let mut table = GroupTable::new(8);
    table.observe(&BitSet::from_indices(8, []));
    table.observe(&BitSet::from_indices(8, [0, 1, 2, 3, 4, 5, 6, 7]));
    let query = BitSet::from_indices(8, [0, 1]);
    let index = ScanIndex::build(&table);
    let mut out = Vec::new();
    // Popcounts 0 and 8 vs query popcount 2 at threshold 1: both rows
    // fall outside the bucket range, no row is ever touched.
    let profile = index.candidates_into(&query, 1, &mut out);
    assert_eq!(profile.rows, 2);
    assert_eq!(profile.pruned, 2);
    assert!(out.is_empty());
    // Threshold 2 admits the popcount-0 row (distance 2) but not the
    // full row (distance 6).
    let profile = index.candidates_into(&query, 2, &mut out);
    assert_eq!(profile.pruned, 1);
    assert_eq!(out, table.candidates(&query, 2));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].group, GroupId::new(0));
    // The nearest cascade stops after the popcount-0 bucket: the
    // full row lies outside the visited band.
    let profile = index.nearest_into(&query, &mut out);
    assert_eq!((profile.rows, profile.pruned), (2, 1));
    assert_eq!(out, table.nearest(&query));
}

#[test]
fn one_popcount_bucket_of_300_rows_is_scanned_whole() {
    // Every row has popcount 2, so the bucket range covers all 300 rows.
    let num_bits = 600;
    let mut table = GroupTable::new(num_bits);
    for i in 0..300 {
        table.observe(&BitSet::from_indices(num_bits, [i, i + 300 - 1]));
    }
    let index = ScanIndex::build(&table);
    let query = BitSet::from_indices(num_bits, [0, 299]);
    assert_eq!(index.candidates(&query, 4), table.candidates(&query, 4));
    let mut out = Vec::new();
    let profile = index.candidates_into(&query, 4, &mut out);
    assert_eq!((profile.rows, profile.pruned), (300, 0));
}

#[test]
fn popcount_prefilter_does_not_drop_true_candidates() {
    // Groups engineered so the prefilter fires: popcounts 0 and 5.
    let mut t = GroupTable::new(5);
    t.observe(&BitSet::from_indices(5, []));
    t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
    let idx = ScanIndex::build(&t);
    let q = BitSet::from_indices(5, [0, 1]);
    // d(G0)=2, d(G1)=3; threshold 2 keeps only G0.
    let c = idx.candidates(&q, 2);
    assert_eq!(c, t.candidates(&q, 2));
    assert_eq!(c.len(), 1);
    assert_eq!(c[0].group, GroupId::new(0));
}

#[test]
#[should_panic(expected = "query width mismatch")]
fn width_mismatch_panics() {
    let idx = ScanIndex::build(&table());
    let _ = idx.candidates(&BitSet::new(4), 1);
}
