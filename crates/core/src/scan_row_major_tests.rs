//! Tests of the row-major mode [`SlicedScanIndex`] runs below
//! [`SCAN_CROSSOVER_GROUPS`](crate::SCAN_CROSSOVER_GROUPS) groups: every
//! table here is small, so no bit planes are built and each query walks the
//! popcount bucket range over the packed rows.

mod tests {
    use crate::bitset::BitSet;
    use crate::groups::GroupTable;
    use crate::scan_sliced::{ScanProfile, SlicedScanIndex};
    use dice_types::GroupId;

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
        let idx = SlicedScanIndex::build(&t);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.num_bits(), 5);
    }

    #[test]
    fn candidates_match_naive_scan() {
        let t = table();
        let idx = SlicedScanIndex::build(&t);
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
    fn nearest_matches_naive_scan_including_ties() {
        let mut t = GroupTable::new(3);
        t.observe(&BitSet::from_indices(3, [0]));
        t.observe(&BitSet::from_indices(3, [1]));
        let idx = SlicedScanIndex::build(&t);
        // Query {2}: both groups tie at distance 2.
        let q = BitSet::from_indices(3, [2]);
        assert_eq!(idx.nearest(&q), t.nearest(&q));
        assert_eq!(idx.nearest(&q).len(), 2);
    }

    #[test]
    fn empty_index_yields_empty_results() {
        let idx = SlicedScanIndex::build(&GroupTable::new(4));
        assert!(idx.is_empty());
        assert!(idx.candidates(&BitSet::new(4), 4).is_empty());
        assert!(idx.nearest(&BitSet::new(4)).is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let t = table();
        let idx = SlicedScanIndex::build(&t);
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
    fn scan_profile_counts_visited_and_pruned_rows() {
        // Popcounts 0 and 5 against a 2-bit query: with threshold 1 the
        // bucket range [1, 3] rejects both rows before any XOR work.
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, []));
        t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
        let idx = SlicedScanIndex::build(&t);
        let q = BitSet::from_indices(5, [0, 1]);
        let mut out = Vec::new();
        let profile = idx.candidates_into(&q, 1, &mut out);
        assert_eq!(
            profile,
            ScanProfile {
                rows: 2,
                pruned: 2,
                ..ScanProfile::default()
            }
        );
        assert!(out.is_empty());
        // Threshold 2 widens the range to [0, 4] and admits the popcount-0 row.
        let profile = idx.candidates_into(&q, 2, &mut out);
        assert_eq!(
            profile,
            ScanProfile {
                rows: 2,
                pruned: 1,
                ..ScanProfile::default()
            }
        );
        // nearest_into visits buckets outward from the query's popcount; the
        // empty-set row (distance 2) is the single nearest group.
        let profile = idx.nearest_into(&q, &mut out);
        assert_eq!(profile.rows, 2);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn popcount_prefilter_does_not_drop_true_candidates() {
        // Groups engineered so the prefilter fires: popcounts 0 and 5.
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, []));
        t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
        let idx = SlicedScanIndex::build(&t);
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
        let idx = SlicedScanIndex::build(&table());
        let _ = idx.candidates(&BitSet::new(4), 1);
    }
}
