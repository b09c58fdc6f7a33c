//! Edge-case tests first written for the bit-sliced scan index, kept under
//! their original module name and run against [`ScanIndex`], which replaced
//! it. They use the random tables of the sliced index's tests, so they cover
//! wider rows than the hand-built table of `scan::tests`.

mod tests {
    use crate::scan::tests::{random_query, random_table, XorShift};
    use crate::{BitSet, GroupTable, ScanIndex};

    #[test]
    fn empty_index_yields_empty_results() {
        let index = ScanIndex::build(&GroupTable::new(4));
        assert!(index.is_empty());
        assert!(index.candidates(&BitSet::new(4), 4).is_empty());
        assert!(index.nearest(&BitSet::new(4)).is_empty());
        let query = BitSet::new(4);
        let mut batch = Vec::new();
        let profile = index.candidates_batch_into(&[&query], 4, &mut batch);
        assert_eq!(profile.rows, 0);
        assert!(batch[0].is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let table = random_table(40, 64, 11);
        let index = ScanIndex::build(&table);
        let mut out = Vec::with_capacity(table.len());
        let cap = out.capacity();
        let mut rng = XorShift(5);
        for _ in 0..4 {
            let query = random_query(40, &mut rng);
            for max in [3, 40] {
                let _ = index.candidates_into(&query, max, &mut out);
                assert_eq!(out.capacity(), cap, "candidates_into must not grow");
            }
            let _ = index.nearest_into(&query, &mut out);
            assert_eq!(out.capacity(), cap, "nearest_into must not grow");
        }
    }

    #[test]
    fn nearest_ties_come_back_in_group_order() {
        let mut table = GroupTable::new(3);
        table.observe(&BitSet::from_indices(3, [0]));
        table.observe(&BitSet::from_indices(3, [1]));
        let index = ScanIndex::build(&table);
        let query = BitSet::from_indices(3, [2]);
        let nearest = index.nearest(&query);
        assert_eq!(nearest, table.nearest(&query));
        assert_eq!(nearest.len(), 2);
        assert!(nearest[0].group < nearest[1].group);
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn width_mismatch_panics() {
        let index = ScanIndex::build(&random_table(8, 4, 1));
        let _ = index.candidates(&BitSet::new(4), 1);
    }
}
