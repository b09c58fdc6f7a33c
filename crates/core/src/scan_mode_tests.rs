//! Tests that [`SlicedScanIndex`] answers like the naive scan on both sides
//! of [`SCAN_CROSSOVER_GROUPS`](crate::SCAN_CROSSOVER_GROUPS), where it
//! switches from its row-major mode to bit-sliced planes.

mod tests {
    use crate::bitset::BitSet;
    use crate::groups::GroupTable;
    use crate::scan_sliced::{SlicedScanIndex, SCAN_CROSSOVER_GROUPS};

    fn table_of(groups: usize, num_bits: usize) -> GroupTable {
        let mut table = GroupTable::new(num_bits);
        for i in 0..groups {
            let bits = (0..num_bits).filter(|b| (i >> (b % 20)) & 1 == 1 || b % (i + 2) == 0);
            table.observe(&BitSet::from_indices(num_bits, bits));
        }
        table
    }

    #[test]
    fn both_routes_match_the_naive_scan() {
        for groups in [SCAN_CROSSOVER_GROUPS / 4, SCAN_CROSSOVER_GROUPS + 8] {
            let table = table_of(groups, 64);
            let index = SlicedScanIndex::build(&table);
            let queries: Vec<BitSet> = (0..8)
                .map(|q| BitSet::from_indices(64, (0..64).filter(move |b| (b + q) % 5 == 0)))
                .collect();
            for query in &queries {
                assert_eq!(index.candidates(query, 3), table.candidates(query, 3));
                assert_eq!(index.nearest(query), table.nearest(query));
            }
            let refs: Vec<&BitSet> = queries.iter().collect();
            let mut batch = Vec::new();
            let _ = index.candidates_batch_into(&refs, 3, &mut batch);
            for (query, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &table.candidates(query, 3));
            }
            let _ = index.nearest_batch_into(&refs, &mut batch);
            for (query, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &table.nearest(query));
            }
        }
    }
}
