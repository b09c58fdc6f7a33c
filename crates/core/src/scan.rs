//! The candidate-scan index: group rows packed row-major and sorted into
//! popcount buckets.
//!
//! The correlation check is DICE's per-window hot path: every window without
//! an exact group match is compared against *all* groups by Hamming distance
//! (Figure 3.5). [`ScanIndex`] is a structure-of-arrays mirror of the
//! [`GroupTable`] built for that scan:
//!
//! * **Popcount-bucket cascade.** Rows are sorted by `(popcount, group id)`,
//!   so the `|pc(q) − pc(g)| > maxDist` lower bound becomes two binary
//!   searches that select one *contiguous* slot range instead of a
//!   per-row branch. Everything outside the range is skipped wholesale.
//! * **Row-major walk.** Every row is packed row-major in slot order, and a
//!   candidate scan walks the bucket range one XOR+popcount chain per row,
//!   abandoning a row as soon as its running distance passes `maxDist`.
//!   The nearest cascade walks the same rows outward from the query's
//!   popcount.
//!
//! Results match the naive [`GroupTable::candidates`] /
//! [`GroupTable::nearest`] scans byte for byte. The index is derived state,
//! rebuilt whenever the model's group table changes — see
//! [`DiceModel::rebuild_index`](crate::DiceModel::rebuild_index).

use crate::bitset::BitSet;
use crate::groups::{Candidate, GroupTable};

use dice_types::GroupId;

const WORD_BITS: usize = 64;

/// The scan kernel a [`ScanIndex`] runs. There is one, the row-major walk;
/// this type exists only so perfbench's host-facts line can name it.
#[derive(Debug, Clone, Copy)]
pub struct ScanBackend;

impl ScanBackend {
    /// Stable name of the kernel: `row-major`.
    pub fn name(self) -> &'static str {
        "row-major"
    }
}

/// What one candidate scan did: how many group rows it covered and how many
/// it never compared.
///
/// Returned by every [`ScanIndex`] query so the engine can report prefilter
/// effectiveness as telemetry; `pruned / rows` is the prune rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanProfile {
    /// Group rows considered (the whole index, for a full scan).
    pub rows: u32,
    /// Rows never XOR-compared against the query: outside the popcount
    /// bucket range for candidate scans, outside the visited popcount band
    /// for nearest scans.
    pub pruned: u32,
}

impl ScanProfile {
    /// Adds another profile's counts into this one (element-wise), for
    /// callers that merge the work of several scans into one report.
    pub fn absorb(&mut self, other: ScanProfile) {
        self.rows += other.rows;
        self.pruned += other.pruned;
    }
}

/// The popcount-bucketed candidate-scan mirror of a [`GroupTable`]: the one
/// index a [`DiceModel`](crate::DiceModel) builds and the engine queries.
///
/// Every query returns exactly what the naive [`GroupTable::candidates`] /
/// [`GroupTable::nearest`] scans return. Derived state: rebuilt whenever the
/// model's group table changes.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable, ScanIndex};
///
/// let mut table = GroupTable::new(5);
/// table.observe(&BitSet::from_indices(5, [0, 1]));
/// table.observe(&BitSet::from_indices(5, [3, 4]));
/// let index = ScanIndex::build(&table);
///
/// let query = BitSet::from_indices(5, [0]);
/// assert_eq!(index.candidates(&query, 1), table.candidates(&query, 1));
/// assert_eq!(index.nearest(&query), table.nearest(&query));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanIndex {
    num_bits: usize,
    words_per_row: usize,
    /// `slot_to_group[slot]` = original group id of the row stored at
    /// `slot`; slots are sorted by `(popcount, group id)`.
    slot_to_group: Vec<u32>,
    /// Popcount per slot, ascending — the bucket-cascade search key.
    popcounts: Vec<u32>,
    /// Row-major packed rows in slot order.
    row_words: Vec<u64>,
}

impl ScanIndex {
    /// Builds the index from a group table.
    pub fn build(table: &GroupTable) -> Self {
        let num_bits = table.num_bits();
        let words_per_row = num_bits.div_ceil(WORD_BITS);
        let n = table.len();

        // Slot order: ascending (popcount, group id).
        let mut order: Vec<(u32, u32)> = table
            .iter()
            .map(|(id, state)| (state.count_ones(), id.index() as u32))
            .collect();
        order.sort_unstable();

        let mut slot_to_group = Vec::with_capacity(n);
        let mut popcounts = Vec::with_capacity(n);
        let mut row_words = Vec::with_capacity(n * words_per_row);
        for &(pc, group) in &order {
            slot_to_group.push(group);
            popcounts.push(pc);
            // Clamp to the table width: a corrupt table (verifier test fodder)
            // may hold wider rows; building must not panic on it.
            let words = table.state(GroupId::new(group)).as_words();
            for k in 0..words_per_row {
                row_words.push(words.get(k).copied().unwrap_or(0));
            }
        }

        ScanIndex {
            num_bits,
            words_per_row,
            slot_to_group,
            popcounts,
            row_words,
        }
    }

    /// Number of indexed groups.
    pub fn len(&self) -> usize {
        self.popcounts.len()
    }

    /// Whether the index holds no groups.
    pub fn is_empty(&self) -> bool {
        self.popcounts.is_empty()
    }

    /// Width of the indexed state sets, in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The scan kernel, for reports that name it.
    pub fn backend(&self) -> ScanBackend {
        ScanBackend
    }

    /// The packed row stored at `slot`.
    fn row(&self, slot: usize) -> &[u64] {
        &self.row_words[slot * self.words_per_row..][..self.words_per_row]
    }

    /// The contiguous slot range whose popcounts lie within `max_distance`
    /// of `query_pc` — everything outside it is pruned without XOR work.
    fn bucket_range(&self, query_pc: u32, max_distance: u32) -> (usize, usize) {
        let lo = query_pc.saturating_sub(max_distance);
        let start = self.popcounts.partition_point(|&pc| pc < lo);
        let end = self
            .popcounts
            .partition_point(|&pc| u64::from(pc) <= u64::from(query_pc) + u64::from(max_distance));
        (start, end)
    }

    /// Fills `out` with every group within Hamming distance `max_distance`
    /// of `state` (inclusive), sorted by ascending distance then group id —
    /// exactly [`GroupTable::candidates`], without allocating when `out` has
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn candidates_into(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
    ) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let mut profile = ScanProfile {
            rows: self.len() as u32,
            ..ScanProfile::default()
        };
        self.candidates_append(state, max_distance, out, &mut profile);
        out.sort_unstable_by_key(|c| (c.distance, c.group));
        profile
    }

    /// Scans one query's bucket range row-major, appending unsorted matches
    /// and accumulating into `profile` (shared by the single and batched
    /// entry points).
    fn candidates_append(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
        profile: &mut ScanProfile,
    ) {
        let (start, end) = self.bucket_range(state.count_ones(), max_distance);
        profile.pruned += (self.len() - (end - start)) as u32;
        let query = state.as_words();
        for slot in start..end {
            let mut distance = 0u32;
            let mut within = true;
            for (a, b) in query.iter().zip(self.row(slot)) {
                distance += (a ^ b).count_ones();
                if distance > max_distance {
                    within = false;
                    break;
                }
            }
            if within {
                out.push(Candidate {
                    group: GroupId::new(self.slot_to_group[slot]),
                    distance,
                });
            }
        }
    }

    /// Fills `out` with the nearest group(s) to `state`: minimal distance,
    /// all ties, ascending by group id — exactly [`GroupTable::nearest`],
    /// without allocating when `out` has capacity.
    ///
    /// Walks popcount buckets outward from the query's popcount and stops
    /// once the popcount gap alone exceeds the best distance found, so only
    /// a thin band of rows is ever compared. Leaves `out` empty only for an
    /// empty index.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn nearest_into(&self, state: &BitSet, out: &mut Vec<Candidate>) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let n = self.len();
        let mut profile = ScanProfile {
            rows: n as u32,
            ..ScanProfile::default()
        };
        if n == 0 {
            return profile;
        }
        let query = state.as_words();
        let query_pc = state.count_ones();
        let max_pc = *self.popcounts.last().expect("non-empty index");
        let mut best = u32::MAX;
        let mut visited = 0u32;
        let mut gap = 0u32;
        loop {
            // The popcount gap lower-bounds the distance: once it exceeds
            // the best distance seen, no further bucket can even tie.
            if best != u32::MAX && gap > best {
                break;
            }
            let low_exhausted = gap > query_pc;
            let high_exhausted = u64::from(query_pc) + u64::from(gap) > u64::from(max_pc);
            if low_exhausted && high_exhausted {
                break;
            }
            let mut sides = [None, None];
            if !low_exhausted {
                sides[0] = Some(query_pc - gap);
            }
            if gap > 0 && !high_exhausted {
                sides[1] = Some(query_pc + gap);
            }
            for pc in sides.into_iter().flatten() {
                let start = self.popcounts.partition_point(|&p| p < pc);
                let end = self.popcounts.partition_point(|&p| p <= pc);
                for slot in start..end {
                    visited += 1;
                    let mut distance = 0u32;
                    let mut beaten = false;
                    for (a, b) in query.iter().zip(self.row(slot)) {
                        distance += (a ^ b).count_ones();
                        if distance > best {
                            beaten = true;
                            break;
                        }
                    }
                    if beaten {
                        continue;
                    }
                    if distance < best {
                        best = distance;
                        out.clear();
                    }
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance,
                    });
                }
            }
            gap += 1;
        }
        // Ties surface in (popcount, group) slot order; the naive scan
        // returns them ascending by group id.
        out.sort_unstable_by_key(|c| c.group);
        profile.pruned = n as u32 - visited;
        profile
    }

    /// Batched [`ScanIndex::candidates_into`] over a slice of queries.
    ///
    /// `out` is resized to `queries.len()`, reusing inner buffers. Returns
    /// the element-wise sum of the per-query profiles — identical to running
    /// the single-query entry point per query.
    ///
    /// # Panics
    ///
    /// Panics if any query width does not match the index.
    pub fn candidates_batch_into(
        &self,
        queries: &[&BitSet],
        max_distance: u32,
        out: &mut Vec<Vec<Candidate>>,
    ) -> ScanProfile {
        out.resize_with(queries.len(), Vec::new);
        out.truncate(queries.len());
        let mut profile = ScanProfile::default();
        for (query, slots) in queries.iter().zip(out.iter_mut()) {
            assert_eq!(query.len(), self.num_bits, "query width mismatch");
            slots.clear();
            profile.rows += self.len() as u32;
            self.candidates_append(query, max_distance, slots, &mut profile);
            slots.sort_unstable_by_key(|c| (c.distance, c.group));
        }
        profile
    }

    /// Allocating convenience wrapper over [`ScanIndex::candidates_into`].
    pub fn candidates(&self, state: &BitSet, max_distance: u32) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.candidates_into(state, max_distance, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`ScanIndex::nearest_into`].
    pub fn nearest(&self, state: &BitSet) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.nearest_into(state, &mut out);
        out
    }
}

#[cfg(test)]
#[path = "scan_row_major_tests.rs"]
pub(crate) mod tests;
