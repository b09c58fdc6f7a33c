//! The group table: unique sensor state sets and candidate-group search.
//!
//! Every unique sensor state set seen during precomputation becomes a *group*
//! (Figure 3.3b). At run time the correlation check (Figure 3.5) compares the
//! incoming state set against all groups by Hamming distance: a distance-0
//! match is the *main group*, other groups within the fault threshold are
//! *probable groups*.
//
// lint-src: allow-file(hash-container) — the state-set index is an
// exact-match lookup only; every enumeration of groups walks the Vec of
// states in insertion order, never the map.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dice_types::GroupId;

use crate::bitset::BitSet;
use crate::layout::BitLayout;

/// A candidate group produced by the correlation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate group.
    pub group: GroupId,
    /// Its Hamming distance to the observed state set.
    pub distance: u32,
}

/// The set of unique sensor state sets observed during precomputation.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable};
///
/// let mut table = GroupTable::new(4);
/// let g0 = table.observe(&BitSet::from_indices(4, [0, 1]));
/// let g1 = table.observe(&BitSet::from_indices(4, [2]));
/// assert_eq!(table.observe(&BitSet::from_indices(4, [0, 1])), g0);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.lookup(&BitSet::from_indices(4, [2])), Some(g1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupTable {
    num_bits: usize,
    groups: Vec<BitSet>,
    counts: Vec<u64>,
    /// Running sum of `counts`, so [`GroupTable::total_observations`] — hit
    /// by invariant checks and stats on every load/verify — stays O(1).
    total: u64,
    #[serde(skip)]
    index: HashMap<BitSet, GroupId>,
}

impl GroupTable {
    /// Creates an empty table for state sets of `num_bits` bits.
    pub fn new(num_bits: usize) -> Self {
        GroupTable {
            num_bits,
            groups: Vec::new(),
            counts: Vec::new(),
            total: 0,
            index: HashMap::new(),
        }
    }

    /// Width of the state sets this table holds.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups have been observed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Records one observation of `state`, assigning a new group id for a
    /// never-seen state set.
    ///
    /// # Panics
    ///
    /// Panics if the state set width does not match the table.
    pub fn observe(&mut self, state: &BitSet) -> GroupId {
        assert_eq!(state.len(), self.num_bits, "state width mismatch");
        if let Some(&id) = self.index.get(state) {
            self.counts[id.index()] += 1;
            self.total += 1;
            return id;
        }
        let id = GroupId::new(self.groups.len() as u32);
        self.groups.push(state.clone());
        self.counts.push(1);
        self.total += 1;
        self.index.insert(state.clone(), id);
        self.debug_check_parallel_arrays();
        id
    }

    /// Inserts a group with a precomputed observation count, assigning the
    /// next id — used when loading a persisted model.
    ///
    /// # Panics
    ///
    /// Panics if the state width mismatches or the state already exists.
    pub fn insert_with_count(&mut self, state: BitSet, count: u64) -> GroupId {
        assert_eq!(state.len(), self.num_bits, "state width mismatch");
        assert!(!self.index.contains_key(&state), "duplicate group");
        let id = GroupId::new(self.groups.len() as u32);
        self.groups.push(state.clone());
        self.counts.push(count);
        self.total += count;
        self.index.insert(state, id);
        self.debug_check_parallel_arrays();
        id
    }

    /// Appends a group **without** the width, duplicate, or index-consistency
    /// checks of [`GroupTable::insert_with_count`].
    ///
    /// This exists so verifier tests can build tables that violate the group
    /// invariants; it deliberately leaves the exact-match index untouched.
    /// Never feed the result to a live engine.
    #[doc(hidden)]
    pub fn insert_unchecked(&mut self, state: BitSet, count: u64) -> GroupId {
        let id = GroupId::new(self.groups.len() as u32);
        self.groups.push(state);
        self.counts.push(count);
        self.total += count;
        id
    }

    /// Looks up the group id for an exact match (the *main group*).
    pub fn lookup(&self, state: &BitSet) -> Option<GroupId> {
        self.index.get(state).copied()
    }

    /// The state set of a group.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a group of this table.
    pub fn state(&self, id: GroupId) -> &BitSet {
        &self.groups[id.index()]
    }

    /// How many windows mapped to this group during precomputation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a group of this table.
    pub fn count(&self, id: GroupId) -> u64 {
        self.counts[id.index()]
    }

    /// Total observations across all groups (O(1): maintained as a running
    /// counter by [`GroupTable::observe`] and [`GroupTable::insert_with_count`]).
    pub fn total_observations(&self) -> u64 {
        debug_assert_eq!(
            self.total,
            self.counts.iter().sum::<u64>(),
            "running total must match the counts"
        );
        self.total
    }

    /// All groups within Hamming distance `max_distance` of `state`
    /// (inclusive), sorted by ascending distance then group id.
    ///
    /// This is the candidate-group search of the correlation check. A
    /// distance-0 entry, if present, is the main group.
    pub fn candidates(&self, state: &BitSet, max_distance: u32) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = self
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| {
                state
                    .hamming_distance_within(g, max_distance)
                    .map(|distance| Candidate {
                        group: GroupId::new(i as u32),
                        distance,
                    })
            })
            .collect();
        out.sort_by_key(|c| (c.distance, c.group));
        out
    }

    /// The nearest group(s) to `state`: minimal distance, all ties.
    ///
    /// Returns an empty vector only for an empty table.
    pub fn nearest(&self, state: &BitSet) -> Vec<Candidate> {
        let mut best = u32::MAX;
        let mut out = Vec::new();
        for (i, g) in self.groups.iter().enumerate() {
            let d = state.hamming_distance(g);
            if d < best {
                best = d;
                out.clear();
            }
            if d == best {
                out.push(Candidate {
                    group: GroupId::new(i as u32),
                    distance: d,
                });
            }
        }
        out
    }

    /// Iterates over `(GroupId, &BitSet)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &BitSet)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId::new(i as u32), g))
    }

    /// Iterates over `(GroupId, &BitSet, observation count)` triples — the
    /// full per-group record, for analyzers that need counts alongside
    /// states.
    pub fn entries(&self) -> impl Iterator<Item = (GroupId, &BitSet, u64)> {
        self.groups
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(i, (g, &count))| (GroupId::new(i as u32), g, count))
    }

    fn debug_check_parallel_arrays(&self) {
        debug_assert_eq!(
            self.groups.len(),
            self.counts.len(),
            "group states and counts must stay parallel"
        );
        debug_assert_eq!(
            self.index.len(),
            self.groups.len(),
            "exact-match index must cover every group"
        );
    }

    /// The *correlation degree* of Table 5.2: the average number of activated
    /// sensors per group.
    ///
    /// A sensor counts as activated in a group when any bit of its span is
    /// set. Returns 0.0 for an empty table.
    pub fn correlation_degree(&self, layout: &BitLayout) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .groups
            .iter()
            .map(|g| {
                (0..layout.num_sensors())
                    .filter(|&s| {
                        let span = layout.span(dice_types::SensorId::new(s as u32));
                        g.any_in_span(span.start, span.width)
                    })
                    .count()
            })
            .sum();
        total as f64 / self.groups.len() as f64
    }

    /// Folds another table's groups into this one, returning the local→
    /// global id map: `map[other_id.index()]` is the id `other_id`'s state
    /// set has in `self` after the merge.
    ///
    /// Existing states accumulate counts; new states are appended in
    /// `other`'s id order. Because chunk-local tables assign ids by first
    /// occurrence within the chunk, merging chunk tables in time order
    /// reproduces exactly the serial first-seen-in-time-order id assignment
    /// (the parallel trainer's determinism hinge; see [`crate::merge_partials`]).
    ///
    /// # Panics
    ///
    /// Panics if the tables hold state sets of different widths.
    pub fn merge(&mut self, other: &GroupTable) -> Vec<GroupId> {
        assert_eq!(
            self.num_bits, other.num_bits,
            "merged tables must hold equally wide state sets"
        );
        other
            .entries()
            .map(|(_, state, count)| {
                if let Some(&id) = self.index.get(state) {
                    self.counts[id.index()] += count;
                    self.total += count;
                    id
                } else {
                    self.insert_with_count(state.clone(), count)
                }
            })
            .collect()
    }

    /// Rebuilds the exact-match index (needed after deserialization, where
    /// the index is skipped).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| (g.clone(), GroupId::new(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{DeviceRegistry, Room, SensorKind};

    fn table() -> GroupTable {
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, [0, 1])); // G0
        t.observe(&BitSet::from_indices(5, [3, 4])); // G1
        t.observe(&BitSet::from_indices(5, [0, 1])); // G0 again
        t.observe(&BitSet::from_indices(5, [0, 1, 2])); // G2
        t
    }

    #[test]
    fn observe_assigns_stable_ids_and_counts() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(GroupId::new(0)), 2);
        assert_eq!(t.count(GroupId::new(1)), 1);
        assert_eq!(t.total_observations(), 4);
    }

    #[test]
    fn lookup_finds_exact_matches_only() {
        let t = table();
        assert_eq!(
            t.lookup(&BitSet::from_indices(5, [0, 1])),
            Some(GroupId::new(0))
        );
        assert_eq!(t.lookup(&BitSet::from_indices(5, [0])), None);
    }

    #[test]
    fn candidates_within_distance_sorted() {
        let t = table();
        // Query {0,1,3}: d(G0)=1, d(G1)=3, d(G2)=2.
        let q = BitSet::from_indices(5, [0, 1, 3]);
        let c = t.candidates(&q, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].group, GroupId::new(0));
        assert_eq!(c[0].distance, 1);
        assert_eq!(c[1].group, GroupId::new(2));
        assert_eq!(c[1].distance, 2);
    }

    #[test]
    fn candidates_include_main_group_at_distance_zero() {
        let t = table();
        let q = BitSet::from_indices(5, [0, 1]);
        let c = t.candidates(&q, 1);
        assert_eq!(c[0].distance, 0);
        assert_eq!(c[0].group, GroupId::new(0));
    }

    #[test]
    fn nearest_returns_all_ties() {
        let mut t = GroupTable::new(3);
        t.observe(&BitSet::from_indices(3, [0]));
        t.observe(&BitSet::from_indices(3, [1]));
        // Query {2}: both groups at distance 2.
        let n = t.nearest(&BitSet::from_indices(3, [2]));
        assert_eq!(n.len(), 2);
        assert!(n.iter().all(|c| c.distance == 2));
        assert!(GroupTable::new(3).nearest(&BitSet::new(3)).is_empty());
    }

    #[test]
    fn correlation_degree_counts_sensors_not_bits() {
        // Registry: one binary + one numeric sensor (4 bits total).
        let mut reg = DeviceRegistry::new();
        reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let layout = BitLayout::for_registry(&reg);
        let mut t = GroupTable::new(4);
        // Group 0: motion + all temp bits -> 2 sensors active.
        t.observe(&BitSet::from_indices(4, [0, 1, 2, 3]));
        // Group 1: two temp bits only -> 1 sensor active.
        t.observe(&BitSet::from_indices(4, [1, 3]));
        assert!((t.correlation_degree(&layout) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_table_degree_is_zero() {
        let mut reg = DeviceRegistry::new();
        reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let layout = BitLayout::for_registry(&reg);
        assert_eq!(GroupTable::new(1).correlation_degree(&layout), 0.0);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn observe_rejects_width_mismatch() {
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::new(4));
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut t = table();
        t.index.clear();
        assert_eq!(t.lookup(&BitSet::from_indices(5, [0, 1])), None);
        t.rebuild_index();
        assert_eq!(
            t.lookup(&BitSet::from_indices(5, [0, 1])),
            Some(GroupId::new(0))
        );
    }

    #[test]
    fn iter_yields_all_groups() {
        let t = table();
        let ids: Vec<u32> = t.iter().map(|(id, _)| id.index() as u32).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_maps_shared_states_and_appends_new_ones() {
        let mut base = table(); // G0={0,1}x2, G1={3,4}, G2={0,1,2}
        let mut other = GroupTable::new(5);
        other.observe(&BitSet::from_indices(5, [3, 4])); // shared -> G1
        other.observe(&BitSet::from_indices(5, [2])); // new -> G3
        other.observe(&BitSet::from_indices(5, [3, 4])); // count 2
        other.observe(&BitSet::from_indices(5, [0, 1, 2])); // shared -> G2

        let map = base.merge(&other);
        assert_eq!(map, vec![GroupId::new(1), GroupId::new(3), GroupId::new(2)]);
        assert_eq!(base.len(), 4);
        assert_eq!(base.count(GroupId::new(1)), 3);
        assert_eq!(base.count(GroupId::new(3)), 1);
        assert_eq!(base.total_observations(), 8);
        assert_eq!(
            base.lookup(&BitSet::from_indices(5, [2])),
            Some(GroupId::new(3))
        );
    }

    #[test]
    fn merging_chunk_tables_in_order_matches_one_serial_table() {
        let states: Vec<BitSet> = [vec![0], vec![1], vec![0], vec![2], vec![1], vec![3]]
            .into_iter()
            .map(|idx| BitSet::from_indices(4, idx))
            .collect();
        let mut serial = GroupTable::new(4);
        for s in &states {
            serial.observe(s);
        }
        let mut merged = GroupTable::new(4);
        for chunk in states.chunks(2) {
            let mut local = GroupTable::new(4);
            for s in chunk {
                local.observe(s);
            }
            merged.merge(&local);
        }
        assert_eq!(merged, serial);
    }

    #[test]
    #[should_panic(expected = "equally wide")]
    fn merge_rejects_width_mismatch() {
        let mut t = GroupTable::new(5);
        t.merge(&GroupTable::new(4));
    }
}
