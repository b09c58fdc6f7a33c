//! Markov-chain transition tables: G2G, G2A, and A2G.
//!
//! Transition extraction (Section 3.2.2, Figure 3.4) records three transition
//! probability matrices: group-to-group, group-to-actuator, and
//! actuator-to-group. Actuator-to-actuator is deliberately omitted — actuators
//! already manifest in sensor readings, so A2A adds cost without information.
//!
//! Groups are numerous and transitions sparse, so the "matrices" are stored
//! as sparse count maps with per-row totals; probabilities are derived on
//! demand.
//
// lint-src: allow-file(hash-container) — the sparse count maps serve point
// lookups; `entries()` sorts before yielding, so no hash order escapes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dice_types::{ActuatorId, GroupId};

/// A sparse transition-count matrix over `u32`-indexed states.
///
/// Rows are `from` states, columns `to` states. `prob` is the
/// maximum-likelihood estimate `count(from, to) / count(from, *)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "TransitionCountsRepr", into = "TransitionCountsRepr")]
pub struct TransitionCounts {
    counts: HashMap<(u32, u32), u64>,
    row_totals: HashMap<u32, u64>,
}

impl TransitionCounts {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `from -> to` transition.
    pub fn record(&mut self, from: u32, to: u32) {
        *self.counts.entry((from, to)).or_insert(0) += 1;
        *self.row_totals.entry(from).or_insert(0) += 1;
        debug_assert!(
            self.counts[&(from, to)] <= self.row_totals[&from],
            "cell count exceeds its row total"
        );
    }

    /// The raw count of `from -> to`.
    pub fn count(&self, from: u32, to: u32) -> u64 {
        self.counts.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Total outgoing transitions from `from`.
    pub fn row_total(&self, from: u32) -> u64 {
        self.row_totals.get(&from).copied().unwrap_or(0)
    }

    /// Whether `from -> to` was ever observed.
    pub fn observed(&self, from: u32, to: u32) -> bool {
        self.count(from, to) > 0
    }

    /// The transition probability `P(to | from)`.
    ///
    /// Zero when the row was never observed; this is what the transition
    /// check tests against (cases 1–3 of Section 3.3.2).
    pub fn prob(&self, from: u32, to: u32) -> f64 {
        let total = self.row_total(from);
        if total == 0 {
            0.0
        } else {
            self.count(from, to) as f64 / total as f64
        }
    }

    /// The observed successors of `from`, ascending by state index.
    pub fn successors(&self, from: u32) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .counts
            .keys()
            .filter(|(f, _)| *f == from)
            .map(|&(_, t)| t)
            .collect();
        out.sort_unstable();
        out
    }

    /// Iterates over `(from, to, count)` entries in ascending order.
    pub fn entries(&self) -> Vec<(u32, u32, u64)> {
        let mut out: Vec<(u32, u32, u64)> =
            self.counts.iter().map(|(&(f, t), &n)| (f, t, n)).collect();
        out.sort_unstable();
        out
    }

    /// Records `n` occurrences of `from -> to` at once (model loading).
    pub fn record_n(&mut self, from: u32, to: u32, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry((from, to)).or_insert(0) += n;
        *self.row_totals.entry(from).or_insert(0) += n;
        debug_assert!(
            self.counts[&(from, to)] <= self.row_totals[&from],
            "cell count exceeds its row total"
        );
    }

    /// Iterates over `(from, row_total)` pairs in ascending row order.
    pub fn row_totals(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self.row_totals.iter().map(|(&f, &n)| (f, n)).collect();
        out.sort_unstable();
        out
    }

    /// Assembles a matrix from raw entries and row totals **without**
    /// validating that the totals match the entries.
    ///
    /// This exists so verifier tests can construct matrices that violate the
    /// row-stochasticity invariant; every supported loading path recomputes
    /// totals instead. Never feed the result to a live engine.
    #[doc(hidden)]
    pub fn from_raw_parts(entries: Vec<(u32, u32, u64)>, row_totals: Vec<(u32, u64)>) -> Self {
        TransitionCounts {
            counts: entries.into_iter().map(|(f, t, n)| ((f, t), n)).collect(),
            row_totals: row_totals.into_iter().collect(),
        }
    }

    /// Folds another matrix's counts into this one. Counts are additive, so
    /// the result is independent of merge order and grouping.
    pub fn merge(&mut self, other: &TransitionCounts) {
        for (&(from, to), &n) in &other.counts {
            self.record_n(from, to, n);
        }
    }

    /// Like [`TransitionCounts::merge`], but maps row and column indices
    /// through `map_from` / `map_to` first — used when folding a chunk-local
    /// matrix (group axes carry chunk-local ids) into the global one.
    pub fn merge_mapped(
        &mut self,
        other: &TransitionCounts,
        map_from: impl Fn(u32) -> u32,
        map_to: impl Fn(u32) -> u32,
    ) {
        for (&(from, to), &n) in &other.counts {
            self.record_n(map_from(from), map_to(to), n);
        }
    }

    /// Number of distinct `(from, to)` pairs observed.
    pub fn num_entries(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded transitions.
    pub fn total(&self) -> u64 {
        self.row_totals.values().sum()
    }
}

/// Serde-friendly representation of [`TransitionCounts`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TransitionCountsRepr {
    entries: Vec<(u32, u32, u64)>,
}

impl From<TransitionCountsRepr> for TransitionCounts {
    fn from(repr: TransitionCountsRepr) -> Self {
        let mut counts = TransitionCounts::new();
        for (from, to, n) in repr.entries {
            counts.counts.insert((from, to), n);
            *counts.row_totals.entry(from).or_insert(0) += n;
        }
        counts
    }
}

impl From<TransitionCounts> for TransitionCountsRepr {
    fn from(counts: TransitionCounts) -> Self {
        let mut entries: Vec<(u32, u32, u64)> = counts
            .counts
            .into_iter()
            .map(|((f, t), n)| (f, t, n))
            .collect();
        entries.sort_unstable();
        TransitionCountsRepr { entries }
    }
}

/// The three transition matrices DICE extracts (Figure 3.4).
///
/// # Example
///
/// ```
/// use dice_core::TransitionModel;
/// use dice_types::{ActuatorId, GroupId};
///
/// let mut model = TransitionModel::new();
/// model.record_g2g(GroupId::new(0), GroupId::new(1));
/// model.record_g2a(GroupId::new(0), ActuatorId::new(2));
/// model.record_a2g(ActuatorId::new(2), GroupId::new(1));
/// assert_eq!(model.g2g_prob(GroupId::new(0), GroupId::new(1)), 1.0);
/// assert!(model.g2a_observed(GroupId::new(0), ActuatorId::new(2)));
/// assert!(!model.a2g_observed(ActuatorId::new(2), GroupId::new(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    g2g: TransitionCounts,
    g2a: TransitionCounts,
    a2g: TransitionCounts,
}

impl TransitionModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a group-to-group transition between consecutive windows.
    pub fn record_g2g(&mut self, from: GroupId, to: GroupId) {
        self.g2g.record(from.index() as u32, to.index() as u32);
    }

    /// Records a group followed by an actuator activation.
    pub fn record_g2a(&mut self, from: GroupId, to: ActuatorId) {
        self.g2a.record(from.index() as u32, to.index() as u32);
    }

    /// Records an actuator activation followed by a group.
    pub fn record_a2g(&mut self, from: ActuatorId, to: GroupId) {
        self.a2g.record(from.index() as u32, to.index() as u32);
    }

    /// `P(to | from)` in the G2G matrix.
    pub fn g2g_prob(&self, from: GroupId, to: GroupId) -> f64 {
        self.g2g.prob(from.index() as u32, to.index() as u32)
    }

    /// `P(actuator | group)` in the G2A matrix.
    pub fn g2a_prob(&self, from: GroupId, to: ActuatorId) -> f64 {
        self.g2a.prob(from.index() as u32, to.index() as u32)
    }

    /// `P(group | actuator)` in the A2G matrix.
    pub fn a2g_prob(&self, from: ActuatorId, to: GroupId) -> f64 {
        self.a2g.prob(from.index() as u32, to.index() as u32)
    }

    /// Whether the G2G transition was ever observed (case 1 tests this).
    pub fn g2g_observed(&self, from: GroupId, to: GroupId) -> bool {
        self.g2g.observed(from.index() as u32, to.index() as u32)
    }

    /// Whether the G2A transition was ever observed (case 2 tests this).
    pub fn g2a_observed(&self, from: GroupId, to: ActuatorId) -> bool {
        self.g2a.observed(from.index() as u32, to.index() as u32)
    }

    /// Whether the A2G transition was ever observed (case 3 tests this).
    pub fn a2g_observed(&self, from: ActuatorId, to: GroupId) -> bool {
        self.a2g.observed(from.index() as u32, to.index() as u32)
    }

    /// Whether group `from` ever had an outgoing G2G transition.
    ///
    /// Used to distinguish "never-observed transition" (a violation) from
    /// "no information about this row" (e.g. the last training window).
    pub fn g2g_row_known(&self, from: GroupId) -> bool {
        self.g2g.row_total(from.index() as u32) > 0
    }

    /// Outgoing G2G transitions from `from`, excluding self-loops.
    ///
    /// This is the meaningful support for a zero-probability claim: a group
    /// that persisted for one long stretch has a large raw row total but has
    /// only ever been seen *leaving* once.
    pub fn g2g_row_support(&self, from: GroupId) -> u64 {
        let f = from.index() as u32;
        self.g2g.row_total(f) - self.g2g.count(f, f)
    }

    /// Total observed A2G transitions from `from`.
    pub fn a2g_row_total(&self, from: ActuatorId) -> u64 {
        self.a2g.row_total(from.index() as u32)
    }

    /// Whether actuator `from` was ever observed activating during training.
    pub fn a2g_row_known(&self, from: ActuatorId) -> bool {
        self.a2g.row_total(from.index() as u32) > 0
    }

    /// The groups observed to follow `from`, ascending by id.
    pub fn g2g_successors(&self, from: GroupId) -> Vec<GroupId> {
        self.g2g
            .successors(from.index() as u32)
            .into_iter()
            .map(GroupId::new)
            .collect()
    }

    /// Direct access to the raw G2G counts.
    pub fn g2g(&self) -> &TransitionCounts {
        &self.g2g
    }

    /// Mutable access to the raw G2G counts (model loading).
    pub fn g2g_mut(&mut self) -> &mut TransitionCounts {
        &mut self.g2g
    }

    /// Mutable access to the raw G2A counts (model loading).
    pub fn g2a_mut(&mut self) -> &mut TransitionCounts {
        &mut self.g2a
    }

    /// Mutable access to the raw A2G counts (model loading).
    pub fn a2g_mut(&mut self) -> &mut TransitionCounts {
        &mut self.a2g
    }

    /// Folds a chunk-local model into this one, mapping chunk-local group
    /// ids through `group_map` (see [`crate::GroupTable::merge`]). Actuator
    /// ids are global already and pass through unchanged: G2G maps both
    /// sides, G2A only the row, A2G only the column.
    ///
    /// # Panics
    ///
    /// Panics if `other` references a local group id not covered by
    /// `group_map`.
    pub fn merge_mapped(&mut self, other: &TransitionModel, group_map: &[GroupId]) {
        let group = |local: u32| group_map[local as usize].index() as u32;
        let actuator = |id: u32| id;
        self.g2g.merge_mapped(&other.g2g, group, group);
        self.g2a.merge_mapped(&other.g2a, group, actuator);
        self.a2g.merge_mapped(&other.a2g, actuator, group);
    }

    /// Direct access to the raw G2A counts.
    pub fn g2a(&self) -> &TransitionCounts {
        &self.g2a
    }

    /// Direct access to the raw A2G counts.
    pub fn a2g(&self) -> &TransitionCounts {
        &self.a2g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_normalize_per_row() {
        let mut t = TransitionCounts::new();
        t.record(0, 1);
        t.record(0, 1);
        t.record(0, 2);
        t.record(3, 0);
        assert!((t.prob(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.prob(0, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.prob(0, 3), 0.0);
        assert_eq!(t.prob(9, 0), 0.0);
        assert_eq!(t.prob(3, 0), 1.0);
    }

    #[test]
    fn observed_and_counts() {
        let mut t = TransitionCounts::new();
        t.record(5, 6);
        assert!(t.observed(5, 6));
        assert!(!t.observed(6, 5));
        assert_eq!(t.count(5, 6), 1);
        assert_eq!(t.row_total(5), 1);
        assert_eq!(t.num_entries(), 1);
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn successors_sorted() {
        let mut t = TransitionCounts::new();
        t.record(0, 7);
        t.record(0, 2);
        t.record(0, 7);
        t.record(1, 3);
        assert_eq!(t.successors(0), vec![2, 7]);
        assert_eq!(t.successors(1), vec![3]);
        assert!(t.successors(2).is_empty());
    }

    #[test]
    fn paper_example_always_follows_means_prob_one() {
        // "If group 2 always appears after group 1, the transition
        // probability of group 1 to group 2 is 100%."
        let mut m = TransitionModel::new();
        for _ in 0..5 {
            m.record_g2g(GroupId::new(1), GroupId::new(2));
        }
        assert_eq!(m.g2g_prob(GroupId::new(1), GroupId::new(2)), 1.0);
        assert!(m.g2g_observed(GroupId::new(1), GroupId::new(2)));
        assert!(!m.g2g_observed(GroupId::new(2), GroupId::new(1)));
    }

    #[test]
    fn model_keeps_three_matrices_separate() {
        let mut m = TransitionModel::new();
        m.record_g2g(GroupId::new(0), GroupId::new(1));
        m.record_g2a(GroupId::new(0), ActuatorId::new(1));
        m.record_a2g(ActuatorId::new(0), GroupId::new(1));
        assert!(m.g2g_observed(GroupId::new(0), GroupId::new(1)));
        assert!(m.g2a_observed(GroupId::new(0), ActuatorId::new(1)));
        assert!(m.a2g_observed(ActuatorId::new(0), GroupId::new(1)));
        // Cross-matrix queries see nothing.
        assert!(!m.g2a_observed(GroupId::new(0), ActuatorId::new(0)));
        assert!(!m.a2g_observed(ActuatorId::new(1), GroupId::new(1)));
    }

    #[test]
    fn row_known_distinguishes_missing_rows() {
        let mut m = TransitionModel::new();
        m.record_g2g(GroupId::new(0), GroupId::new(1));
        assert!(m.g2g_row_known(GroupId::new(0)));
        assert!(!m.g2g_row_known(GroupId::new(1)));
        m.record_a2g(ActuatorId::new(2), GroupId::new(0));
        assert!(m.a2g_row_known(ActuatorId::new(2)));
        assert!(!m.a2g_row_known(ActuatorId::new(0)));
    }

    #[test]
    fn g2g_successors_map_to_group_ids() {
        let mut m = TransitionModel::new();
        m.record_g2g(GroupId::new(0), GroupId::new(3));
        m.record_g2g(GroupId::new(0), GroupId::new(1));
        assert_eq!(
            m.g2g_successors(GroupId::new(0)),
            vec![GroupId::new(1), GroupId::new(3)]
        );
    }

    #[test]
    fn merge_adds_counts_and_row_totals() {
        let mut a = TransitionCounts::new();
        a.record(0, 1);
        a.record(0, 1);
        a.record(2, 0);
        let mut b = TransitionCounts::new();
        b.record(0, 1);
        b.record(0, 3);
        a.merge(&b);
        assert_eq!(a.count(0, 1), 3);
        assert_eq!(a.count(0, 3), 1);
        assert_eq!(a.row_total(0), 4);
        assert_eq!(a.row_total(2), 1);
        assert_eq!(a.total(), 5);
    }

    #[test]
    fn merge_mapped_remaps_the_right_axes() {
        // Chunk-local ids: group 0 -> global 5, group 1 -> global 2.
        let map = [GroupId::new(5), GroupId::new(2)];
        let mut local = TransitionModel::new();
        local.record_g2g(GroupId::new(0), GroupId::new(1));
        local.record_g2a(GroupId::new(1), ActuatorId::new(7));
        local.record_a2g(ActuatorId::new(7), GroupId::new(0));

        let mut global = TransitionModel::new();
        global.record_g2a(GroupId::new(2), ActuatorId::new(7));
        global.merge_mapped(&local, &map);

        assert!(global.g2g_observed(GroupId::new(5), GroupId::new(2)));
        assert_eq!(global.g2a().count(2, 7), 2);
        assert!(global.a2g_observed(ActuatorId::new(7), GroupId::new(5)));
        assert!(!global.g2g_observed(GroupId::new(0), GroupId::new(1)));
    }

    #[test]
    fn serde_round_trip_preserves_probabilities() {
        let mut t = TransitionCounts::new();
        t.record(0, 1);
        t.record(0, 2);
        t.record(0, 2);
        let repr = TransitionCountsRepr::from(t.clone());
        let back = TransitionCounts::from(repr);
        assert_eq!(back, t);
        assert!((back.prob(0, 2) - 2.0 / 3.0).abs() < 1e-12);
    }
}
