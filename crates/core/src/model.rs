//! The trained DICE model: the output of the precomputation phase.

use serde::{Deserialize, Serialize};

use dice_types::{DeviceRegistry, GroupId};

use crate::binarize::Binarizer;
use crate::config::DiceConfig;
use crate::groups::GroupTable;
use crate::layout::BitLayout;
use crate::scan::ScanIndex;
use crate::transition::TransitionModel;

/// Everything DICE precomputes (Figure 3.2, left half): the binarizer with
/// its trained thresholds, the group table, and the three transition
/// matrices.
///
/// A gateway persists the precomputation result with
/// [`write_model`](crate::write_model) and reloads it at boot with
/// [`read_model`](crate::read_model), which assembles the model through
/// [`DiceModel::from_parts`] and so builds both indexes. The serde derives
/// generate nothing under the workspace's offline `serde` shim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiceModel {
    config: DiceConfig,
    binarizer: Binarizer,
    groups: GroupTable,
    transitions: TransitionModel,
    num_actuators: usize,
    training_windows: u64,
    /// Scan mirror of `groups` for the hot candidate scan; derived state,
    /// built from the table on construction.
    #[serde(skip)]
    scan: ScanIndex,
}

impl DiceModel {
    /// Assembles a model from its parts. Prefer
    /// [`ContextExtractor`](crate::ContextExtractor) or
    /// [`ModelBuilder`](crate::ModelBuilder) over calling this directly.
    pub fn from_parts(
        config: DiceConfig,
        binarizer: Binarizer,
        groups: GroupTable,
        transitions: TransitionModel,
        num_actuators: usize,
        training_windows: u64,
    ) -> Self {
        let scan = ScanIndex::build(&groups);
        DiceModel {
            config,
            binarizer,
            groups,
            transitions,
            num_actuators,
            training_windows,
            scan,
        }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &DiceConfig {
        &self.config
    }

    /// The window binarizer (layout + thresholds).
    pub fn binarizer(&self) -> &Binarizer {
        &self.binarizer
    }

    /// The bit layout.
    pub fn layout(&self) -> &BitLayout {
        self.binarizer.layout()
    }

    /// The group table.
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// The transition matrices.
    pub fn transitions(&self) -> &TransitionModel {
        &self.transitions
    }

    /// The candidate-scan index over the group table (see [`ScanIndex`]).
    pub fn scan(&self) -> &ScanIndex {
        &self.scan
    }

    /// Mutable access to the transition matrices **without** revalidation.
    ///
    /// This exists so verifier tests can seed invariant violations into an
    /// otherwise-valid model. Production code never mutates a trained model
    /// in place; resume training through
    /// [`ModelBuilder::resume`](crate::ModelBuilder::resume) instead.
    #[doc(hidden)]
    pub fn transitions_mut(&mut self) -> &mut TransitionModel {
        &mut self.transitions
    }

    /// Mutable access to the group table **without** revalidation; see
    /// [`DiceModel::transitions_mut`]. Leaves the scan index stale — call
    /// [`DiceModel::rebuild_index`] before any candidate search.
    #[doc(hidden)]
    pub fn groups_mut(&mut self) -> &mut GroupTable {
        &mut self.groups
    }

    /// Mutable access to the recorded training-window count **without**
    /// revalidation; see [`DiceModel::transitions_mut`].
    #[doc(hidden)]
    pub fn training_windows_mut(&mut self) -> &mut u64 {
        &mut self.training_windows
    }

    /// Number of actuators in the deployment.
    pub fn num_actuators(&self) -> usize {
        self.num_actuators
    }

    /// Number of training windows consumed.
    pub fn training_windows(&self) -> u64 {
        self.training_windows
    }

    /// The effective candidate-group distance threshold.
    pub fn candidate_distance(&self) -> u32 {
        self.config
            .candidate_distance(self.layout().max_span_width())
    }

    /// The correlation degree of Table 5.2: average activated sensors per
    /// group.
    pub fn correlation_degree(&self) -> f64 {
        self.groups.correlation_degree(self.layout())
    }

    /// Rebuilds the derived indexes, the exact-match group map and the
    /// packed scan index, from the group table, e.g. after editing it
    /// through [`DiceModel::groups_mut`].
    pub fn rebuild_index(&mut self) {
        self.groups.rebuild_index_public();
        self.scan = ScanIndex::build(&self.groups);
    }

    /// Fraction of training windows that fell in `group`, an empirical prior
    /// useful for diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not a group of this model.
    pub fn group_frequency(&self, group: GroupId) -> f64 {
        let total = self.groups.total_observations();
        if total == 0 {
            0.0
        } else {
            self.groups.count(group) as f64 / total as f64
        }
    }

    /// Decomposes the model into the parts a resumed
    /// [`ModelBuilder`](crate::ModelBuilder) needs, including the built scan
    /// index so an unchanged table can skip the rebuild on `finish`.
    pub(crate) fn into_parts(
        self,
    ) -> (
        DiceConfig,
        Binarizer,
        GroupTable,
        TransitionModel,
        ScanIndex,
    ) {
        (
            self.config,
            self.binarizer,
            self.groups,
            self.transitions,
            self.scan,
        )
    }

    /// Like [`DiceModel::from_parts`], but reuses an already-built scan
    /// index instead of rebuilding it from `groups`.
    ///
    /// The caller must guarantee `scan` was built from exactly this group
    /// table; [`ModelBuilder::finish`](crate::ModelBuilder::finish) uses it
    /// when a resumed build observed no new windows.
    pub(crate) fn from_parts_with_scan(
        config: DiceConfig,
        binarizer: Binarizer,
        groups: GroupTable,
        transitions: TransitionModel,
        num_actuators: usize,
        training_windows: u64,
        scan: ScanIndex,
    ) -> Self {
        debug_assert_eq!(
            scan.len(),
            groups.len(),
            "reused scan index must cover exactly the group table"
        );
        DiceModel {
            config,
            binarizer,
            groups,
            transitions,
            num_actuators,
            training_windows,
            scan,
        }
    }

    /// Validates basic invariants against a registry (sensor counts match).
    pub fn matches_registry(&self, registry: &DeviceRegistry) -> bool {
        self.layout().num_sensors() == registry.num_sensors()
            && self.num_actuators == registry.num_actuators()
    }
}

impl GroupTable {
    /// Public re-export of index rebuilding for [`DiceModel::rebuild_index`].
    pub(crate) fn rebuild_index_public(&mut self) {
        self.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::ThresholdTrainer;
    use crate::bitset::BitSet;
    use dice_types::{Room, SensorKind};

    fn tiny_model() -> (DiceModel, DeviceRegistry) {
        let mut reg = DeviceRegistry::new();
        reg.add_sensor(SensorKind::Motion, "m0", Room::Kitchen);
        reg.add_sensor(SensorKind::Motion, "m1", Room::Bedroom);
        let layout = BitLayout::for_registry(&reg);
        let binarizer = Binarizer::new(layout, ThresholdTrainer::new(&reg).finish());
        let mut groups = GroupTable::new(2);
        groups.observe(&BitSet::from_indices(2, [0]));
        groups.observe(&BitSet::from_indices(2, [1]));
        groups.observe(&BitSet::from_indices(2, [0]));
        let mut transitions = TransitionModel::new();
        transitions.record_g2g(GroupId::new(0), GroupId::new(1));
        let model =
            DiceModel::from_parts(DiceConfig::default(), binarizer, groups, transitions, 0, 3);
        (model, reg)
    }

    #[test]
    fn accessors_expose_parts() {
        let (model, reg) = tiny_model();
        assert_eq!(model.groups().len(), 2);
        assert_eq!(model.layout().num_bits(), 2);
        assert_eq!(model.training_windows(), 3);
        assert!(model.matches_registry(&reg));
        assert_eq!(model.candidate_distance(), 1); // binary-only, 1 fault
    }

    #[test]
    fn group_frequency_is_empirical() {
        let (model, _) = tiny_model();
        assert!((model.group_frequency(GroupId::new(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((model.group_frequency(GroupId::new(1)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_degree_of_single_sensor_groups_is_one() {
        let (model, _) = tiny_model();
        assert!((model.correlation_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_registry_detected() {
        let (model, _) = tiny_model();
        let other = DeviceRegistry::new();
        assert!(!model.matches_registry(&other));
    }
}
