//! Identification of the faulty device (Section 3.4, Figure 3.7).
//!
//! When a violation is detected, DICE diffs the problematic sensor state set
//! against the *probable groups* and folds the differing bits back to
//! sensors. Multiple probable groups are pruned by their transition
//! probability from the previous group. G2A/A2G violations contribute the
//! involved actuators. The engine then intersects the per-window probable
//! sets until at most `numThre` devices remain.

use std::collections::BTreeSet;

use dice_types::{DeviceId, GroupId};

use crate::binarize::WindowObservation;
use crate::detect::{CheckResult, PrevWindow, TransitionCase};
use crate::groups::Candidate;
use crate::model::DiceModel;

/// The probable faulty devices derived from one violating window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbableSet {
    /// The probable groups the state set was compared against.
    pub groups: Vec<GroupId>,
    /// The probable faulty devices (union across probable groups).
    pub devices: BTreeSet<DeviceId>,
}

impl ProbableSet {
    /// Whether no devices are implicated.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Number of implicated devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }
}

/// Derives probable faulty devices from violations.
#[derive(Debug, Clone, Copy)]
pub struct Identifier<'m> {
    model: &'m DiceModel,
}

impl<'m> Identifier<'m> {
    /// Creates an identifier over `model`.
    pub fn new(model: &'m DiceModel) -> Self {
        Identifier { model }
    }

    /// Derives the probable faulty devices for one violating window.
    ///
    /// For a correlation violation the probable groups are the candidate
    /// groups (distance ≤ threshold, or the nearest groups when none is);
    /// for a G2G violation they are the legal
    /// successors of the previous group; G2A/A2G violations implicate the
    /// involved actuators directly.
    ///
    /// Returns an empty set for [`CheckResult::Normal`].
    pub fn probable_devices(
        &self,
        prev: Option<&PrevWindow>,
        obs: &WindowObservation,
        result: &CheckResult,
    ) -> ProbableSet {
        match result {
            CheckResult::Normal { .. } => ProbableSet::default(),
            CheckResult::CorrelationViolation { candidates } => {
                self.identify_correlation(prev, obs, candidates)
            }
            CheckResult::TransitionViolation { group, cases } => {
                self.identify_transition(prev, obs, *group, cases)
            }
        }
    }

    /// Identification after a correlation violation: diff the state set
    /// against the probable groups (Figure 3.7).
    fn identify_correlation(
        &self,
        prev: Option<&PrevWindow>,
        obs: &WindowObservation,
        candidates: &[Candidate],
    ) -> ProbableSet {
        // `candidates` already holds the nearest groups when nothing is
        // inside the threshold (see `Detector::violation_candidates_into`).
        let mut probable: Vec<Candidate> = candidates.to_vec();

        // "If there are two or more probable groups, DICE checks the
        // transition probability from the previous group ... groups that
        // have no transition probability are removed."
        if probable.len() > 1 {
            if let Some(prev) = prev {
                if prev.exact {
                    let pruned: Vec<Candidate> = probable
                        .iter()
                        .copied()
                        .filter(|c| self.model.transitions().g2g_observed(prev.group, c.group))
                        .collect();
                    if !pruned.is_empty() {
                        probable = pruned;
                    }
                }
            }
        }

        // Among the remaining probable groups, the nearest ones explain the
        // observation with the fewest faulty bits; diffing against farther
        // groups only inflates the probable-device union and stalls the
        // numThre intersection. Configurable for the ablation study.
        if self.model.config().nearest_only_identification() {
            if let Some(min) = probable.iter().map(|c| c.distance).min() {
                probable.retain(|c| c.distance == min);
            }
        }

        self.diff_union(obs, &probable)
    }

    /// Identification after a transition violation.
    fn identify_transition(
        &self,
        prev: Option<&PrevWindow>,
        obs: &WindowObservation,
        group: GroupId,
        cases: &[TransitionCase],
    ) -> ProbableSet {
        let mut set = ProbableSet::default();

        for case in cases {
            match case {
                TransitionCase::G2G { from, .. } => {
                    // Probable groups = legal successors of the previous
                    // group, preferring those near the observed state.
                    let successors = self.model.transitions().g2g_successors(*from);
                    let mut cands: Vec<Candidate> = successors
                        .iter()
                        .filter(|&&g| g != group)
                        .map(|&g| Candidate {
                            group: g,
                            distance: obs.state.hamming_distance(self.model.groups().state(g)),
                        })
                        .collect();
                    cands.sort_by_key(|c| (c.distance, c.group));
                    let within: Vec<Candidate> = cands
                        .iter()
                        .copied()
                        .filter(|c| c.distance <= self.model.candidate_distance())
                        .collect();
                    let chosen: Vec<Candidate> = if !within.is_empty() {
                        within
                    } else if let Some(min) = cands.first().map(|c| c.distance) {
                        cands.into_iter().filter(|c| c.distance == min).collect()
                    } else {
                        Vec::new()
                    };
                    let part = self.diff_union(obs, &chosen);
                    set.groups.extend(part.groups);
                    set.devices.extend(part.devices);
                }
                TransitionCase::G2A { actuator, .. } => {
                    // "DICE regards the present activated actuators (G2A)
                    // ... as faulty actuators."
                    set.devices.insert(DeviceId::Actuator(*actuator));
                }
                TransitionCase::A2G { actuator, .. } => {
                    // "... or the previously activated actuators (A2G)."
                    set.devices.insert(DeviceId::Actuator(*actuator));
                }
            }
        }

        let _ = prev; // prev is implicit in the recorded cases
        set.groups.sort_unstable();
        set.groups.dedup();
        set
    }

    /// Diffs the observed state set against each probable group and unions
    /// the implicated sensors.
    fn diff_union(&self, obs: &WindowObservation, probable: &[Candidate]) -> ProbableSet {
        let layout = self.model.layout();
        let mut devices = BTreeSet::new();
        let mut groups = Vec::with_capacity(probable.len());
        for c in probable {
            groups.push(c.group);
            let group_state = self.model.groups().state(c.group);
            for sensor in layout.sensors_of_bits(obs.state.diff_indices(group_state)) {
                devices.insert(DeviceId::Sensor(sensor));
            }
        }
        ProbableSet { groups, devices }
    }
}

/// Accumulates per-window probable sets and applies the `numThre`
/// intersection rule of Section 3.4.
///
/// The paper's example: probable sets `{S1,S2,S3}`, `{S1,S2,S4}`,
/// `{S1,S5,S6}` intersect to `{S1}` after three windows, at which point the
/// faulty device is reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntersectionTracker {
    accumulated: Option<BTreeSet<DeviceId>>,
    rounds: usize,
}

impl IntersectionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one window's probable set; empty sets are ignored.
    ///
    /// If intersecting would empty the accumulated set (an intermittent or
    /// disjoint observation), the accumulated set is kept unchanged — the
    /// fault is expected to reappear.
    pub fn feed(&mut self, devices: &BTreeSet<DeviceId>) {
        if devices.is_empty() {
            return;
        }
        self.rounds += 1;
        match &mut self.accumulated {
            None => self.accumulated = Some(devices.clone()),
            Some(acc) => {
                let intersection: BTreeSet<DeviceId> = acc.intersection(devices).copied().collect();
                if !intersection.is_empty() {
                    *acc = intersection;
                }
            }
        }
    }

    /// The current intersection.
    pub fn current(&self) -> Option<&BTreeSet<DeviceId>> {
        self.accumulated.as_ref()
    }

    /// Number of non-empty sets fed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the intersection has narrowed to at most `num_thre` devices.
    pub fn converged(&self, num_thre: usize) -> bool {
        self.accumulated
            .as_ref()
            .is_some_and(|acc| acc.len() <= num_thre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::ThresholdTrainer;
    use crate::bitset::BitSet;
    use crate::config::DiceConfig;
    use crate::detect::Detector;
    use crate::extract::ModelBuilder;
    use dice_types::{DeviceRegistry, Event, Room, SensorId, SensorKind, SensorReading, Timestamp};

    /// Three binary sensors; training shows G0={s0,s1}, G1={s2}, G2={} with
    /// transitions G0->G1->G2->G0.
    fn trained() -> DiceModel {
        let mut reg = DeviceRegistry::new();
        let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
        let s1 = reg.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
        let s2 = reg.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
        let config = DiceConfig::builder().min_row_support(1).build();
        let mut builder =
            ModelBuilder::new(config, &reg, ThresholdTrainer::new(&reg).finish()).unwrap();
        for round in 0..6 {
            let minute = round as i64;
            let start = Timestamp::from_mins(minute);
            let end = Timestamp::from_mins(minute + 1);
            let mut events: Vec<Event> = Vec::new();
            match round % 3 {
                0 => {
                    events.push(SensorReading::new(s0, start, true.into()).into());
                    events.push(SensorReading::new(s1, start, true.into()).into());
                }
                1 => events.push(SensorReading::new(s2, start, true.into()).into()),
                _ => {}
            }
            builder.observe_window(start, end, &events);
        }
        builder.finish().unwrap()
    }

    fn obs(bits: &[usize]) -> WindowObservation {
        WindowObservation {
            start: Timestamp::ZERO,
            end: Timestamp::from_mins(1),
            state: BitSet::from_indices(3, bits.iter().copied()),
            activated_actuators: vec![],
        }
    }

    #[test]
    fn correlation_identification_diffs_candidates() {
        let model = trained();
        let detector = Detector::new(&model);
        let identifier = Identifier::new(&model);
        // Fail-stop of s1: observe {s0} instead of G0={s0,s1}.
        let o = obs(&[0]);
        let result = detector.check(None, &o);
        let probable = identifier.probable_devices(None, &o, &result);
        // Candidates within distance 1: G0 (diff {s1}) and G2={} (diff {s0}).
        assert!(probable
            .devices
            .contains(&DeviceId::Sensor(SensorId::new(1))));
        assert!(probable
            .devices
            .contains(&DeviceId::Sensor(SensorId::new(0))));
        assert_eq!(probable.len(), 2);
    }

    #[test]
    fn prev_group_prunes_probable_groups() {
        let model = trained();
        let detector = Detector::new(&model);
        let identifier = Identifier::new(&model);
        let o = obs(&[0]);
        let result = detector.check(None, &o);
        // Previous group was G2 (empty). Legal successor is only G0, so the
        // G2 candidate (reachable only from G1) is pruned and the diff
        // narrows to {s1}.
        let prev = PrevWindow {
            group: GroupId::new(2),
            exact: true,
            activated_actuators: vec![],
        };
        let probable = identifier.probable_devices(Some(&prev), &o, &result);
        assert_eq!(
            probable.devices.into_iter().collect::<Vec<_>>(),
            vec![DeviceId::Sensor(SensorId::new(1))]
        );
    }

    #[test]
    fn g2g_violation_diffs_against_legal_successors() {
        let model = trained();
        let detector = Detector::new(&model);
        let identifier = Identifier::new(&model);
        // Prev = G0; current = G0 again (never seen: G0 -> G1 only).
        let o = obs(&[0, 1]);
        let prev = PrevWindow {
            group: GroupId::new(0),
            exact: true,
            activated_actuators: vec![],
        };
        let result = detector.check(Some(&prev), &o);
        assert!(result.is_violation());
        let probable = identifier.probable_devices(Some(&prev), &o, &result);
        // Legal successor of G0 is G1={s2}; diff {s0,s1} vs {s2} -> all three.
        assert!(!probable.is_empty());
        assert!(probable
            .devices
            .contains(&DeviceId::Sensor(SensorId::new(2))));
    }

    #[test]
    fn normal_result_yields_empty_set() {
        let model = trained();
        let detector = Detector::new(&model);
        let identifier = Identifier::new(&model);
        let o = obs(&[0, 1]);
        let result = detector.check(None, &o);
        assert!(!result.is_violation());
        assert!(identifier.probable_devices(None, &o, &result).is_empty());
    }

    #[test]
    fn intersection_tracker_follows_paper_example() {
        // {S1,S2,S3} ∩ {S1,S2,S4} ∩ {S1,S5,S6} = {S1}.
        let sets: Vec<BTreeSet<DeviceId>> = vec![
            [1, 2, 3]
                .iter()
                .map(|&i| DeviceId::Sensor(SensorId::new(i)))
                .collect(),
            [1, 2, 4]
                .iter()
                .map(|&i| DeviceId::Sensor(SensorId::new(i)))
                .collect(),
            [1, 5, 6]
                .iter()
                .map(|&i| DeviceId::Sensor(SensorId::new(i)))
                .collect(),
        ];
        let mut tracker = IntersectionTracker::new();
        tracker.feed(&sets[0]);
        assert!(!tracker.converged(1));
        tracker.feed(&sets[1]);
        assert!(!tracker.converged(1));
        tracker.feed(&sets[2]);
        assert!(tracker.converged(1));
        let result: Vec<DeviceId> = tracker.current().unwrap().iter().copied().collect();
        assert_eq!(result, vec![DeviceId::Sensor(SensorId::new(1))]);
        assert_eq!(tracker.rounds(), 3);
    }

    #[test]
    fn intersection_tracker_ignores_empty_and_disjoint_sets() {
        let a: BTreeSet<DeviceId> = [DeviceId::Sensor(SensorId::new(1))].into_iter().collect();
        let b: BTreeSet<DeviceId> = [DeviceId::Sensor(SensorId::new(9))].into_iter().collect();
        let mut tracker = IntersectionTracker::new();
        tracker.feed(&BTreeSet::new());
        assert_eq!(tracker.rounds(), 0);
        tracker.feed(&a);
        tracker.feed(&b); // disjoint: accumulated set kept
        assert_eq!(tracker.current().unwrap(), &a);
    }

    #[test]
    fn converged_with_num_thre_three() {
        let set: BTreeSet<DeviceId> = (0..3).map(|i| DeviceId::Sensor(SensorId::new(i))).collect();
        let mut tracker = IntersectionTracker::new();
        tracker.feed(&set);
        assert!(!tracker.converged(1));
        assert!(tracker.converged(3));
    }
}
