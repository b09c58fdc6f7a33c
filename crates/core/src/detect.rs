//! Real-time detection: the correlation check and the transition check.
//!
//! The correlation check (Section 3.3.1, Figure 3.5) searches the group table
//! for a main group; its absence is a correlation violation. The transition
//! check (Section 3.3.2, Figure 3.6) tests the three zero-probability cases
//! against the G2G, G2A, and A2G matrices.

use std::fmt;

use serde::{Deserialize, Serialize};

use dice_types::{ActuatorId, GroupId};

use crate::binarize::WindowObservation;
use crate::groups::Candidate;
use crate::model::DiceModel;
use crate::scan::ScanProfile;

/// Which real-time check detected a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CheckKind {
    /// The correlation check (missing main group).
    Correlation,
    /// The transition check (zero-probability transition).
    Transition,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckKind::Correlation => write!(f, "correlation"),
            CheckKind::Transition => write!(f, "transition"),
        }
    }
}

/// One zero-probability transition found by the transition check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionCase {
    /// Case 1: `P(current group | previous group) = 0` in G2G.
    G2G {
        /// The previous window's group.
        from: GroupId,
        /// The current window's group.
        to: GroupId,
    },
    /// Case 2: `P(actuator | previous group) = 0` in G2A.
    G2A {
        /// The previous window's group.
        from: GroupId,
        /// The actuator that activated in the current window.
        actuator: ActuatorId,
    },
    /// Case 3: `P(current group | actuator) = 0` in A2G.
    A2G {
        /// The actuator that activated in the previous window.
        actuator: ActuatorId,
        /// The current window's group.
        to: GroupId,
    },
}

impl fmt::Display for TransitionCase {
    /// Renders the conditional probability that was consulted, e.g.
    /// `P(G4 | G1)` for a G2G case.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionCase::G2G { from, to } => write!(f, "P({to} | {from})"),
            TransitionCase::G2A { from, actuator } => write!(f, "P({actuator} | {from})"),
            TransitionCase::A2G { actuator, to } => write!(f, "P({to} | {actuator})"),
        }
    }
}

/// Summary of the previous window that the transition check needs: its group
/// (main group if one existed, else the nearest group) and its actuator
/// activations.
#[derive(Debug, Clone, PartialEq)]
pub struct PrevWindow {
    /// The previous window's group.
    pub group: GroupId,
    /// Whether that group was an exact (main-group) match.
    pub exact: bool,
    /// Actuators that activated in the previous window.
    pub activated_actuators: Vec<ActuatorId>,
}

impl PrevWindow {
    /// Advances `prev` past a checked window: its group becomes the main
    /// group when one matched, else the first candidate as an inexact
    /// stand-in. A correlation violation's candidate list already holds the
    /// nearest group(s) when the threshold admitted none (see
    /// [`Detector::violation_candidates_into`]), so nothing is rescanned.
    /// Reuses the existing summary's actuator buffer.
    pub fn advance(prev: &mut Option<PrevWindow>, obs: &WindowObservation, result: &CheckResult) {
        let (group, exact) = match result {
            CheckResult::Normal { group } | CheckResult::TransitionViolation { group, .. } => {
                (*group, true)
            }
            CheckResult::CorrelationViolation { candidates } => (
                candidates.first().map_or(GroupId::new(0), |c| c.group),
                false,
            ),
        };
        match prev {
            Some(prev) => {
                prev.group = group;
                prev.exact = exact;
                prev.activated_actuators.clear();
                prev.activated_actuators
                    .extend_from_slice(&obs.activated_actuators);
            }
            None => {
                *prev = Some(PrevWindow {
                    group,
                    exact,
                    activated_actuators: obs.activated_actuators.clone(),
                });
            }
        }
    }
}

/// The outcome of running both real-time checks on one window.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckResult {
    /// A main group exists and all transitions have been seen before.
    Normal {
        /// The matched main group.
        group: GroupId,
    },
    /// No main group within the group table: a correlation violation.
    CorrelationViolation {
        /// Candidate groups within the fault-distance threshold (none of
        /// them at distance zero), ascending by distance. When the
        /// threshold admits none — a grossly corrupted state set — the
        /// nearest group(s) stand in, so downstream consumers always see
        /// the groups identification will diff against (see
        /// [`Detector::violation_candidates_into`]).
        candidates: Vec<Candidate>,
    },
    /// A main group exists but at least one transition has zero probability.
    TransitionViolation {
        /// The matched main group.
        group: GroupId,
        /// Every zero-probability case found (at least one).
        cases: Vec<TransitionCase>,
    },
}

impl CheckResult {
    /// Whether this result is a violation of either kind.
    pub fn is_violation(&self) -> bool {
        !matches!(self, CheckResult::Normal { .. })
    }

    /// The check that produced the violation, if any.
    pub fn violated_check(&self) -> Option<CheckKind> {
        match self {
            CheckResult::Normal { .. } => None,
            CheckResult::CorrelationViolation { .. } => Some(CheckKind::Correlation),
            CheckResult::TransitionViolation { .. } => Some(CheckKind::Transition),
        }
    }
}

/// Runs the correlation and transition checks against a trained model.
#[derive(Debug, Clone, Copy)]
pub struct Detector<'m> {
    model: &'m DiceModel,
}

impl<'m> Detector<'m> {
    /// Creates a detector over `model`.
    pub fn new(model: &'m DiceModel) -> Self {
        Detector { model }
    }

    /// The model in use.
    pub fn model(&self) -> &'m DiceModel {
        self.model
    }

    /// The correlation check: exact main-group lookup.
    pub fn correlation_check(&self, obs: &WindowObservation) -> Option<GroupId> {
        self.model.groups().lookup(&obs.state)
    }

    /// Fills `out` with a violating window's candidate groups: every group
    /// within the model's candidate distance of `obs`'s state set, sorted
    /// by `(distance, group)`, or — when none is within the threshold — the
    /// nearest group(s). Returns the scan work of both steps.
    pub fn violation_candidates_into(
        &self,
        obs: &WindowObservation,
        out: &mut Vec<Candidate>,
    ) -> ScanProfile {
        let scan = self.model.scan();
        let mut profile = scan.candidates_into(&obs.state, self.model.candidate_distance(), out);
        if out.is_empty() {
            profile.absorb(scan.nearest_into(&obs.state, out));
        }
        profile
    }

    /// The transition check: tests cases 1–3 for the current window given
    /// the previous window's summary.
    ///
    /// A zero-probability transition only counts as a violation when its row
    /// carries at least `min_row_support` observations: a Markov row seen a
    /// handful of times asserts nothing about which successors are
    /// impossible.
    pub fn transition_check(
        &self,
        prev: &PrevWindow,
        group: GroupId,
        obs: &WindowObservation,
    ) -> Vec<TransitionCase> {
        let transitions = self.model.transitions();
        let support = self.model.config().min_row_support();
        let mut cases = Vec::new();

        // Cases 1 and 2 are only meaningful when the previous window matched
        // a group exactly (distances computed against a nearest-group
        // stand-in would make most transitions look illegal), and both need
        // the previous group's row to carry support.
        let prev_row_supported =
            prev.exact && transitions.g2g_row_support(prev.group) >= support.max(1);

        // Case 1: G2G.
        if prev_row_supported && !transitions.g2g_observed(prev.group, group) {
            cases.push(TransitionCase::G2G {
                from: prev.group,
                to: group,
            });
        }

        // Case 2: G2A. Every actuator activation in this window must have
        // been seen following the previous group.
        if prev_row_supported {
            for &actuator in &obs.activated_actuators {
                if !transitions.g2a_observed(prev.group, actuator) {
                    cases.push(TransitionCase::G2A {
                        from: prev.group,
                        actuator,
                    });
                }
            }
        }

        // Case 3: A2G. Every actuator activation in the previous window must
        // have been seen preceding the current group.
        for &actuator in &prev.activated_actuators {
            if transitions.a2g_row_total(actuator) >= support.max(1)
                && !transitions.a2g_observed(actuator, group)
            {
                cases.push(TransitionCase::A2G {
                    actuator,
                    to: group,
                });
            }
        }

        cases
    }

    /// Runs the full per-window check pipeline: correlation first, then — if
    /// a main group exists — the transition check.
    pub fn check(&self, prev: Option<&PrevWindow>, obs: &WindowObservation) -> CheckResult {
        match self.correlation_check(obs) {
            None => {
                let mut candidates = Vec::new();
                let _ = self.violation_candidates_into(obs, &mut candidates);
                CheckResult::CorrelationViolation { candidates }
            }
            Some(group) => {
                let cases = match prev {
                    Some(prev) => self.transition_check(prev, group, obs),
                    None => Vec::new(),
                };
                if cases.is_empty() {
                    CheckResult::Normal { group }
                } else {
                    CheckResult::TransitionViolation { group, cases }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::{Binarizer, ThresholdTrainer};
    use crate::bitset::BitSet;
    use crate::config::DiceConfig;
    use crate::extract::ModelBuilder;
    use crate::layout::BitLayout;
    use dice_types::{
        ActuatorEvent, ActuatorKind, DeviceRegistry, Event, Room, SensorKind, SensorReading,
        Timestamp,
    };

    /// Two motion sensors + one bulb. Training alternates:
    /// G0 = {m0}, G1 = {m1}, bulb turns on in every G1 window.
    fn trained() -> (DiceModel, DeviceRegistry) {
        // Tiny fixture: lower the row-support gate so the transition check
        // is active despite the short training run.
        trained_with(DiceConfig::builder().min_row_support(1).build())
    }

    fn trained_with(config: DiceConfig) -> (DiceModel, DeviceRegistry) {
        let mut reg = DeviceRegistry::new();
        let m0 = reg.add_sensor(SensorKind::Motion, "m0", Room::Kitchen);
        let m1 = reg.add_sensor(SensorKind::Motion, "m1", Room::Bedroom);
        let bulb = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Bedroom);
        let mut builder =
            ModelBuilder::new(config, &reg, ThresholdTrainer::new(&reg).finish()).unwrap();
        for minute in 0..20 {
            let start = Timestamp::from_mins(minute);
            let end = Timestamp::from_mins(minute + 1);
            let mut events: Vec<Event> = Vec::new();
            if minute % 2 == 0 {
                events.push(SensorReading::new(m0, start, true.into()).into());
            } else {
                events.push(SensorReading::new(m1, start, true.into()).into());
                events.push(ActuatorEvent::new(bulb, start, true).into());
            }
            builder.observe_window(start, end, &events);
        }
        (builder.finish().unwrap(), reg)
    }

    fn obs(state: BitSet, actuators: Vec<dice_types::ActuatorId>) -> WindowObservation {
        WindowObservation {
            start: Timestamp::ZERO,
            end: Timestamp::from_mins(1),
            state,
            activated_actuators: actuators,
        }
    }

    #[test]
    fn known_state_passes_both_checks() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let g0 = obs(BitSet::from_indices(2, [0]), vec![]);
        let prev = PrevWindow {
            group: dice_types::GroupId::new(1),
            exact: true,
            activated_actuators: vec![dice_types::ActuatorId::new(0)],
        };
        let result = detector.check(Some(&prev), &g0);
        assert_eq!(
            result,
            CheckResult::Normal {
                group: dice_types::GroupId::new(0)
            }
        );
        assert!(!result.is_violation());
    }

    #[test]
    fn unknown_state_is_correlation_violation() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        // Both motions active at once was never observed.
        let both = obs(BitSet::from_indices(2, [0, 1]), vec![]);
        let result = detector.check(None, &both);
        match &result {
            CheckResult::CorrelationViolation { candidates } => {
                // Both G0 and G1 are at distance 1.
                assert_eq!(candidates.len(), 2);
                assert!(candidates.iter().all(|c| c.distance == 1));
            }
            other => panic!("expected correlation violation, got {other:?}"),
        }
        assert_eq!(result.violated_check(), Some(CheckKind::Correlation));
    }

    #[test]
    fn correlation_violation_out_of_range_lists_the_nearest_groups() {
        // A zero threshold admits no group for a state that matches none.
        let (model, _) = trained_with(DiceConfig::builder().candidate_distance(0).build());
        assert_eq!(model.candidate_distance(), 0);
        let detector = Detector::new(&model);
        let both = obs(BitSet::from_indices(2, [0, 1]), vec![]);
        assert!(model.scan().candidates(&both.state, 0).is_empty());
        match detector.check(None, &both) {
            CheckResult::CorrelationViolation { candidates } => {
                assert_eq!(candidates, model.scan().nearest(&both.state));
                assert_eq!(candidates.len(), 2);
                assert!(candidates.iter().all(|c| c.distance == 1));
            }
            other => panic!("expected correlation violation, got {other:?}"),
        }
    }

    #[test]
    fn advancing_prev_follows_the_verdict() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let bulb = dice_types::ActuatorId::new(0);
        let mut prev = None;
        let g1 = obs(BitSet::from_indices(2, [1]), vec![bulb]);
        PrevWindow::advance(&mut prev, &g1, &detector.check(None, &g1));
        assert_eq!(
            prev,
            Some(PrevWindow {
                group: GroupId::new(1),
                exact: true,
                activated_actuators: vec![bulb],
            })
        );
        // A correlation violation leaves its first candidate as an inexact
        // stand-in.
        let both = obs(BitSet::from_indices(2, [0, 1]), vec![]);
        let result = detector.check(prev.as_ref(), &both);
        PrevWindow::advance(&mut prev, &both, &result);
        assert_eq!(
            prev,
            Some(PrevWindow {
                group: GroupId::new(0),
                exact: false,
                activated_actuators: vec![],
            })
        );
    }

    #[test]
    fn illegal_g2g_is_transition_violation() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        // G0 -> G0 never happened (training strictly alternates).
        let g0 = obs(BitSet::from_indices(2, [0]), vec![]);
        let prev = PrevWindow {
            group: dice_types::GroupId::new(0),
            exact: true,
            activated_actuators: vec![],
        };
        let result = detector.check(Some(&prev), &g0);
        match result {
            CheckResult::TransitionViolation { group, cases } => {
                assert_eq!(group, dice_types::GroupId::new(0));
                assert_eq!(
                    cases,
                    vec![TransitionCase::G2G {
                        from: dice_types::GroupId::new(0),
                        to: dice_types::GroupId::new(0),
                    }]
                );
            }
            other => panic!("expected transition violation, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_actuator_is_g2a_violation() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let bulb = dice_types::ActuatorId::new(0);
        // Bulb turning on after a G0 window was never seen (only after G1... actually
        // training records G2A from the *previous* group; bulb activated during G1
        // windows, so G2A has (G0 -> bulb) recorded. Use prev = G1 instead.
        let g0 = obs(BitSet::from_indices(2, [0]), vec![bulb]);
        let prev = PrevWindow {
            group: dice_types::GroupId::new(1),
            exact: true,
            activated_actuators: vec![bulb],
        };
        let result = detector.check(Some(&prev), &g0);
        match result {
            CheckResult::TransitionViolation { cases, .. } => {
                assert!(cases.contains(&TransitionCase::G2A {
                    from: dice_types::GroupId::new(1),
                    actuator: bulb,
                }));
            }
            other => panic!("expected transition violation, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_group_after_actuator_is_a2g_violation() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let bulb = dice_types::ActuatorId::new(0);
        // After a bulb activation the home always went to G0; claim it went to G1.
        let g1 = obs(BitSet::from_indices(2, [1]), vec![]);
        let prev = PrevWindow {
            group: dice_types::GroupId::new(0),
            exact: true,
            activated_actuators: vec![bulb],
        };
        let result = detector.check(Some(&prev), &g1);
        match result {
            CheckResult::TransitionViolation { cases, .. } => {
                assert!(cases.iter().any(
                    |c| matches!(c, TransitionCase::A2G { actuator, .. } if *actuator == bulb)
                ));
            }
            other => panic!("expected transition violation, got {other:?}"),
        }
    }

    #[test]
    fn first_window_skips_transition_check() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let g0 = obs(BitSet::from_indices(2, [0]), vec![]);
        assert!(!detector.check(None, &g0).is_violation());
    }

    #[test]
    fn inexact_prev_group_skips_g2g_and_g2a() {
        let (model, _) = trained();
        let detector = Detector::new(&model);
        let g0 = obs(BitSet::from_indices(2, [0]), vec![]);
        let prev = PrevWindow {
            group: dice_types::GroupId::new(0),
            exact: false,
            activated_actuators: vec![],
        };
        // G0 -> G0 would be a violation with exact prev, but inexact prevs
        // are stand-ins and do not trigger case 1.
        assert!(!detector.check(Some(&prev), &g0).is_violation());
    }

    #[test]
    fn check_kind_displays() {
        assert_eq!(CheckKind::Correlation.to_string(), "correlation");
        assert_eq!(CheckKind::Transition.to_string(), "transition");
    }

    #[test]
    fn binarizer_integration_round_trip() {
        // End-to-end: raw events -> binarize -> detect.
        let (model, reg) = trained();
        let detector = Detector::new(&model);
        let layout = BitLayout::for_registry(&reg);
        let binarizer = Binarizer::new(layout, ThresholdTrainer::new(&reg).finish());
        let events = [Event::from(SensorReading::new(
            dice_types::SensorId::new(0),
            Timestamp::from_secs(5),
            true.into(),
        ))];
        let obs = binarizer.binarize(Timestamp::ZERO, Timestamp::from_mins(1), &events);
        assert!(!detector.check(None, &obs).is_violation());
    }
}
