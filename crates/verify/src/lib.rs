//! Static invariant analysis for trained DICE models.
//!
//! `dice-verify` walks a [`DiceModel`] without executing it and reports
//! [`Diagnostic`]s with stable codes (`DV001`, `DV100`, ...), severities,
//! and human-readable messages. The structural checks live in
//! [`dice_core::invariants`] (so [`dice_core::read_model`] can enforce them
//! at load time without a dependency cycle); this crate adds the advisory
//! analyses — G2G reachability, candidate-distance sanity, the `DV18x`
//! transition-graph dataflow pass — plus two further static-analysis
//! layers and the `dice-lint` CLI:
//!
//! * [`artifacts`] — cross-artifact compatibility (`DV19x`): fingerprints
//!   models, config files, trace headers, telemetry snapshots, and dataset
//!   catalog entries, and flags every mismatched pair.
//! * [`lint_src`] — the workspace determinism lint: a source scanner that
//!   denies nondeterminism-prone constructs (unordered parallelism, hashed
//!   iteration, wall-clock reads, naive float accumulation) outside their
//!   sanctioned homes.
//! * [`metric_catalog`] — catalog-coverage (`DV200`): cross-checks the
//!   runtime metric catalog against the DESIGN.md §5e table in both
//!   directions, so metrics cannot ship undocumented.
//!
//! Two model entry points, coarsest to finest:
//!
//! * [`verify_reader`] — decode a serialized model and verify it; decode
//!   failures become a `DV001` finding instead of an error.
//! * [`verify_model`] — every check over an in-memory model.
//!
//! ```
//! use dice_core::{ContextExtractor, DiceConfig};
//! use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};
//!
//! # fn main() -> Result<(), dice_core::DiceError> {
//! # let mut reg = DeviceRegistry::new();
//! # let m = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
//! # let mut log = EventLog::new();
//! # for minute in 0..10 {
//! #     log.push_sensor(SensorReading::new(m, Timestamp::from_mins(minute), (minute % 2 == 0).into()));
//! # }
//! let model = ContextExtractor::new(DiceConfig::default()).extract(&reg, &mut log)?;
//! let findings = dice_verify::verify_model(&model);
//! assert!(!dice_verify::has_errors(&findings));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod lint_src;
pub mod metric_catalog;

use std::io::Read;

use dice_core::invariants::{check_config, check_graph_dataflow, check_model};
use dice_core::{read_model_unverified, DiceModel};

pub use dice_core::invariants::{
    check_group_merge, check_transition_merge, max_severity, ROW_SUM_EPSILON,
};
pub use dice_core::{has_errors, Diagnostic, DiagnosticCode, Severity};

/// Runs every check — structural invariants, configuration sanity, and the
/// G2G graph analyses — over an in-memory model.
///
/// Findings are sorted most severe first, then by code, so the first element
/// is always the worst problem.
pub fn verify_model(model: &DiceModel) -> Vec<Diagnostic> {
    let mut out = check_model(model);
    out.extend(check_config(model.config()));
    check_candidate_distance(model, &mut out);
    check_reachability(model, &mut out);
    out.extend(check_graph_dataflow(model));
    sort_report(&mut out);
    out
}

/// Decodes a serialized model from `reader` and verifies it.
///
/// A stream that fails to decode at all yields a single
/// [`DiagnosticCode::ContainerUnreadable`] (`DV001`) error carrying the
/// decoder's message, so callers see one uniform report type for both byte
/// damage and semantic damage.
pub fn verify_reader<R: Read>(reader: R) -> Vec<Diagnostic> {
    match read_model_unverified(reader) {
        Ok(model) => verify_model(&model),
        Err(e) => vec![Diagnostic::new(
            DiagnosticCode::ContainerUnreadable,
            format!("model container could not be decoded: {e}"),
        )],
    }
}

/// Renders findings as one line per finding, `severity: [code] message`.
///
/// Returns an empty string for an empty report.
pub fn render_report(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

fn sort_report(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        b.severity()
            .cmp(&a.severity())
            .then_with(|| a.code().code().cmp(b.code().code()))
            .then_with(|| a.message().cmp(b.message()))
    });
}

/// `DV141`: a candidate distance at or above the state-set width makes every
/// group a candidate for every observation, so the correlation check can
/// never fire and identification diffs against the entire table.
fn check_candidate_distance(model: &DiceModel, out: &mut Vec<Diagnostic>) {
    let num_bits = model.layout().total_bits();
    let distance = model.candidate_distance() as usize;
    if num_bits > 0 && distance >= num_bits {
        out.push(Diagnostic::new(
            DiagnosticCode::CandidateDistanceExceedsWidth,
            format!(
                "candidate distance {distance} covers the whole {num_bits}-bit \
                 state set; every group is always a candidate"
            ),
        ));
    }
}

/// `DV130` / `DV131`: graph-shape analysis of the G2G matrix.
///
/// * A group no other group ever transitions into is *unreachable*: the
///   engine can enter it only as a first window. One such group per
///   contiguous training segment is expected (the segment's opening window);
///   more suggest the table and matrix drifted apart.
/// * A group whose only observed successor is itself is *absorbing*: once
///   entered, every later window either matches it or raises a violation.
///
/// Both are warnings — legitimate models produce them at training-segment
/// boundaries — but they are exactly the shape damage that silent
/// table/matrix edits cause, which no purely local check catches.
fn check_reachability(model: &DiceModel, out: &mut Vec<Diagnostic>) {
    let g2g = model.transitions().g2g();
    let num_groups = model.groups().len();
    if num_groups < 2 || g2g.num_entries() == 0 {
        return; // too little structure for graph shape to mean anything
    }
    let mut has_incoming = vec![false; num_groups];
    for (from, to, _) in g2g.entries() {
        if from != to {
            if let Some(slot) = has_incoming.get_mut(to as usize) {
                *slot = true;
            }
        }
    }
    for (id, incoming) in has_incoming.iter().enumerate() {
        if !incoming {
            out.push(Diagnostic::new(
                DiagnosticCode::UnreachableGroup,
                format!(
                    "group {id} is unreachable: no other group transitions \
                     into it (benign only for the opening window of a \
                     training segment)"
                ),
            ));
        }
    }
    for id in 0..num_groups {
        let row_total = g2g.row_total(id as u32);
        let self_loops = g2g.count(id as u32, id as u32);
        if row_total > 0 && self_loops == row_total {
            out.push(Diagnostic::new(
                DiagnosticCode::AbsorbingGroup,
                format!(
                    "group {id} is absorbing: all {row_total} observed \
                     departures return to itself, so every exit will raise a \
                     transition violation"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{
        Binarizer, BitLayout, BitSet, DiceConfig, GroupTable, Thresholds, TransitionModel,
    };
    use dice_types::GroupId;

    fn model_from(
        groups: GroupTable,
        transitions: TransitionModel,
        widths: &[usize],
        training_windows: u64,
    ) -> DiceModel {
        let layout = BitLayout::from_widths(widths);
        let thresholds = Thresholds::from_values(vec![None; widths.len()]);
        DiceModel::from_parts(
            DiceConfig::default(),
            Binarizer::new(layout, thresholds),
            groups,
            transitions,
            1,
            training_windows,
        )
    }

    #[test]
    fn unreachable_group_is_warned() {
        let mut groups = GroupTable::new(2);
        groups.observe(&BitSet::from_indices(2, [0]));
        groups.observe(&BitSet::from_indices(2, [1]));
        groups.observe(&BitSet::from_indices(2, [0]));
        let mut transitions = TransitionModel::new();
        // 0 -> 0 only: group 1 has no incoming edge.
        transitions.record_g2g(GroupId::new(0), GroupId::new(0));
        let model = model_from(groups, transitions, &[1, 1], 3);
        let diags = verify_model(&model);
        assert!(diags
            .iter()
            .any(|d| d.code() == DiagnosticCode::UnreachableGroup));
        assert!(!has_errors(&diags), "graph shape findings are warnings");
    }

    #[test]
    fn absorbing_group_is_warned() {
        let mut groups = GroupTable::new(2);
        groups.observe(&BitSet::from_indices(2, [0]));
        groups.observe(&BitSet::from_indices(2, [1]));
        let mut transitions = TransitionModel::new();
        transitions.record_g2g(GroupId::new(0), GroupId::new(1));
        transitions.record_g2g(GroupId::new(1), GroupId::new(1));
        let model = model_from(groups, transitions, &[1, 1], 2);
        let diags = verify_model(&model);
        assert!(diags
            .iter()
            .any(|d| d.code() == DiagnosticCode::AbsorbingGroup));
    }

    #[test]
    fn candidate_distance_covering_all_bits_is_warned() {
        let mut groups = GroupTable::new(1);
        groups.observe(&BitSet::from_indices(1, [0]));
        let model = model_from(groups, TransitionModel::new(), &[1], 1);
        // One binary sensor: derived distance 1 == num_bits 1.
        let diags = verify_model(&model);
        assert!(diags
            .iter()
            .any(|d| d.code() == DiagnosticCode::CandidateDistanceExceedsWidth));
    }

    #[test]
    fn report_sorts_errors_first() {
        let mut groups = GroupTable::new(2);
        groups.observe(&BitSet::from_indices(2, [0]));
        groups.observe(&BitSet::from_indices(2, [1]));
        let mut transitions = TransitionModel::new();
        transitions.record_g2g(GroupId::new(0), GroupId::new(9)); // dangling
        let model = model_from(groups, transitions, &[1, 1], 2);
        let diags = verify_model(&model);
        assert!(has_errors(&diags));
        assert_eq!(diags[0].severity(), Severity::Error);
        let rendered = render_report(&diags);
        assert!(rendered.lines().next().unwrap().starts_with("error:"));
    }

    #[test]
    fn merge_conservation_checks_carry_stable_codes() {
        use dice_core::TransitionCounts;

        // A faithful merge is clean.
        let mut part = GroupTable::new(2);
        part.observe(&BitSet::from_indices(2, [0]));
        let mut merged = GroupTable::new(2);
        merged.merge(&part);
        assert!(check_group_merge(&merged, &[&part]).is_empty());

        // The same merged table against twice the parts: observations were
        // lost relative to what the parts claim (DV170).
        let diags = check_group_merge(&merged, &[&part, &part]);
        assert!(diags
            .iter()
            .any(|d| d.code() == DiagnosticCode::MergeGroupCountNotPreserved));
        assert!(has_errors(&diags));

        // A merged transition matrix that dropped a row (DV172).
        let mut part_counts = TransitionCounts::new();
        part_counts.record(0, 1);
        let empty = TransitionCounts::new();
        let diags = check_transition_merge(&empty, &[&part_counts]);
        assert!(diags
            .iter()
            .any(|d| d.code() == DiagnosticCode::MergeRowTotalMismatch));
    }

    #[test]
    fn unreadable_bytes_become_dv001() {
        let diags = verify_reader(&b"garbage"[..]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), DiagnosticCode::ContainerUnreadable);
        assert!(has_errors(&diags));
    }
}
