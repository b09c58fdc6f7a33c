//! The two serving rules every serving path shares: how a home's event
//! stream is cut into windows, and which fault reports reach the user.
//!
//! [`HomeGateway`](crate::HomeGateway) and the fleet shard each keep their
//! own serve loop (channels, metrics, batching), but both call these types,
//! so the window boundaries and the alarm cooldown live in one place.

use std::collections::BTreeMap;

use dice_core::FaultReport;
use dice_types::{DeviceId, TimeDelta, Timestamp};

/// Cuts one home's event stream over `[from, to)` into duration-`window`
/// windows (paper §3, Fig. 3.1).
///
/// The first window opens at `from` aligned down to the window grid. An
/// event closes every full window it has passed; a late event (earlier
/// than the open window's start) closes nothing and joins the open
/// window. At the end of the stream the remaining windows close, the last
/// one clipped to `to`.
#[derive(Debug, Clone)]
pub struct WindowClock {
    window: TimeDelta,
    from: Timestamp,
    to: Timestamp,
    start: Timestamp,
}

impl WindowClock {
    /// A clock over `[from, to)` with windows of duration `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: TimeDelta, from: Timestamp, to: Timestamp) -> Self {
        WindowClock {
            window,
            from,
            to,
            start: from.align_down(window),
        }
    }

    /// Whether an event at `at` lies in the monitored range `[from, to)`;
    /// events outside it are dropped before they reach a window.
    #[inline]
    pub fn admits(&self, at: Timestamp) -> bool {
        at >= self.from && at < self.to
    }

    /// Closes the next full window an event at `at` has passed, returning
    /// its `(start, end)`. Call until it returns `None`, then add the event
    /// to the open window.
    #[inline]
    pub fn close_passed(&mut self, at: Timestamp) -> Option<(Timestamp, Timestamp)> {
        let end = self.start + self.window;
        (at >= end).then(|| self.advance(end))
    }

    /// Closes the next window left open at the end of the stream, the last
    /// one clipped to `to`. Call until it returns `None`.
    #[inline]
    pub fn close_remaining(&mut self) -> Option<(Timestamp, Timestamp)> {
        (self.start < self.to).then(|| self.advance((self.start + self.window).min(self.to)))
    }

    #[inline]
    fn advance(&mut self, end: Timestamp) -> (Timestamp, Timestamp) {
        let start = std::mem::replace(&mut self.start, end);
        (start, end)
    }
}

/// One home's alarm cooldown: an ongoing fault keeps violating until the
/// device is fixed, but the user needs one alarm, not one per window.
///
/// A report is admitted when it names a device that has not alarmed
/// within the cooldown, or names no device at all. Devices are stamped
/// only when a report is admitted, so a suppressed repeat never extends
/// the cooldown.
#[derive(Debug, Clone)]
pub struct AlarmLedger {
    cooldown: TimeDelta,
    last_alarmed: BTreeMap<DeviceId, Timestamp>,
}

impl AlarmLedger {
    /// An empty ledger with the given cooldown.
    pub fn new(cooldown: TimeDelta) -> Self {
        AlarmLedger {
            cooldown,
            last_alarmed: BTreeMap::new(),
        }
    }

    /// Whether `report` should be delivered; when it is, its devices are
    /// stamped with its identification time.
    #[inline]
    pub fn admit(&mut self, report: &FaultReport) -> bool {
        let now = report.identified_at;
        let fresh = report.devices.is_empty()
            || report.devices.iter().any(|d| {
                self.last_alarmed
                    .get(d)
                    .is_none_or(|&at| now - at > self.cooldown)
            });
        if fresh {
            for &d in &report.devices {
                self.last_alarmed.insert(d, now);
            }
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::SensorId;

    fn mins(m: i64) -> Timestamp {
        Timestamp::from_mins(m)
    }

    fn drain_passed(clock: &mut WindowClock, at: Timestamp) -> Vec<(Timestamp, Timestamp)> {
        std::iter::from_fn(|| clock.close_passed(at)).collect()
    }

    #[test]
    fn windows_open_on_the_grid_and_the_tail_is_clipped() {
        let from = mins(2) + TimeDelta::from_secs(30);
        let to = mins(5) + TimeDelta::from_secs(10);
        let mut clock = WindowClock::new(TimeDelta::from_mins(1), from, to);
        assert!(!clock.admits(mins(2)));
        assert!(clock.admits(from));
        assert!(!clock.admits(to));
        // An event in the first window closes nothing; one two windows on
        // closes both passed windows.
        assert!(drain_passed(&mut clock, from).is_empty());
        assert_eq!(
            drain_passed(&mut clock, mins(4)),
            [(mins(2), mins(3)), (mins(3), mins(4))]
        );
        let tail: Vec<_> = std::iter::from_fn(|| clock.close_remaining()).collect();
        assert_eq!(tail, [(mins(4), mins(5)), (mins(5), to)]);
    }

    #[test]
    fn late_events_stay_in_the_open_window() {
        let mut clock = WindowClock::new(TimeDelta::from_mins(1), mins(0), mins(10));
        assert_eq!(drain_passed(&mut clock, mins(3)).len(), 3);
        assert!(drain_passed(&mut clock, mins(1)).is_empty());
        assert_eq!(drain_passed(&mut clock, mins(4)), [(mins(3), mins(4))]);
    }

    fn report(at: i64, devices: &[u32]) -> FaultReport {
        FaultReport {
            detected_at: mins(at),
            identified_at: mins(at),
            detected_by: dice_core::CheckKind::Correlation,
            devices: devices
                .iter()
                .map(|&i| DeviceId::Sensor(SensorId::new(i)))
                .collect(),
            conclusive: true,
            windows_examined: 1,
            detail: None,
            evidence: Vec::new(),
            lineage: None,
        }
    }

    #[test]
    fn ledger_suppresses_repeats_within_the_cooldown() {
        let mut ledger = AlarmLedger::new(TimeDelta::from_mins(60));
        assert!(ledger.admit(&report(0, &[1])));
        assert!(!ledger.admit(&report(30, &[1])));
        // A new device makes the report fresh and restamps both.
        assert!(ledger.admit(&report(40, &[1, 2])));
        assert!(!ledger.admit(&report(90, &[1])));
        assert!(ledger.admit(&report(101, &[1])));
        // A report naming no device is always delivered.
        assert!(ledger.admit(&report(102, &[])));
        assert!(ledger.admit(&report(102, &[])));
    }

    #[test]
    fn suppressed_reports_do_not_extend_the_cooldown() {
        let mut ledger = AlarmLedger::new(TimeDelta::from_mins(60));
        assert!(ledger.admit(&report(0, &[1])));
        assert!(!ledger.admit(&report(59, &[1])));
        assert!(ledger.admit(&report(61, &[1])));
    }
}
