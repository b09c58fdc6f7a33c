//! Aggregator nodes: the Raspberry-Pi stand-ins.
//!
//! Each aggregator owns a subset of the home's devices and forwards their
//! events to the gateway as encoded frames over a channel, in time order.

use std::thread::JoinHandle;

use crossbeam::channel::Sender;

use dice_types::{DeviceId, Event};

use crate::message::{encode_event, EventFrame};

/// Spawns an aggregator thread that encodes and forwards `events` (already
/// time-ordered) and then hangs up by dropping its sender.
///
/// Returns the join handle; the thread ends when all events are sent or the
/// receiving side disconnects.
pub fn spawn_aggregator(
    name: impl Into<String>,
    events: Vec<Event>,
    tx: Sender<EventFrame>,
) -> JoinHandle<()> {
    let name = name.into();
    // Audited: aggregator threads model independent device streams; the
    // gateway's k-way merge re-imposes time order downstream.
    // lint-src: allow(thread-spawn)
    std::thread::Builder::new()
        .name(format!("aggregator-{name}"))
        .spawn(move || {
            for event in &events {
                if tx.send(encode_event(event)).is_err() {
                    return; // gateway hung up
                }
            }
        })
        .expect("spawning an aggregator thread")
}

/// Partitions events across `n` aggregators by owning device, preserving
/// time order within each partition.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn partition_by_device(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    assert!(n > 0, "need at least one aggregator");
    let mut parts = vec![Vec::new(); n];
    for event in events {
        let device = match event {
            Event::Sensor(r) => DeviceId::Sensor(r.sensor),
            Event::Actuator(a) => DeviceId::Actuator(a.actuator),
        };
        let slot = match device {
            DeviceId::Sensor(s) => s.index() % n,
            // Offset actuators so they do not all land with sensor 0.
            DeviceId::Actuator(a) => (a.index() + n / 2) % n,
        };
        parts[slot].push(*event);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use dice_types::{SensorId, SensorReading, Timestamp};

    fn reading(sensor: u32, secs: i64) -> Event {
        Event::Sensor(SensorReading::new(
            SensorId::new(sensor),
            Timestamp::from_secs(secs),
            true.into(),
        ))
    }

    #[test]
    fn partition_is_stable_and_complete() {
        let events: Vec<Event> = (0..10).map(|i| reading(i % 4, i as i64)).collect();
        let parts = partition_by_device(&events, 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 10);
        for part in &parts {
            for pair in part.windows(2) {
                assert!(
                    pair[0].at() <= pair[1].at(),
                    "per-partition order preserved"
                );
            }
        }
    }

    #[test]
    fn aggregator_sends_all_events_then_disconnects() {
        let events: Vec<Event> = (0..5).map(|i| reading(0, i)).collect();
        let (tx, rx) = unbounded();
        let handle = spawn_aggregator("test", events.clone(), tx);
        let mut received = Vec::new();
        while let Ok(frame) = rx.recv() {
            received.push(crate::message::decode_event(frame).unwrap());
        }
        handle.join().unwrap();
        assert_eq!(received, events);
    }

    #[test]
    fn aggregator_stops_when_gateway_hangs_up() {
        let events: Vec<Event> = (0..100_000).map(|i| reading(0, i)).collect();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let handle = spawn_aggregator("test", events, tx);
        let _ = rx.recv();
        drop(rx);
        handle.join().unwrap(); // must terminate promptly, not deadlock
    }

    #[test]
    #[should_panic(expected = "at least one aggregator")]
    fn partition_rejects_zero() {
        let _ = partition_by_device(&[], 0);
    }
}
