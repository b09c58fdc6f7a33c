//! The aggregator-to-gateway hand-off allocates nothing in steady state:
//! encoding an event frame, moving it through a bounded channel, and
//! decoding it on the gateway thread never touch the heap once the
//! channel's buffers are warm. Property checks pin the inline frame to the
//! packed wire layout and keep its decoder panic-free.
#![allow(unsafe_code)] // the counting global allocator below

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::BytesMut;
use crossbeam::channel::bounded;
use dice_gateway::{decode_event, encode_event, encode_event_into, EventFrame};
use dice_types::{ActuatorEvent, ActuatorId, Event, SensorId, SensorReading, Timestamp};
use proptest::prelude::*;

/// Counts heap allocations made by threads that opted in, so tests running
/// in parallel in this binary do not pollute the count.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Event `i` of a stream cycling through all three frame kinds.
fn event(i: usize) -> Event {
    let at = Timestamp::from_secs(i as i64);
    let id = (i % 97) as u32;
    match i % 3 {
        0 => Event::Sensor(SensorReading::new(
            SensorId::new(id),
            at,
            i.is_multiple_of(2).into(),
        )),
        1 => Event::Sensor(SensorReading::new(
            SensorId::new(id),
            at,
            (i as f64 * 0.25).into(),
        )),
        _ => Event::Actuator(ActuatorEvent::new(
            ActuatorId::new(id),
            at,
            !i.is_multiple_of(2),
        )),
    }
}

#[test]
fn warm_gateway_handoff_allocates_nothing() {
    const CAPACITY: usize = 64;
    const EVENTS: usize = 20_000;
    let (tx, rx) = bounded(CAPACITY);
    // Warm-up: fill the queue to capacity and drain it twice, so both of
    // the channel's buffers (the shared queue and the receiver's local one
    // swap on every drain) have grown to hold a full queue.
    for _ in 0..2 {
        for i in 0..CAPACITY {
            tx.send(encode_event(&event(i))).unwrap();
        }
        for i in 0..CAPACITY {
            assert_eq!(decode_event(rx.recv().unwrap()), Ok(event(i)));
        }
    }

    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            COUNTED.with(|c| c.set(true));
            for i in 0..EVENTS {
                tx.send(encode_event(&event(i))).unwrap();
            }
            COUNTED.with(|c| c.set(false));
        });
        COUNTED.with(|c| c.set(true));
        for i in 0..EVENTS {
            let frame = rx.recv().expect("the producer sends every event");
            assert_eq!(decode_event(frame), Ok(event(i)));
        }
        COUNTED.with(|c| c.set(false));
        producer.join().expect("producer thread panicked");
    });
    assert!(rx.recv().is_err(), "the producer hung up");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        allocations, 0,
        "a warm hand-off must not allocate ({allocations} allocations over {EVENTS} events)"
    );
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (
        0u8..3,
        any::<u32>(),
        -1_000_000_000i64..1_000_000_000i64,
        any::<bool>(),
        -1.0e12f64..1.0e12,
    )
        .prop_map(|(tag, id, secs, b, v)| {
            let at = Timestamp::from_secs(secs);
            match tag {
                0 => Event::Sensor(SensorReading::new(SensorId::new(id), at, b.into())),
                1 => Event::Sensor(SensorReading::new(SensorId::new(id), at, v.into())),
                _ => Event::Actuator(ActuatorEvent::new(ActuatorId::new(id), at, b)),
            }
        })
}

proptest! {
    /// The inline frame carries exactly the packed encoder's bytes, and
    /// those bytes decode back to the event.
    #[test]
    fn inline_frames_match_the_packed_layout(event in event_strategy()) {
        let frame = encode_event(&event);
        let mut packed = BytesMut::new();
        encode_event_into(&event, &mut packed);
        prop_assert_eq!(frame.as_slice(), &packed[..]);
        prop_assert_eq!(decode_event(EventFrame::from_slice(&packed)), Ok(event));
    }

    /// Any raw frame up to the maximum length decodes to an event or an
    /// error, never a panic. The first byte is biased toward the valid
    /// tags so the payload checks are reached, not just the tag check.
    #[test]
    fn raw_frames_never_panic_the_decoder(
        tag in 0u8..6,
        data in prop::collection::vec(any::<u8>(), 0..=EventFrame::MAX_LEN),
    ) {
        let mut data = data;
        if let (Some(first), 1..=3) = (data.first_mut(), tag) {
            *first = tag;
        }
        let _ = decode_event(EventFrame::from_slice(&data));
    }
}
