//! Wire format between aggregators and the gateway.
//!
//! The paper's testbed runs IoTivity/CoAP between Raspberry-Pi aggregators
//! and the home server; here the fabric is in-process, but events still
//! cross it in a compact binary frame so the gateway path exercises real
//! serialization (and so a socket transport could be dropped in without
//! touching either end).
//!
//! A frame travels as an [`EventFrame`]: the encoded bytes held inline in a
//! `Copy` value, so the aggregator-to-gateway hand-off moves 22 bytes
//! through the channel and never touches the allocator.

use bytes::{Buf, BufMut};

use dice_types::{
    ActuatorEvent, ActuatorId, Event, SensorId, SensorReading, SensorValue, Timestamp,
};

/// Frame type tags.
const TAG_BINARY: u8 = 0x01;
const TAG_NUMERIC: u8 = 0x02;
const TAG_ACTUATOR: u8 = 0x03;

/// Errors raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The buffer is shorter than the frame header requires.
    Truncated,
    /// The frame tag byte is unknown.
    UnknownTag(u8),
    /// A boolean field held a value other than 0 or 1.
    BadBool(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame is truncated"),
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::BadBool(value) => write!(f, "invalid boolean byte {value:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One event frame, its bytes held inline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    len: u8,
    bytes: [u8; EventFrame::MAX_LEN],
}

impl EventFrame {
    /// Bytes in the longest frame, a numeric reading.
    pub const MAX_LEN: usize = 1 + 4 + 8 + 8;

    /// Wraps raw frame bytes, well-formed or not; decoding validates them.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`EventFrame::MAX_LEN`].
    pub fn from_slice(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= Self::MAX_LEN,
            "an event frame holds at most {} bytes, got {}",
            Self::MAX_LEN,
            bytes.len()
        );
        let mut frame = EventFrame {
            len: bytes.len() as u8,
            bytes: [0; Self::MAX_LEN],
        };
        frame.bytes[..bytes.len()].copy_from_slice(bytes);
        frame
    }

    /// The frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for EventFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("EventFrame").field(&self.as_slice()).finish()
    }
}

/// Encodes one event into a frame.
///
/// Layout: `tag:u8, device_id:u32, at_secs:i64, payload` where the payload
/// is one byte for binary/actuator frames and an `f64` for numeric frames.
pub fn encode_event(event: &Event) -> EventFrame {
    let mut bytes = [0; EventFrame::MAX_LEN];
    let mut rest: &mut [u8] = &mut bytes;
    encode_event_into(event, &mut rest);
    let len = (EventFrame::MAX_LEN - rest.len()) as u8;
    EventFrame { len, bytes }
}

/// Appends one event's frame bytes to `buf` without allocating a new
/// buffer. [`encode_event`] writes through this function into a stack
/// slice, and the fleet frame wraps [`encode_event`]'s bytes, so every
/// event on every wire has this one layout.
pub fn encode_event_into(event: &Event, buf: &mut impl BufMut) {
    match event {
        Event::Sensor(r) => match r.value {
            SensorValue::Binary(b) => {
                buf.put_u8(TAG_BINARY);
                buf.put_u32(r.sensor.index() as u32);
                buf.put_i64(r.at.as_secs());
                buf.put_u8(u8::from(b));
            }
            SensorValue::Numeric(v) => {
                buf.put_u8(TAG_NUMERIC);
                buf.put_u32(r.sensor.index() as u32);
                buf.put_i64(r.at.as_secs());
                buf.put_f64(v);
            }
        },
        Event::Actuator(a) => {
            buf.put_u8(TAG_ACTUATOR);
            buf.put_u32(a.actuator.index() as u32);
            buf.put_i64(a.at.as_secs());
            buf.put_u8(u8::from(a.active));
        }
    }
}

/// Decodes one frame back into an event.
///
/// # Errors
///
/// Returns a [`FrameError`] for truncated or malformed frames.
pub fn decode_event(frame: EventFrame) -> Result<Event, FrameError> {
    decode_event_slice(frame.as_slice()).map(|(event, _)| event)
}

/// Decodes one event frame from the front of `bytes`, returning the event
/// and the number of bytes it consumed so callers can walk a packed batch
/// of frames.
///
/// # Errors
///
/// Returns a [`FrameError`] for truncated or malformed frames.
pub fn decode_event_slice(bytes: &[u8]) -> Result<(Event, usize), FrameError> {
    let mut frame = bytes;
    if frame.remaining() < 1 + 4 + 8 {
        return Err(FrameError::Truncated);
    }
    let tag = frame.get_u8();
    let id = frame.get_u32();
    let at = Timestamp::from_secs(frame.get_i64());
    let event = match tag {
        TAG_BINARY => {
            if frame.remaining() < 1 {
                return Err(FrameError::Truncated);
            }
            let b = match frame.get_u8() {
                0 => false,
                1 => true,
                other => return Err(FrameError::BadBool(other)),
            };
            Event::Sensor(SensorReading::new(SensorId::new(id), at, b.into()))
        }
        TAG_NUMERIC => {
            if frame.remaining() < 8 {
                return Err(FrameError::Truncated);
            }
            Event::Sensor(SensorReading::new(
                SensorId::new(id),
                at,
                frame.get_f64().into(),
            ))
        }
        TAG_ACTUATOR => {
            if frame.remaining() < 1 {
                return Err(FrameError::Truncated);
            }
            let b = match frame.get_u8() {
                0 => false,
                1 => true,
                other => return Err(FrameError::BadBool(other)),
            };
            Event::Actuator(ActuatorEvent::new(ActuatorId::new(id), at, b))
        }
        other => return Err(FrameError::UnknownTag(other)),
    };
    Ok((event, bytes.len() - frame.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip(event: Event) {
        let frame = encode_event(&event);
        let mut packed = BytesMut::new();
        encode_event_into(&event, &mut packed);
        assert_eq!(frame.as_slice(), &packed[..], "one layout, two encoders");
        let back = decode_event(frame).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn binary_reading_round_trips() {
        round_trip(Event::Sensor(SensorReading::new(
            SensorId::new(7),
            Timestamp::from_secs(1234),
            true.into(),
        )));
        round_trip(Event::Sensor(SensorReading::new(
            SensorId::new(0),
            Timestamp::from_secs(-5),
            false.into(),
        )));
    }

    #[test]
    fn numeric_reading_round_trips() {
        round_trip(Event::Sensor(SensorReading::new(
            SensorId::new(31),
            Timestamp::from_mins(99),
            21.125.into(),
        )));
    }

    #[test]
    fn actuator_event_round_trips() {
        round_trip(Event::Actuator(ActuatorEvent::new(
            ActuatorId::new(3),
            Timestamp::from_hours(2),
            true,
        )));
    }

    #[test]
    fn slice_decode_walks_packed_frames() {
        let events = [
            Event::Sensor(SensorReading::new(
                SensorId::new(2),
                Timestamp::from_secs(10),
                true.into(),
            )),
            Event::Sensor(SensorReading::new(
                SensorId::new(5),
                Timestamp::from_secs(11),
                3.5.into(),
            )),
            Event::Actuator(ActuatorEvent::new(
                ActuatorId::new(1),
                Timestamp::from_secs(12),
                false,
            )),
        ];
        let mut packed = BytesMut::new();
        for event in &events {
            encode_event_into(event, &mut packed);
        }
        let mut rest: &[u8] = &packed;
        for event in &events {
            let (got, used) = decode_event_slice(rest).unwrap();
            assert_eq!(&got, event);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 21 bytes")]
    fn oversized_raw_frames_are_refused() {
        let _ = EventFrame::from_slice(&[0; EventFrame::MAX_LEN + 1]);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(
            decode_event(EventFrame::from_slice(&[0x01, 0, 0])),
            Err(FrameError::Truncated)
        );
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_NUMERIC);
        buf.put_u32(1);
        buf.put_i64(0);
        // missing f64 payload
        assert_eq!(
            decode_event(EventFrame::from_slice(&buf)),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn unknown_tags_and_bad_bools_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x7F);
        buf.put_u32(1);
        buf.put_i64(0);
        buf.put_u8(0);
        assert_eq!(
            decode_event(EventFrame::from_slice(&buf)),
            Err(FrameError::UnknownTag(0x7F))
        );

        let mut buf = BytesMut::new();
        buf.put_u8(TAG_BINARY);
        buf.put_u32(1);
        buf.put_i64(0);
        buf.put_u8(9);
        assert_eq!(
            decode_event(EventFrame::from_slice(&buf)),
            Err(FrameError::BadBool(9))
        );
    }
}
