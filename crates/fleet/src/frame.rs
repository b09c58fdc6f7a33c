//! The fleet wire frame: a length-prefixed, versioned envelope around the
//! gateway event frame, carrying the home id that routing needs.
//!
//! Layout: `len:u16, version:u8, home:u32, event` where `len` counts the
//! bytes after the length prefix and `event` is the gateway frame from
//! [`dice_gateway::encode_event`] (`tag:u8, device_id:u32, at_secs:i64,
//! payload`). Frames pack back to back in a batch buffer; the explicit
//! length lets a decoder walk the batch without understanding every tag,
//! and the version byte lets a future layout change fail loudly instead of
//! misparsing. Decoding returns errors for truncated, corrupt, or
//! oversized input — it never panics on untrusted bytes.

use bytes::{BufMut, Bytes, BytesMut};

use dice_gateway::{decode_event_slice, encode_event_into, EventFrame, FrameError};
use dice_types::Event;

/// The wire-format version this build encodes and accepts.
pub const FLEET_FRAME_VERSION: u8 = 1;

/// Upper bound on a frame's declared body length, in bytes. Real bodies
/// are at most 26 bytes (version + home + a numeric event); anything
/// declaring more is corrupt and rejected before any allocation or copy
/// sized by attacker-controlled input.
pub const MAX_FRAME_BODY: usize = 64;

/// Bytes of frame header before the body: the `u16` length prefix.
const LEN_PREFIX: usize = 2;

/// Body bytes before the embedded event: version and home id.
const BODY_HEADER: usize = 1 + 4;

/// The longest frame [`encode_frame_into`] writes: the length prefix,
/// version, home and the longest event frame.
pub(crate) const MAX_ENCODED_FRAME: usize = LEN_PREFIX + BODY_HEADER + EventFrame::MAX_LEN;

/// A home identifier on the fleet wire.
pub type HomeId = u32;

/// One decoded fleet frame: which home the event belongs to, and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFrame {
    /// The home this event belongs to.
    pub home: HomeId,
    /// The sensor or actuator event.
    pub event: Event,
}

/// Errors raised while decoding a fleet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetFrameError {
    /// The buffer ends before the declared frame does.
    Truncated,
    /// The declared body length exceeds [`MAX_FRAME_BODY`].
    Oversized {
        /// The length the frame claimed.
        declared: usize,
    },
    /// The version byte is not [`FLEET_FRAME_VERSION`].
    BadVersion(u8),
    /// The embedded event did not fill the declared body exactly.
    LengthMismatch {
        /// The body length the frame claimed.
        declared: usize,
        /// The body bytes the event actually consumed.
        actual: usize,
    },
    /// The embedded event frame is malformed.
    Event(FrameError),
}

impl std::fmt::Display for FleetFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetFrameError::Truncated => write!(f, "fleet frame is truncated"),
            FleetFrameError::Oversized { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {MAX_FRAME_BODY}"
                )
            }
            FleetFrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (expected {FLEET_FRAME_VERSION})"
                )
            }
            FleetFrameError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared body of {declared} bytes but event used {actual}"
                )
            }
            FleetFrameError::Event(e) => write!(f, "embedded event frame: {e}"),
        }
    }
}

impl std::error::Error for FleetFrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetFrameError::Event(e) => Some(e),
            _ => None,
        }
    }
}

/// Appends one fleet frame to `buf`, for packing many frames into one
/// batch buffer. The event is written by [`encode_event_into`] straight
/// into `buf`, and the length prefix is patched once the body is in.
#[inline]
pub fn encode_frame_into(home: HomeId, event: &Event, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u16(0);
    buf.put_u8(FLEET_FRAME_VERSION);
    buf.put_u32(home);
    encode_event_into(event, buf);
    let body = buf.len() - start - LEN_PREFIX;
    debug_assert!(body <= MAX_FRAME_BODY);
    buf[start..start + LEN_PREFIX].copy_from_slice(&(body as u16).to_be_bytes());
}

/// Encodes one fleet frame into a fresh buffer.
pub fn encode_frame(home: HomeId, event: &Event) -> Bytes {
    let mut buf = BytesMut::with_capacity(LEN_PREFIX + MAX_FRAME_BODY);
    encode_frame_into(home, event, &mut buf);
    buf.freeze()
}

/// Decodes one fleet frame from the front of `bytes`, returning the frame
/// and the number of bytes it consumed.
///
/// # Errors
///
/// Returns a [`FleetFrameError`] for truncated, corrupt, or oversized
/// frames; `bytes` is never indexed past what the checks admit, so corrupt
/// input cannot panic.
#[inline]
pub fn decode_frame_slice(bytes: &[u8]) -> Result<(FleetFrame, usize), FleetFrameError> {
    if bytes.len() < LEN_PREFIX {
        return Err(FleetFrameError::Truncated);
    }
    let declared = usize::from(u16::from_be_bytes([bytes[0], bytes[1]]));
    if declared > MAX_FRAME_BODY {
        return Err(FleetFrameError::Oversized { declared });
    }
    if bytes.len() - LEN_PREFIX < declared {
        return Err(FleetFrameError::Truncated);
    }
    let body = &bytes[LEN_PREFIX..LEN_PREFIX + declared];
    if body.len() < BODY_HEADER {
        return Err(FleetFrameError::Truncated);
    }
    let version = body[0];
    if version != FLEET_FRAME_VERSION {
        return Err(FleetFrameError::BadVersion(version));
    }
    let home = u32::from_be_bytes([body[1], body[2], body[3], body[4]]);
    let (event, used) = decode_event_slice(&body[BODY_HEADER..]).map_err(FleetFrameError::Event)?;
    if BODY_HEADER + used != declared {
        return Err(FleetFrameError::LengthMismatch {
            declared,
            actual: BODY_HEADER + used,
        });
    }
    Ok((FleetFrame { home, event }, LEN_PREFIX + declared))
}

/// The home id in a frame's header, read without decoding or checking the
/// rest; `None` when `bytes` is too short to hold one.
pub(crate) fn frame_home(bytes: &[u8]) -> Option<HomeId> {
    let home = bytes.get(LEN_PREFIX + 1..LEN_PREFIX + BODY_HEADER)?;
    Some(u32::from_be_bytes(home.try_into().ok()?))
}

/// Iterates the frames packed in a batch buffer; see [`decode_frames`].
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    rest: &'a [u8],
    failed: bool,
}

impl Iterator for FrameIter<'_> {
    type Item = Result<FleetFrame, FleetFrameError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        match decode_frame_slice(self.rest) {
            Ok((frame, used)) => {
                self.rest = &self.rest[used..];
                Some(Ok(frame))
            }
            Err(error) => {
                // A bad length prefix loses the framing for the rest of the
                // batch; yield the error once and stop rather than misparse.
                self.failed = true;
                Some(Err(error))
            }
        }
    }
}

/// Walks the frames packed back to back in `bytes`. The iterator yields
/// decoded frames until the buffer is exhausted or a frame fails to
/// decode; the first error is yielded and iteration stops (a corrupt
/// length prefix loses the framing for everything after it).
pub fn decode_frames(bytes: &[u8]) -> FrameIter<'_> {
    FrameIter {
        rest: bytes,
        failed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_gateway::encode_event;
    use dice_types::{ActuatorEvent, ActuatorId, SensorId, SensorReading, Timestamp};
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Sensor(SensorReading::new(
                SensorId::new(3),
                Timestamp::from_secs(60),
                true.into(),
            )),
            Event::Sensor(SensorReading::new(
                SensorId::new(9),
                Timestamp::from_secs(61),
                20.5.into(),
            )),
            Event::Actuator(ActuatorEvent::new(
                ActuatorId::new(1),
                Timestamp::from_secs(62),
                false,
            )),
        ]
    }

    #[test]
    fn frames_round_trip_and_pack() {
        let events = sample_events();
        let mut buf = BytesMut::new();
        for (i, event) in events.iter().enumerate() {
            encode_frame_into(1000 + i as u32, event, &mut buf);
        }
        let decoded: Vec<FleetFrame> = decode_frames(&buf).map(Result::unwrap).collect();
        assert_eq!(decoded.len(), events.len());
        for (i, (frame, event)) in decoded.iter().zip(&events).enumerate() {
            assert_eq!(frame.home, 1000 + i as u32);
            assert_eq!(&frame.event, event);
        }
    }

    /// One fleet frame per tag in literal bytes: the body length, the
    /// version, the big-endian home id, then the event frame.
    #[test]
    fn fleet_frames_pin_their_bytes() {
        let expected: [&[u8]; 3] = [
            &[
                0, 19, 1, 0x00, 0x01, 0x02, 0x03, 0x01, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 60, 1,
            ],
            &[
                0, 26, 1, 0x00, 0x01, 0x02, 0x03, 0x02, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 61, 0x40,
                0x34, 0x80, 0, 0, 0, 0, 0,
            ],
            &[
                0, 19, 1, 0x00, 0x01, 0x02, 0x03, 0x03, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 62, 0,
            ],
        ];
        let mut batch = BytesMut::new();
        for (event, bytes) in sample_events().iter().zip(expected) {
            assert_eq!(encode_frame(0x0001_0203, event).as_slice(), bytes);
            encode_frame_into(0x0001_0203, event, &mut batch);
            let (frame, used) = decode_frame_slice(bytes).unwrap();
            assert_eq!(
                (frame.home, &frame.event, used),
                (0x0001_0203, event, bytes.len())
            );
        }
        assert_eq!(&batch[..], expected.concat().as_slice());
        let longest = expected.iter().map(|bytes| bytes.len()).max();
        assert_eq!(longest, Some(MAX_ENCODED_FRAME));
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let frame = encode_frame(7, &sample_events()[1]);
        for cut in 0..frame.len() {
            let err = decode_frame_slice(&frame[..cut]).unwrap_err();
            assert_eq!(err, FleetFrameError::Truncated, "cut at {cut}");
        }
        assert!(decode_frame_slice(&frame).is_ok());
    }

    #[test]
    fn frame_home_reads_the_header_of_any_frame() {
        let frame = encode_frame(0x0102_0304, &sample_events()[1]);
        for cut in 0..LEN_PREFIX + BODY_HEADER {
            assert_eq!(frame_home(&frame[..cut]), None, "cut at {cut}");
        }
        assert_eq!(frame_home(&frame[..7]), Some(0x0102_0304));
        let mut bad_version = frame.to_vec();
        bad_version[2] = 9;
        assert_eq!(frame_home(&bad_version), Some(0x0102_0304));
    }

    #[test]
    fn oversized_and_bad_version_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(1000);
        buf.put_slice(&[0u8; 64]);
        assert_eq!(
            decode_frame_slice(&buf),
            Err(FleetFrameError::Oversized { declared: 1000 })
        );

        let good = encode_frame(7, &sample_events()[0]);
        let mut bytes = good.as_slice().to_vec();
        bytes[2] = 9; // version byte
        assert_eq!(
            decode_frame_slice(&bytes),
            Err(FleetFrameError::BadVersion(9))
        );
    }

    #[test]
    fn declared_length_must_match_the_event() {
        let good = encode_frame(7, &sample_events()[0]);
        let mut bytes = good.as_slice().to_vec();
        bytes[1] += 1; // declare one extra body byte
        bytes.push(0);
        assert!(matches!(
            decode_frame_slice(&bytes),
            Err(FleetFrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn embedded_event_errors_surface() {
        let good = encode_frame(7, &sample_events()[0]);
        let mut bytes = good.as_slice().to_vec();
        bytes[LEN_PREFIX + BODY_HEADER] = 0x7F; // unknown event tag
        assert_eq!(
            decode_frame_slice(&bytes),
            Err(FleetFrameError::Event(FrameError::UnknownTag(0x7F)))
        );
    }

    #[test]
    fn iterator_stops_at_the_first_error() {
        let mut buf = BytesMut::new();
        encode_frame_into(1, &sample_events()[0], &mut buf);
        buf.put_u16(3); // valid prefix, body too short for the header
        buf.put_slice(&[1, 0, 0]);
        let results: Vec<_> = decode_frames(&buf).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    /// One of `edges` half the time, any value of `T` otherwise.
    fn edge_or_any<T: Arbitrary + Clone>(edges: Vec<T>) -> impl Strategy<Value = T> {
        (any::<bool>(), prop::sample::select(edges), any::<T>())
            .prop_map(|(edge, edge_value, value)| if edge { edge_value } else { value })
    }

    /// Events of all three tags, with device ids, timestamps and numeric
    /// payloads drawn from their extremes as well as at random: ±0.0,
    /// ±inf, NaNs and subnormals among the payloads' bit patterns.
    fn edge_event() -> impl Strategy<Value = Event> {
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
            f64::from_bits(1),                     // smallest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MAX,
        ];
        (
            0u8..3,
            edge_or_any(vec![0, u32::MAX]),
            edge_or_any(vec![i64::MIN, -1, 0, i64::MAX]),
            any::<bool>(),
            edge_or_any(values.map(f64::to_bits).to_vec()).prop_map(f64::from_bits),
        )
            .prop_map(|(tag, id, secs, on, value)| {
                let at = Timestamp::from_secs(secs);
                match tag {
                    0 => Event::Sensor(SensorReading::new(SensorId::new(id), at, on.into())),
                    1 => Event::Sensor(SensorReading::new(SensorId::new(id), at, value.into())),
                    _ => Event::Actuator(ActuatorEvent::new(ActuatorId::new(id), at, on)),
                }
            })
    }

    proptest! {
        /// Encoding into a buffer that already holds bytes keeps them and
        /// appends exactly `len ‖ version ‖ home ‖ encode_event(event)`,
        /// which decodes back to the home and to the event's bytes (NaN
        /// payloads compare by their bits).
        #[test]
        fn encoding_appends_exactly_the_frame_bytes(
            held in prop::collection::vec(any::<u8>(), 1..48),
            home in edge_or_any(vec![0, u32::MAX]),
            event in edge_event(),
        ) {
            let mut buf = BytesMut::new();
            buf.put_slice(&held);
            encode_frame_into(home, &event, &mut buf);
            prop_assert_eq!(&buf[..held.len()], &held[..]);

            let event_frame = encode_event(&event);
            let body = BODY_HEADER + event_frame.as_slice().len();
            let mut expected = (body as u16).to_be_bytes().to_vec();
            expected.push(FLEET_FRAME_VERSION);
            expected.extend_from_slice(&home.to_be_bytes());
            expected.extend_from_slice(event_frame.as_slice());
            let appended = &buf[held.len()..];
            prop_assert_eq!(appended, &expected[..]);

            let (frame, used) = decode_frame_slice(appended).unwrap();
            prop_assert_eq!((frame.home, used), (home, appended.len()));
            prop_assert_eq!(encode_event(&frame.event), event_frame);
        }
    }
}
