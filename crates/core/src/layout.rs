//! Mapping between sensors and sensor-state-set bit positions.
//!
//! A binary sensor owns one bit (Eq. 3.1). A numeric sensor owns three bits
//! (Eqs. 3.2–3.4): skewness, trend, and level. The layout assigns spans in
//! sensor-id order so the mapping is deterministic for a given registry, and
//! provides the reverse map used during identification ("for a numeric sensor
//! three bits constitute for a single numeric sensor", Section 3.4).

use serde::{Deserialize, Serialize};

use dice_types::{DeviceRegistry, SensorClass, SensorId};

/// The role of one bit inside a sensor's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitRole {
    /// The single bit of a binary sensor (Eq. 3.1).
    Activation,
    /// Skewness of the window's samples exceeds zero (Eq. 3.2).
    Skewness,
    /// Increasing trend over the window (Eq. 3.3).
    Trend,
    /// Window mean exceeds the sensor's `valueThre` (Eq. 3.4).
    Level,
}

/// The contiguous bit span owned by one sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSpan {
    /// First bit index of the span.
    pub start: usize,
    /// Number of bits (1 for binary sensors, 3 for numeric sensors).
    pub width: usize,
}

impl BitSpan {
    /// Iterates over the bit indices in this span.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        self.start..self.start + self.width
    }
}

/// Assignment of state-set bits to sensors, plus the dense numbering of
/// the numeric sensors ("numeric slots", in sensor-id order) that the
/// binarization kernel's per-window statistics are indexed by.
///
/// # Example
///
/// ```
/// use dice_core::BitLayout;
/// use dice_types::{DeviceRegistry, Room, SensorKind};
///
/// let mut reg = DeviceRegistry::new();
/// let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
/// let temp = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
/// let layout = BitLayout::for_registry(&reg);
/// assert_eq!(layout.num_bits(), 4); // 1 binary bit + 3 numeric bits
/// assert_eq!(layout.span(motion).width, 1);
/// assert_eq!(layout.span(temp).width, 3);
/// assert_eq!(layout.sensor_of_bit(2), temp);
/// assert_eq!(layout.numeric_sensors(), &[temp]); // numeric slot 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitLayout {
    spans: Vec<BitSpan>,
    owner: Vec<u32>,
    /// Each sensor's numeric slot; [`NO_SLOT`] for binary sensors.
    slots: Vec<u32>,
    /// The sensor of each numeric slot.
    numeric: Vec<SensorId>,
}

/// Width of a numeric sensor's span (skewness, trend, level).
pub const NUMERIC_SPAN_WIDTH: usize = 3;

/// The stored slot of a binary sensor: no statistics slice is this long.
const NO_SLOT: u32 = u32::MAX;

impl BitLayout {
    /// Builds the layout for a registry, in sensor-id order.
    pub fn for_registry(registry: &DeviceRegistry) -> Self {
        let widths: Vec<usize> = registry
            .sensors()
            .map(|spec| match spec.class() {
                SensorClass::Binary => 1,
                SensorClass::Numeric => NUMERIC_SPAN_WIDTH,
            })
            .collect();
        Self::from_widths(&widths)
    }

    /// Rebuilds a layout from per-sensor span widths (1 = binary,
    /// 3 = numeric), e.g. when loading a persisted model.
    ///
    /// # Panics
    ///
    /// Panics if any width is not 1 or the numeric span width.
    pub fn from_widths(widths: &[usize]) -> Self {
        let mut spans = Vec::with_capacity(widths.len());
        let mut owner = Vec::new();
        let mut slots = Vec::with_capacity(widths.len());
        let mut numeric = Vec::new();
        let mut cursor = 0usize;
        for (sensor, &width) in widths.iter().enumerate() {
            assert!(
                width == 1 || width == NUMERIC_SPAN_WIDTH,
                "span width must be 1 or {NUMERIC_SPAN_WIDTH}"
            );
            let id = SensorId::new(sensor as u32);
            if width == NUMERIC_SPAN_WIDTH {
                slots.push(numeric.len() as u32);
                numeric.push(id);
            } else {
                slots.push(NO_SLOT);
            }
            spans.push(BitSpan {
                start: cursor,
                width,
            });
            for _ in 0..width {
                owner.push(sensor as u32);
            }
            cursor += width;
        }
        BitLayout {
            spans,
            owner,
            slots,
            numeric,
        }
    }

    /// Total number of bits in a state set.
    pub fn num_bits(&self) -> usize {
        self.owner.len()
    }

    /// Number of sensors covered by the layout.
    pub fn num_sensors(&self) -> usize {
        self.spans.len()
    }

    /// Number of numeric sensors (those with three-bit spans).
    pub fn num_numeric_sensors(&self) -> usize {
        self.numeric.len()
    }

    /// The numeric slot of the known sensor at `index`, or an index past
    /// the end of any per-slot slice for a binary sensor, so that the
    /// kernel's one bounds-checked lookup also tells numeric from binary.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_sensors()`.
    #[inline]
    pub(crate) fn slot_index(&self, index: usize) -> usize {
        self.slots[index] as usize
    }

    /// The numeric sensors in slot order (ascending id).
    pub fn numeric_sensors(&self) -> &[SensorId] {
        &self.numeric
    }

    /// The bit span owned by `sensor`.
    ///
    /// # Panics
    ///
    /// Panics if the sensor is not covered by this layout.
    pub fn span(&self, sensor: SensorId) -> BitSpan {
        self.spans[sensor.index()]
    }

    /// Iterates over every sensor's span in sensor-id order.
    pub fn spans(&self) -> impl Iterator<Item = (SensorId, BitSpan)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, &span)| (SensorId::new(i as u32), span))
    }

    /// Total number of bits in a state set (alias of
    /// [`BitLayout::num_bits`], named for symmetry with analyzer code).
    pub fn total_bits(&self) -> usize {
        self.num_bits()
    }

    /// The sensor owning `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= num_bits()`.
    pub fn sensor_of_bit(&self, bit: usize) -> SensorId {
        SensorId::new(self.owner[bit])
    }

    /// The role of `bit` within its owner's span.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= num_bits()`.
    pub fn role_of_bit(&self, bit: usize) -> BitRole {
        let span = self.span(self.sensor_of_bit(bit));
        if span.width == 1 {
            BitRole::Activation
        } else {
            match bit - span.start {
                0 => BitRole::Skewness,
                1 => BitRole::Trend,
                _ => BitRole::Level,
            }
        }
    }

    /// Folds a set of bit indices into the owning sensors, deduplicated and
    /// in ascending id order.
    pub fn sensors_of_bits(&self, bits: impl IntoIterator<Item = usize>) -> Vec<SensorId> {
        let mut sensors: Vec<SensorId> = bits.into_iter().map(|b| self.sensor_of_bit(b)).collect();
        sensors.sort_unstable();
        sensors.dedup();
        sensors
    }

    /// Stable fingerprint of the layout shape: total bits, sensor count,
    /// and every span's position and width.
    ///
    /// Two layouts fingerprint equal exactly when every sensor owns the
    /// same bits, so artifacts produced against different registries (or a
    /// registry that gained/lost a sensor) are distinguishable without
    /// comparing the full structures. [`crate::TraceHeader`] computes the
    /// same value from a trace file's header line.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.push_u64(self.num_bits() as u64);
        fp.push_u64(self.spans.len() as u64);
        for span in &self.spans {
            fp.push_u64(span.start as u64);
            fp.push_u64(span.width as u64);
        }
        fp.finish()
    }

    /// The widest span in the layout (3 if any numeric sensor, else 1).
    ///
    /// This bounds how many bits a single faulty device can disturb, which
    /// sets the default candidate-group distance threshold.
    pub fn max_span_width(&self) -> usize {
        if !self.numeric.is_empty() {
            NUMERIC_SPAN_WIDTH
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{Room, SensorKind};

    fn layout3() -> (BitLayout, SensorId, SensorId, SensorId) {
        let mut reg = DeviceRegistry::new();
        let m = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let t = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let d = reg.add_sensor(SensorKind::Contact, "d", Room::Hallway);
        (BitLayout::for_registry(&reg), m, t, d)
    }

    #[test]
    fn spans_are_contiguous_in_id_order() {
        let (layout, m, t, d) = layout3();
        assert_eq!(layout.span(m), BitSpan { start: 0, width: 1 });
        assert_eq!(layout.span(t), BitSpan { start: 1, width: 3 });
        assert_eq!(layout.span(d), BitSpan { start: 4, width: 1 });
        assert_eq!(layout.num_bits(), 5);
        assert_eq!(layout.num_sensors(), 3);
        assert_eq!(layout.num_numeric_sensors(), 1);
    }

    #[test]
    fn numeric_slots_number_the_numeric_sensors_in_id_order() {
        let widths = [3, 1, 3, 1, 1, 3];
        let layout = BitLayout::from_widths(&widths);
        let slots: Vec<usize> = (0..6).map(|i| layout.slot_index(i)).collect();
        let none = NO_SLOT as usize;
        assert_eq!(slots, [0, none, 1, none, none, 2]);
        let numeric: Vec<u32> = layout
            .numeric_sensors()
            .iter()
            .map(|s| s.index() as u32)
            .collect();
        assert_eq!(numeric, [0, 2, 5]);
        assert_eq!(layout.num_numeric_sensors(), 3);
    }

    #[test]
    fn reverse_map_recovers_owner() {
        let (layout, m, t, d) = layout3();
        assert_eq!(layout.sensor_of_bit(0), m);
        assert_eq!(layout.sensor_of_bit(1), t);
        assert_eq!(layout.sensor_of_bit(2), t);
        assert_eq!(layout.sensor_of_bit(3), t);
        assert_eq!(layout.sensor_of_bit(4), d);
    }

    #[test]
    fn roles_follow_span_offsets() {
        let (layout, ..) = layout3();
        assert_eq!(layout.role_of_bit(0), BitRole::Activation);
        assert_eq!(layout.role_of_bit(1), BitRole::Skewness);
        assert_eq!(layout.role_of_bit(2), BitRole::Trend);
        assert_eq!(layout.role_of_bit(3), BitRole::Level);
        assert_eq!(layout.role_of_bit(4), BitRole::Activation);
    }

    #[test]
    fn sensors_of_bits_dedups_numeric_span() {
        let (layout, _, t, d) = layout3();
        // Three differing bits of one numeric sensor fold to a single sensor.
        let sensors = layout.sensors_of_bits([1, 2, 3]);
        assert_eq!(sensors, vec![t]);
        let sensors = layout.sensors_of_bits([4, 2]);
        assert_eq!(sensors, vec![t, d]);
    }

    #[test]
    fn span_indices_iterate_bits() {
        let (layout, _, t, _) = layout3();
        let bits: Vec<usize> = layout.span(t).indices().collect();
        assert_eq!(bits, vec![1, 2, 3]);
    }

    #[test]
    fn max_span_width_reflects_numeric_presence() {
        let (layout, ..) = layout3();
        assert_eq!(layout.max_span_width(), 3);

        let mut reg = DeviceRegistry::new();
        reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let binary_only = BitLayout::for_registry(&reg);
        assert_eq!(binary_only.max_span_width(), 1);
    }

    #[test]
    fn empty_registry_layout() {
        let layout = BitLayout::for_registry(&DeviceRegistry::new());
        assert_eq!(layout.num_bits(), 0);
        assert_eq!(layout.num_sensors(), 0);
    }
}
