//! Shared bounded-ring machinery for flight-recorder style buffers.
//!
//! [`SlotRing`] is the single implementation of overwrite-oldest /
//! drop-counting bookkeeping used by both [`crate::EventRing`] (structured
//! telemetry events) and `dice_core`'s decision tracer (per-window
//! decision traces). Slots are reused **in place**: once the ring has
//! wrapped, pushing fills an existing slot through a caller closure instead
//! of allocating a new value, so a warm ring admits records without any
//! heap traffic beyond what the closure itself does.

/// A bounded ring of reusable slots with overwrite-oldest semantics.
///
/// Each push is assigned a monotonic sequence number (never reused), and
/// [`SlotRing::dropped`] reports how many records were evicted by
/// wraparound so consumers are honest about truncation.
#[derive(Debug, Clone)]
pub struct SlotRing<T> {
    capacity: usize,
    slots: Vec<T>,
    /// Index of the oldest slot (== the next overwrite target) once the
    /// ring is full; always 0 while still filling.
    head: usize,
    /// Total records ever pushed; the next sequence number.
    total: u64,
}

impl<T: Default> SlotRing<T> {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        SlotRing {
            capacity,
            slots: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    /// Appends a record by filling a slot in place, evicting the oldest
    /// when full. `fill` receives the record's sequence number and the
    /// slot to overwrite (a fresh `T::default()` only while the ring is
    /// still filling; a recycled previous record afterwards — `fill` must
    /// reset every field it cares about). Returns the sequence number.
    pub fn push_with(&mut self, fill: impl FnOnce(u64, &mut T)) -> u64 {
        let seq = self.total;
        self.total += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(T::default());
            let last = self.slots.len() - 1;
            fill(seq, &mut self.slots[last]);
        } else {
            fill(seq, &mut self.slots[self.head]);
            self.head = (self.head + 1) % self.capacity;
        }
        seq
    }
}

impl<T> SlotRing<T> {
    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let (older, newer) = self.slots.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// The most recently pushed record, if any.
    pub fn latest(&self) -> Option<&T> {
        if self.slots.is_empty() {
            None
        } else if self.slots.len() < self.capacity || self.head == 0 {
            self.slots.last()
        } else {
            Some(&self.slots[self.head - 1])
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no record was ever pushed (or capacity-many were dropped).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total records ever pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records evicted by wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.slots.len() as u64
    }

    /// The maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T: Clone> SlotRing<T> {
    /// Clones the newest `n` records, oldest first. Allocates; intended for
    /// rare paths such as a fault report's evidence, not per-record ones.
    pub fn last_n(&self, n: usize) -> Vec<T> {
        let len = self.slots.len();
        self.iter().skip(len.saturating_sub(n)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_in_place() {
        let mut ring: SlotRing<u64> = SlotRing::new(3);
        assert!(ring.is_empty());
        assert_eq!(ring.latest(), None);
        for i in 0..7u64 {
            let seq = ring.push_with(|seq, slot| *slot = seq * 10);
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 7);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![40, 50, 60]);
        assert_eq!(ring.latest(), Some(&60));
    }

    #[test]
    fn last_n_clones_the_newest_oldest_first() {
        let mut ring: SlotRing<u64> = SlotRing::new(3);
        assert!(ring.last_n(2).is_empty());
        for _ in 0..5 {
            ring.push_with(|seq, slot| *slot = seq);
        }
        assert_eq!(ring.last_n(2), vec![3, 4]);
        // Asking for more than retained returns everything retained.
        assert_eq!(ring.last_n(10), vec![2, 3, 4]);
    }

    #[test]
    fn latest_tracks_wrap_boundary() {
        let mut ring: SlotRing<u64> = SlotRing::new(2);
        ring.push_with(|seq, slot| *slot = seq);
        assert_eq!(ring.latest(), Some(&0));
        ring.push_with(|seq, slot| *slot = seq);
        assert_eq!(ring.latest(), Some(&1));
        ring.push_with(|seq, slot| *slot = seq);
        // Wrapped: slot 0 was recycled and now holds seq 2.
        assert_eq!(ring.latest(), Some(&2));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn recycled_slots_keep_their_buffers() {
        let mut ring: SlotRing<Vec<u8>> = SlotRing::new(2);
        ring.push_with(|_, slot| slot.extend_from_slice(&[1, 2, 3]));
        ring.push_with(|_, slot| slot.extend_from_slice(&[4]));
        // The third push recycles the first slot; a fill that only clears
        // must see the old buffer (capacity preserved, contents stale).
        ring.push_with(|_, slot| {
            assert_eq!(slot.as_slice(), &[1, 2, 3]);
            slot.clear();
            slot.push(9);
        });
        assert_eq!(
            ring.iter().cloned().collect::<Vec<_>>(),
            vec![vec![4], vec![9]]
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _: SlotRing<u8> = SlotRing::new(0);
    }
}
