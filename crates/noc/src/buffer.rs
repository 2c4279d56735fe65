//! Two-entry buffered flow control with On/Off back-pressure.

use lnuca_types::Cycle;
use std::collections::VecDeque;

/// A bounded FIFO buffer with On/Off back-pressure, as used by the L-NUCA
/// Transport ("D") and Replacement ("U") channels.
///
/// The paper uses store-and-forward flow control where the flow-control digit
/// is the whole message (links are message-wide), two entries per link and an
/// On/Off signal: because the round-trip delay between adjacent tiles is two
/// cycles, two entries are exactly enough to guarantee no message is dropped
/// while the Off signal propagates. In the simulator the sender samples
/// [`OnOffBuffer::is_on`] in the same cycle, which is equivalent in the
/// steady state and conservative during transients.
///
/// # Example
///
/// ```
/// use lnuca_noc::OnOffBuffer;
///
/// let mut b: OnOffBuffer<&str> = OnOffBuffer::new(2);
/// b.push("hit block").unwrap();
/// b.push("another").unwrap();
/// assert!(!b.is_on());
/// assert_eq!(b.push("overflow"), Err("overflow"));
/// assert_eq!(b.pop(), Some("hit block"));
/// assert!(b.is_on());
/// ```
#[derive(Debug, Clone)]
pub struct OnOffBuffer<T> {
    entries: VecDeque<T>,
    capacity: usize,
    peak: usize,
    pushes: u64,
    stalls: u64,
}

impl<T> OnOffBuffer<T> {
    /// Creates a buffer with the given capacity (the paper uses 2 entries).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be nonzero");
        OnOffBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            peak: 0,
            pushes: 0,
            stalls: 0,
        }
    }

    /// `true` while the buffer can accept at least one more message (the
    /// "On" state of the back-pressure signal).
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffer capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of successful pushes.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Number of rejected pushes (sender had to stall).
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Appends `message`, or returns it back if the buffer is Off (full).
    ///
    /// # Errors
    ///
    /// Returns `Err(message)` when the buffer is full so the caller can
    /// retry in a later cycle without cloning.
    pub fn push(&mut self, message: T) -> Result<(), T> {
        if self.is_on() {
            self.entries.push_back(message);
            self.peak = self.peak.max(self.entries.len());
            self.pushes += 1;
            Ok(())
        } else {
            self.stalls += 1;
            Err(message)
        }
    }

    /// Removes and returns the oldest message.
    pub fn pop(&mut self) -> Option<T> {
        self.entries.pop_front()
    }

    /// Peeks at the oldest message without removing it.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// Iterates over buffered messages from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.entries.iter()
    }

    /// Earliest cycle at which any buffered message becomes actionable,
    /// according to the caller-supplied `ready_at` projection (e.g. the
    /// store-and-forward `forwardable_at` stamp); `None` when the buffer is
    /// empty.
    ///
    /// This is the buffer's half of the event-horizon contract (DESIGN.md
    /// §10): a component holding `OnOffBuffer`s folds these minima into its
    /// own `next_event`. The buffer itself never under-reports — every
    /// message is accounted — but the *caller* must still report "busy" for
    /// any per-cycle work it performs while messages are buffered (e.g.
    /// stall counting on blocked forwards).
    pub fn next_event_by<F: FnMut(&T) -> Cycle>(&self, ready_at: F) -> Option<Cycle> {
        self.entries.iter().map(ready_at).min()
    }

    /// Keeps only the messages for which `keep` returns `true`, preserving
    /// FIFO order among the survivors.
    ///
    /// This is the allocation-free way to pull a matching message out of the
    /// middle of the buffer (e.g. an L-NUCA search hitting a block that is
    /// still in flight in a U buffer); the old pop-filter-repush idiom
    /// allocated a temporary `Vec` every time. Removals are not counted as
    /// pops or stalls; the On/Off signal reflects the new occupancy
    /// immediately.
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, keep: F) {
        self.entries.retain(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Construction performs every allocation up front (DESIGN.md §9.2):
    /// the backing storage is reserved in `new`, so a buffer
    /// cycled through arbitrary push/pop/retain traffic at steady state
    /// never grows it. `VecDeque` only reallocates when occupancy would
    /// exceed capacity — which `push` rejects — so the pin is the raw
    /// capacity staying put.
    #[test]
    fn steady_state_cycling_never_grows_the_backing_storage() {
        let mut b: OnOffBuffer<u64> = OnOffBuffer::new(2);
        let reserved = b.entries.capacity();
        for turn in 0..10_000u64 {
            let _ = b.push(turn);
            match turn % 5 {
                0 => {
                    b.pop();
                }
                1 => b.retain(|&m| m % 3 != 0),
                2 => {
                    b.pop();
                    b.pop();
                }
                _ => {}
            }
            assert_eq!(b.entries.capacity(), reserved, "turn {turn} reallocated");
        }
    }

    #[test]
    fn respects_capacity_and_fifo_order() {
        let mut b = OnOffBuffer::new(2);
        assert!(b.is_empty());
        b.push(1).unwrap();
        b.push(2).unwrap();
        assert_eq!(b.push(3), Err(3));
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn on_off_signal_tracks_occupancy() {
        let mut b = OnOffBuffer::new(2);
        assert!(b.is_on());
        b.push('a').unwrap();
        assert!(b.is_on());
        b.push('b').unwrap();
        assert!(!b.is_on());
        b.pop();
        assert!(b.is_on());
    }

    #[test]
    fn statistics_count_pushes_and_stalls() {
        let mut b = OnOffBuffer::new(1);
        b.push(10u8).unwrap();
        let _ = b.push(11);
        let _ = b.push(12);
        assert_eq!(b.pushes(), 1);
        assert_eq!(b.stalls(), 2);
        assert_eq!(b.peak(), 1);
    }

    #[test]
    fn front_and_iter_do_not_consume() {
        let mut b = OnOffBuffer::new(4);
        b.push(1).unwrap();
        b.push(2).unwrap();
        assert_eq!(b.front(), Some(&1));
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn retain_preserves_order_and_reopens_the_buffer() {
        let mut b = OnOffBuffer::new(3);
        b.push(1).unwrap();
        b.push(2).unwrap();
        b.push(3).unwrap();
        assert!(!b.is_on());
        b.retain(|&v| v != 2);
        assert!(b.is_on());
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.pushes(), 3, "retain does not rewrite the push counter");
    }

    #[test]
    fn next_event_by_reports_the_earliest_ready_message() {
        let mut b: OnOffBuffer<(u32, Cycle)> = OnOffBuffer::new(3);
        assert_eq!(b.next_event_by(|m| m.1), None);
        b.push((1, Cycle(9))).unwrap();
        b.push((2, Cycle(4))).unwrap();
        assert_eq!(b.next_event_by(|m| m.1), Some(Cycle(4)));
        b.retain(|m| m.0 != 2);
        assert_eq!(b.next_event_by(|m| m.1), Some(Cycle(9)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = OnOffBuffer::<u8>::new(0);
    }

    proptest! {
        #[test]
        fn never_holds_more_than_capacity(ops in proptest::collection::vec(any::<bool>(), 0..200), cap in 1usize..5) {
            let mut b = OnOffBuffer::new(cap);
            let mut model: std::collections::VecDeque<u32> = Default::default();
            let mut counter = 0u32;
            for push in ops {
                if push {
                    counter += 1;
                    let accepted = b.push(counter).is_ok();
                    if model.len() < cap {
                        prop_assert!(accepted);
                        model.push_back(counter);
                    } else {
                        prop_assert!(!accepted);
                    }
                } else {
                    prop_assert_eq!(b.pop(), model.pop_front());
                }
                prop_assert!(b.len() <= cap);
                prop_assert_eq!(b.len(), model.len());
                prop_assert_eq!(b.is_on(), model.len() < cap);
            }
        }
    }
}
