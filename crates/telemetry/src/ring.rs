//! A bounded event ring with overwrite-oldest semantics.
//!
//! One structured event is pushed per endpoint check; when the ring is full
//! the oldest event is overwritten, so the ring always holds the most recent
//! window of history (the same discipline the ToPA buffer itself uses). The
//! ring allocates its whole capacity up front, so a push never allocates.

/// The bounded ring.
pub struct EventRing<T> {
    slots: Vec<T>,
    /// Absolute number of events ever pushed.
    head: u64,
    mask: usize,
}

impl<T: Copy> EventRing<T> {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> EventRing<T> {
        let cap = capacity.max(8).next_power_of_two();
        EventRing { slots: Vec::with_capacity(cap), head: 0, mask: cap - 1 }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head
    }

    /// Pushes an event, overwriting the oldest if full.
    pub fn push(&mut self, ev: &T) {
        if self.slots.len() < self.capacity() {
            self.slots.push(*ev);
        } else {
            self.slots[(self.head as usize) & self.mask] = *ev;
        }
        self.head += 1;
    }

    /// The most recent `n` events, oldest first, paired with their absolute
    /// indices.
    pub fn last(&self, n: usize) -> Vec<(u64, T)> {
        let avail = n.min(self.slots.len()) as u64;
        (self.head - avail..self.head).map(|i| (i, self.slots[(i as usize) & self.mask])).collect()
    }
}

impl<T> std::fmt::Debug for EventRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventRing(cap={}, pushed={})", self.mask + 1, self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_preserves_order_and_counts() {
        let mut ring: EventRing<u64> = EventRing::new(16);
        for i in 0..50u64 {
            ring.push(&i);
        }
        assert_eq!(ring.pushed(), 50);
        let snap = ring.last(usize::MAX);
        assert_eq!(snap.len(), 16, "ring keeps exactly its capacity");
        // The retained window is the most recent 16, oldest first, with
        // absolute indices matching payloads.
        for (k, (idx, ev)) in snap.iter().enumerate() {
            assert_eq!(*idx, 34 + k as u64);
            assert_eq!(*ev, 34 + k as u64);
        }
    }

    #[test]
    fn last_n_returns_suffix() {
        let mut ring: EventRing<u64> = EventRing::new(8);
        for i in 0..5u64 {
            ring.push(&(i * 10));
        }
        let last2 = ring.last(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].1, 30);
        assert_eq!(last2[1].1, 40);
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring: EventRing<u64> = EventRing::new(8);
        assert!(ring.last(usize::MAX).is_empty());
        assert_eq!(ring.pushed(), 0);
    }

    #[test]
    fn capacity_rounds_up() {
        let ring: EventRing<u64> = EventRing::new(9);
        assert_eq!(ring.capacity(), 16);
        let ring: EventRing<u64> = EventRing::new(0);
        assert_eq!(ring.capacity(), 8);
    }
}
