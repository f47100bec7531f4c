//! A fixed-capacity ring buffer that counts what it evicts.
//!
//! The trace ring and netsim's packet `Tracer` both sit on this type: a
//! bounded queue that, once full, drops the *oldest* entry to admit a new
//! one and keeps an exact count of everything dropped. The backing `Vec`
//! is allocated once at construction and filled once to capacity; after
//! that a push is one write over the oldest entry at `head`, and never
//! allocates.

/// Fixed-capacity ring with a dropped-oldest counter.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// Entries in push order from `head` (oldest) around to `head - 1`.
    buf: Vec<T>,
    /// Index of the oldest entry once `buf` is full; 0 until then.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Appends an entry, evicting (and counting) the oldest if full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
            return;
        }
        self.buf[self.head] = item;
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.dropped = self.dropped.saturating_add(1);
    }

    /// Entries currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of entries the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries were evicted to make room since construction
    /// (or the last [`Ring::clear`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring and resets the dropped counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// Oldest entry, if any.
    pub fn front(&self) -> Option<&T> {
        self.buf.get(self.head)
    }

    /// Newest entry, if any.
    pub fn back(&self) -> Option<&T> {
        match self.head {
            0 => self.buf.last(),
            h => self.buf.get(h - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_within_capacity_drops_nothing() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let mut r = Ring::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(r.front(), Some(&7));
        assert_eq!(r.back(), Some(&9));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = Ring::new(0);
        r.push('a');
        r.push('b');
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.back(), Some(&'b'));
    }

    #[test]
    fn clear_resets_dropped() {
        let mut r = Ring::new(1);
        r.push(1);
        r.push(2);
        assert_eq!(r.dropped(), 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }
}
