//! Generation-checked slab storage for hot-path simulation state.
//!
//! The engine's per-event bookkeeping (in-flight requests, GC jobs,
//! time-sliced grants) used to live in `BTreeMap<u64, T>` keyed by a
//! monotonically growing id. Every event paid a pointer-chasing tree walk
//! plus a node allocation per insert. A [`Slab`] replaces that with a
//! dense `Vec` and an intrusive free list: insert and lookup are O(1)
//! array indexing, and slots recycle their allocation forever.
//!
//! Handles carry a **generation** alongside the slot index. A slot's
//! generation bumps on every removal, so a stale handle (one kept past
//! its entry's removal) can never silently alias a recycled slot —
//! access panics instead, which is exactly what a determinism-sensitive
//! simulator wants from a bookkeeping bug.
//!
//! Determinism: the free list is LIFO and entirely driven by the
//! insert/remove sequence, so same-seed runs assign identical handles.

/// A generation-checked reference to a slab slot, packed into a `u64`
/// (`generation << 32 | slot`) so it can ride inside event payloads
/// without widening them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u64);

impl Handle {
    /// The slot index this handle points at.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The generation the slot must still be at.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The packed `u64` form (for embedding in wider tag words).
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`Handle::to_bits`].
    #[inline]
    pub fn from_bits(bits: u64) -> Handle {
        Handle(bits)
    }
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}g{}", self.slot(), self.generation())
    }
}

#[derive(Debug, Clone)]
enum Entry<T> {
    /// Next free slot index, or `u32::MAX` for the list tail.
    Free {
        next: u32,
    },
    Occupied {
        value: T,
    },
}

/// A dense slab with O(1) insert/lookup/remove and generation-checked
/// handles.
///
/// # Example
///
/// ```
/// use fleetio_des::slab::Slab;
///
/// let mut slab = Slab::new();
/// let h = slab.insert("payload");
/// assert_eq!(slab[h], "payload");
/// assert_eq!(slab.remove(h), "payload");
/// assert!(slab.get(h).is_none()); // stale handle no longer resolves
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Per-slot generation, bumped on removal.
    generations: Vec<u32>,
    /// Head of the free list (`u32::MAX` when empty).
    free_head: u32,
    len: usize,
}

const NIL: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Bytes one slot's entry takes in the dense array, live or free (its
    /// 4-byte generation is kept beside it).
    pub const SLOT_BYTES: usize = std::mem::size_of::<Entry<T>>();

    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            generations: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            match self.entries[slot as usize] {
                Entry::Free { next } => self.free_head = next,
                Entry::Occupied { .. } => unreachable!("free list points at occupied slot"),
            }
            self.entries[slot as usize] = Entry::Occupied { value };
            slot
        } else {
            let slot = self.entries.len() as u32;
            assert!(slot != NIL, "slab exhausted u32 slot space");
            self.entries.push(Entry::Occupied { value });
            self.generations.push(0);
            slot
        };
        Handle(u64::from(self.generations[slot as usize]) << 32 | u64::from(slot))
    }

    #[inline]
    fn check(&self, handle: Handle) -> bool {
        let slot = handle.slot() as usize;
        slot < self.entries.len() && self.generations[slot] == handle.generation()
    }

    /// The entry behind `handle`, or `None` if it was removed (the slot's
    /// generation moved on).
    #[inline]
    pub fn get(&self, handle: Handle) -> Option<&T> {
        if !self.check(handle) {
            return None;
        }
        match &self.entries[handle.slot() as usize] {
            Entry::Occupied { value } => Some(value),
            Entry::Free { .. } => None,
        }
    }

    /// Mutable access to the entry behind `handle`.
    #[inline]
    pub fn get_mut(&mut self, handle: Handle) -> Option<&mut T> {
        if !self.check(handle) {
            return None;
        }
        match &mut self.entries[handle.slot() as usize] {
            Entry::Occupied { value } => Some(value),
            Entry::Free { .. } => None,
        }
    }

    /// Removes and returns the entry behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (its slot was already removed): a
    /// double-remove is a bookkeeping bug, not a recoverable condition.
    pub fn remove(&mut self, handle: Handle) -> T {
        assert!(
            self.check(handle),
            "stale slab handle {handle}: slot generation is {}",
            self.generations
                .get(handle.slot() as usize)
                .copied()
                .unwrap_or(0)
        );
        let slot = handle.slot() as usize;
        let prev = std::mem::replace(
            &mut self.entries[slot],
            Entry::Free {
                next: self.free_head,
            },
        );
        match prev {
            Entry::Occupied { value } => {
                self.generations[slot] = self.generations[slot].wrapping_add(1);
                self.free_head = handle.slot();
                self.len -= 1;
                value
            }
            Entry::Free { next } => {
                // Roll back: the slot was already free (cannot happen while
                // generations are checked, but keep the structure sound).
                self.entries[slot] = Entry::Free { next };
                panic!("slab slot {slot} removed twice");
            }
        }
    }

    /// Iterates live entries in slot order (deterministic: slot order is a
    /// pure function of the insert/remove history).
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(slot, e)| match e {
                Entry::Occupied { value } => Some((
                    Handle(u64::from(self.generations[slot]) << 32 | slot as u64),
                    value,
                )),
                Entry::Free { .. } => None,
            })
    }

    /// Iterates live entries mutably in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Handle, &mut T)> {
        let generations = &self.generations;
        self.entries
            .iter_mut()
            .enumerate()
            .filter_map(move |(slot, e)| match e {
                Entry::Occupied { value } => Some((
                    Handle(u64::from(generations[slot]) << 32 | slot as u64),
                    value,
                )),
                Entry::Free { .. } => None,
            })
    }

    /// Iterates live values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }
}

impl<T> std::ops::Index<Handle> for Slab<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics on a stale handle.
    #[inline]
    fn index(&self, handle: Handle) -> &T {
        self.get(handle)
            .unwrap_or_else(|| panic!("stale slab handle {handle}"))
    }
}

impl<T> std::ops::IndexMut<Handle> for Slab<T> {
    /// # Panics
    ///
    /// Panics on a stale handle.
    #[inline]
    fn index_mut(&mut self, handle: Handle) -> &mut T {
        self.get_mut(handle)
            .unwrap_or_else(|| panic!("stale slab handle {handle}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab[a], 10);
        assert_eq!(slab[b], 20);
        assert_eq!(slab.remove(a), 10);
        assert_eq!(slab.len(), 1);
        assert!(slab.get(a).is_none());
    }

    #[test]
    fn slots_recycle_lifo_with_fresh_generations() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        slab.remove(a);
        slab.remove(b);
        // LIFO: b's slot comes back first.
        let c = slab.insert("c");
        assert_eq!(c.slot(), b.slot());
        assert_eq!(c.generation(), b.generation() + 1);
        // The stale handle still refuses to resolve.
        assert!(slab.get(b).is_none());
        assert_eq!(slab[c], "c");
    }

    #[test]
    #[should_panic(expected = "stale slab handle")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    fn stale_handle_cannot_alias_recycled_slot() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        assert_eq!(a.slot(), b.slot(), "test needs slot reuse");
        assert!(slab.get(a).is_none(), "stale handle resolved");
        assert_eq!(slab[b], 2);
    }

    #[test]
    fn bits_roundtrip_and_iteration_order() {
        let mut slab = Slab::new();
        let hs: Vec<Handle> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(hs[2]);
        let live: Vec<i32> = slab.values().copied().collect();
        assert_eq!(live, vec![0, 1, 3, 4]);
        for h in [hs[0], hs[4]] {
            assert_eq!(Handle::from_bits(h.to_bits()), h);
        }
    }

    #[test]
    fn deterministic_handle_sequence() {
        let run = || {
            let mut slab = Slab::new();
            let mut log = Vec::new();
            let mut live = Vec::new();
            for i in 0..100u32 {
                let h = slab.insert(i);
                log.push(h);
                live.push(h);
                if i % 3 == 0 {
                    let h = live.remove(live.len() / 2);
                    slab.remove(h);
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
