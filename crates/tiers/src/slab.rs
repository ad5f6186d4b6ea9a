//! A generational arena for in-flight request/query state.
//!
//! Requests churn at thousands per simulated second; the arena keeps their
//! state in one contiguous allocation with O(1) insert/remove and stable
//! `u32` handles (which double as CPU job ids). Two properties matter on the
//! hot path:
//!
//! * **Intrusive free list.** A vacant slot stores the index of the next
//!   free slot in place of a payload, so freeing and reusing a slot never
//!   allocates — there is no side `Vec<u32>` of free indices growing and
//!   shrinking with churn. Steady-state insert/remove touches exactly one
//!   slot plus the free-list head.
//! * **Generation counters.** Each slot remembers how many times it has
//!   been reused. The simulation's own stale-handle defense (timeout
//!   sequence numbers) guards the protocol layer; generations guard the
//!   storage layer, turning any use-after-free of a *reused* slot into an
//!   immediate panic instead of silent corruption, and giving tests a way
//!   to observe reuse directly ([`Slab::generation`]).

/// Free-list terminator.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Entry<T> {
    /// Vacant; holds the next free slot index (or [`NIL`]).
    Free(u32),
    Occupied(T),
}

/// Generational arena of `T` with `u32` handles ("slab" by historical name).
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Per-slot reuse counts; bumped on remove.
    generations: Vec<u32>,
    /// Head of the intrusive free list ([`NIL`] when full).
    free_head: u32,
    len: usize,
}

impl<T> Slab<T> {
    /// New empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            generations: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// New slab with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(cap),
            generations: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Reserve room for at least `additional` more live entries.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.generations.reserve(additional);
    }

    /// Allocated slot capacity.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Insert a value, returning its handle.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.entries[idx as usize] {
                Entry::Free(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("slab: occupied slot on free list"),
            }
            self.entries[idx as usize] = Entry::Occupied(value);
            idx
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(Entry::Occupied(value));
            self.generations.push(0);
            idx
        }
    }

    /// Shared access by handle.
    ///
    /// # Panics
    /// If the handle is vacant (a use-after-free in the simulation logic).
    pub fn get(&self, idx: u32) -> &T {
        match &self.entries[idx as usize] {
            Entry::Occupied(v) => v,
            Entry::Free(_) => panic!("slab: access to vacant slot"),
        }
    }

    /// Mutable access by handle.
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        match &mut self.entries[idx as usize] {
            Entry::Occupied(v) => v,
            Entry::Free(_) => panic!("slab: access to vacant slot"),
        }
    }

    /// Remove and return the value at `idx`, bumping the slot's generation.
    pub fn remove(&mut self, idx: u32) -> T {
        match std::mem::replace(&mut self.entries[idx as usize], Entry::Free(self.free_head)) {
            Entry::Occupied(v) => {
                self.free_head = idx;
                self.generations[idx as usize] = self.generations[idx as usize].wrapping_add(1);
                self.len -= 1;
                v
            }
            Entry::Free(prev) => {
                // Undo the replace so the free list is not corrupted, then die.
                self.entries[idx as usize] = Entry::Free(prev);
                panic!("slab: double free");
            }
        }
    }

    /// Number of slots ever used, live or vacant (handles are `0..slots()`).
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Whether the handle is occupied.
    pub fn contains(&self, idx: u32) -> bool {
        matches!(self.entries.get(idx as usize), Some(Entry::Occupied(_)))
    }

    /// How many times slot `idx` has been reused (bumped on each remove).
    /// Handles minted before the current generation are stale.
    pub fn generation(&self, idx: u32) -> u32 {
        self.generations[idx as usize]
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over live entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(v) => Some((i as u32, v)),
                Entry::Free(_) => None,
            })
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(*s.get(a), "a");
        assert_eq!(*s.get(b), "b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), "a");
        assert_eq!(s.len(), 1);
        assert!(!s.contains(a));
        assert!(s.contains(b));
    }

    #[test]
    fn slots_are_reused() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(*s.get(b), 2);
    }

    #[test]
    fn free_list_is_lifo_and_allocation_free() {
        let mut s = Slab::new();
        let handles: Vec<u32> = (0..8).map(|i| s.insert(i)).collect();
        let cap = s.capacity();
        for &h in &handles {
            s.remove(h);
        }
        // Reuse never grows the arena: most-recently-freed slot first.
        for i in (0..8).rev() {
            assert_eq!(s.insert(100), handles[i as usize]);
        }
        assert_eq!(s.capacity(), cap);
        assert_eq!(s.slots(), 8);
    }

    #[test]
    fn generations_track_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        assert_eq!(s.generation(a), 0);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(a, b);
        assert_eq!(s.generation(b), 1);
        s.remove(b);
        s.insert(3);
        assert_eq!(s.generation(b), 2);
    }

    #[test]
    fn mutation() {
        let mut s = Slab::new();
        let a = s.insert(10);
        *s.get_mut(a) += 5;
        assert_eq!(*s.get(a), 15);
    }

    #[test]
    fn iteration_skips_vacant() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let _b = s.insert(2);
        let _c = s.insert(3);
        s.remove(a);
        let live: Vec<i32> = s.iter().map(|(_, &v)| v).collect();
        assert_eq!(live, vec![2, 3]);
    }

    #[test]
    fn reserve_and_capacity() {
        let mut s = Slab::<u8>::with_capacity(16);
        assert!(s.capacity() >= 16);
        s.reserve(100);
        assert!(s.capacity() >= 100);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.remove(a);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn use_after_free_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let _ = s.get(a);
    }

    #[test]
    fn is_empty() {
        let mut s = Slab::<u8>::new();
        assert!(s.is_empty());
        let a = s.insert(0);
        assert!(!s.is_empty());
        s.remove(a);
        assert!(s.is_empty());
    }
}
