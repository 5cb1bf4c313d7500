//! A minimal inline-first vector for the spawn hot path.
//!
//! Every spawn builds a transfer list (the promises moving to the child,
//! plus the implicit completion promise) and seeds the child's owned ledger
//! with it.  With a plain `Vec` both of those are a heap allocation per
//! spawn even though the overwhelmingly common case is zero to three
//! entries.  [`SmallVec`] keeps the first `N` elements inline (in the spawn
//! path: inside the task record that already lives in a recycled job block,
//! see `crate::job`) and only spills to the heap beyond that, so the
//! steady-state spawn path performs no allocator call for its lists.
//!
//! Deliberately tiny: only the operations the transfer/ledger code needs
//! (`push`, iteration, `swap_remove`, `len`).  Elements are *not* contiguous
//! once spilled — there is no `as_slice`; use [`iter`](SmallVec::iter).

use std::mem::{ManuallyDrop, MaybeUninit};

/// A vector storing its first `N` elements inline and the rest in a spilled
/// `Vec`.  See the [module docs](self).
pub struct SmallVec<T, const N: usize> {
    /// Total number of elements (inline + spilled).
    len: usize,
    /// The first `min(len, N)` entries, initialised in order.
    inline: [MaybeUninit<T>; N],
    /// Entries beyond the inline capacity.
    spill: Vec<T>,
}

impl<T, const N: usize> SmallVec<T, N> {
    /// Creates an empty list (no heap allocation).
    pub const fn new() -> Self {
        SmallVec {
            len: 0,
            inline: [const { MaybeUninit::uninit() }; N],
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn inline_len(&self) -> usize {
        self.len.min(N)
    }

    /// The initialised inline prefix as a slice.
    #[inline]
    fn inline_slice(&self) -> &[T] {
        // SAFETY: the first `inline_len` inline entries are always
        // initialised (push fills them in order; swap_remove keeps the
        // prefix dense).
        unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.inline_len()) }
    }

    /// Appends an element (inline while there is capacity, spilling beyond).
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len].write(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        if index < N {
            Some(&self.inline_slice()[index])
        } else {
            self.spill.get(index - N)
        }
    }

    /// Iterates the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline_slice().iter().chain(self.spill.iter())
    }

    /// Keeps only the elements for which `keep` returns `true`, in
    /// amortized O(len) with no allocation.  Order is **not** preserved
    /// (removal is by [`swap_remove`](Self::swap_remove)).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut i = 0;
        while i < self.len {
            let keep_it = keep(self.get(i).expect("index is in bounds"));
            if keep_it {
                i += 1;
            } else {
                // The swapped-in (previously last) element lands at `i` and
                // is examined on the next iteration.
                drop(self.swap_remove(i));
            }
        }
    }

    /// Removes and returns the element at `index`, replacing it with the
    /// last element (order is not preserved).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "swap_remove index out of bounds");
        let last_index = self.len - 1;
        // Take the last element out first, then drop it into the hole (or
        // return it directly when it *is* the hole).
        let last = if last_index >= N {
            self.spill.pop().expect("spill holds the last element")
        } else {
            // SAFETY: entry `last_index` is initialised; `len` is decremented
            // below so it is never read again.
            unsafe { self.inline[last_index].assume_init_read() }
        };
        self.len = last_index;
        if index == last_index {
            return last;
        }
        if index < N {
            // SAFETY: entry `index` is initialised (index < old len and < N).
            let out = unsafe { self.inline[index].assume_init_read() };
            self.inline[index].write(last);
            out
        } else {
            std::mem::replace(&mut self.spill[index - N], last)
        }
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T, const N: usize> Drop for SmallVec<T, N> {
    fn drop(&mut self) {
        for slot in &mut self.inline[..self.len.min(N)] {
            // SAFETY: the inline prefix is initialised; each entry is dropped
            // exactly once, here.
            unsafe { slot.assume_init_drop() };
        }
        // `spill` drops itself.
    }
}

impl<T, const N: usize> From<Vec<T>> for SmallVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        let mut out = SmallVec::new();
        for item in v {
            out.push(item);
        }
        out
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}

/// Consuming iterator over a [`SmallVec`].
pub struct IntoIter<T, const N: usize> {
    inline: [MaybeUninit<T>; N],
    front: usize,
    inline_len: usize,
    spill: std::vec::IntoIter<T>,
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.front < self.inline_len {
            // SAFETY: entries `front..inline_len` are initialised and each
            // is read exactly once (front only advances).
            let item = unsafe { self.inline[self.front].assume_init_read() };
            self.front += 1;
            Some(item)
        } else {
            self.spill.next()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.inline_len - self.front + self.spill.len();
        (n, Some(n))
    }
}

impl<T, const N: usize> Drop for IntoIter<T, N> {
    fn drop(&mut self) {
        for slot in &mut self.inline[self.front..self.inline_len] {
            // SAFETY: not yet yielded, so still initialised.
            unsafe { slot.assume_init_drop() };
        }
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        let me = ManuallyDrop::new(self);
        // SAFETY: `me` is never dropped, so both fields are moved out of it
        // exactly once.
        let inline = unsafe { std::ptr::read(&me.inline) };
        let spill = unsafe { std::ptr::read(&me.spill) };
        IntoIter {
            inline,
            front: 0,
            inline_len: me.len.min(N),
            spill: spill.into_iter(),
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, T>, std::slice::Iter<'a, T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.inline_slice().iter().chain(self.spill.iter())
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn push_and_iterate_across_the_spill_boundary() {
        let mut v: SmallVec<usize, 4> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
        assert_eq!(v.get(3), Some(&3));
        assert_eq!(v.get(7), Some(&7));
        assert_eq!(v.get(10), None);
    }

    #[test]
    fn swap_remove_inline_and_spilled() {
        let mut v: SmallVec<usize, 2> = (0..5).collect();
        // Remove a spilled entry: last (4) fills the hole.
        assert_eq!(v.swap_remove(3), 3);
        let got: Vec<usize> = v.iter().copied().collect();
        assert_eq!(got, vec![0, 1, 2, 4]);
        // Remove an inline entry: the spilled last element (4) moves inline.
        assert_eq!(v.swap_remove(0), 0);
        let got: Vec<usize> = v.iter().copied().collect();
        assert_eq!(got, vec![4, 1, 2]);
        // Remove the last element directly.
        assert_eq!(v.swap_remove(2), 2);
        assert_eq!(v.len(), 2);
        // Fully inline removals.
        assert_eq!(v.swap_remove(0), 4);
        assert_eq!(v.swap_remove(0), 1);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn swap_remove_out_of_bounds_panics() {
        let mut v: SmallVec<u8, 2> = SmallVec::new();
        v.push(1);
        let _ = v.swap_remove(1);
    }

    #[derive(Clone)]
    struct CountsDrops(Arc<AtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_element_drops_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut v: SmallVec<CountsDrops, 2> = SmallVec::new();
        for _ in 0..5 {
            v.push(CountsDrops(Arc::clone(&drops)));
        }
        drop(v.swap_remove(1));
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), 5);

        let from_vec: SmallVec<CountsDrops, 2> = vec![CountsDrops(Arc::clone(&drops)); 3].into();
        drop(from_vec);
        assert_eq!(drops.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn consuming_iteration_yields_in_order_and_drops_the_rest() {
        let v: SmallVec<String, 2> = (0..5).map(|i| i.to_string()).collect();
        let collected: Vec<String> = v.into_iter().collect();
        assert_eq!(collected, vec!["0", "1", "2", "3", "4"]);

        // A partially consumed iterator drops the unyielded elements.
        let drops = Arc::new(AtomicUsize::new(0));
        let v: SmallVec<CountsDrops, 2> = (0..5).map(|_| CountsDrops(Arc::clone(&drops))).collect();
        let mut iter = v.into_iter();
        drop(iter.next());
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(iter);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }
}
