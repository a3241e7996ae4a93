//! The copy-on-write cell array of the element store: a vector cut into
//! fixed-length chunks behind a spine of [`Arc`]s (DESIGN.md §12.4).
//!
//! Cloning a [`Chunked`] clones the spine — one refcount bump per chunk,
//! never a cell. A write through [`Chunked::get_mut`] or
//! [`Chunked::push`] takes [`Arc::make_mut`] on the one chunk it lands in,
//! so while a clone (a snapshot, a savepoint) shares the vector, a write
//! copies `CHUNK_LEN` cells instead of all of them. Every chunk is a full
//! power-of-two-length array — the last one padded with clones of its
//! first cell, which no index reaches — so indexing is a shift, a mask and
//! one bounds check (on the spine).

use std::sync::Arc;

const CHUNK_BITS: u32 = 6;
pub(crate) const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_LEN - 1;

/// One chunk. Aligned to a cache line so that inside the `Arc` allocation
/// the slots readers load sit on different lines from the refcounts every
/// spine clone and drop writes to — otherwise a committing writer keeps
/// invalidating, on the readers' core, lines their scans go through.
#[repr(align(64))]
#[derive(Debug, Clone)]
pub(crate) struct Chunk<T>([T; CHUNK_LEN]);

/// A vector of `T` in `CHUNK_LEN`-cell copy-on-write chunks.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

/// Content equality over the first `len` cells: the padding differs with
/// history, and a chunk both sides share is equal without a look.
impl<T: PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.chunks.iter().zip(&other.chunks).enumerate().all(|(i, (a, b))| {
                let n = (self.len - i * CHUNK_LEN).min(CHUNK_LEN);
                Arc::ptr_eq(a, b) || a.0[..n] == b.0[..n]
            })
    }
}

impl<T: Eq> Eq for Chunked<T> {}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new(), len: 0 }
    }
}

impl<T: Clone> Chunked<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        &self.chunks[i >> CHUNK_BITS].0[i & CHUNK_MASK]
    }

    /// Mutable access to one slot; copies the slot's chunk first if a
    /// clone still shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_BITS]).0[i & CHUNK_MASK]
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(Chunk(std::array::from_fn(|_| value.clone()))));
        } else {
            let last = self.chunks.last_mut().expect("a partly filled chunk");
            Arc::make_mut(last).0[self.len & CHUNK_MASK] = value;
        }
        self.len += 1;
    }

    /// Every cell, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.slices().flatten()
    }

    /// The cells chunk by chunk, as slices: the last one stops at `len`.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[T]> + Clone {
        let len = self.len;
        (self.chunks.iter().enumerate())
            .map(move |(i, c)| &c.0[..(len - i * CHUNK_LEN).min(CHUNK_LEN)])
    }

    /// The spine, for asserting which chunks two versions share.
    pub(crate) fn chunks(&self) -> &[Arc<Chunk<T>>] {
        &self.chunks
    }
}

impl<T: Clone> Chunked<T> {
    /// Bulk construction: one allocation per chunk, no per-cell
    /// `make_mut`.
    pub(crate) fn from_slice(cells: &[T]) -> Chunked<T> {
        let chunk = |c: &[T]| std::array::from_fn(|i| c.get(i).unwrap_or(&c[0]).clone());
        let chunks = cells.chunks(CHUNK_LEN).map(|c| Arc::new(Chunk(chunk(c)))).collect();
        Chunked { chunks, len: cells.len() }
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Chunked::from_slice(&iter.into_iter().collect::<Vec<T>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_push_and_iteration_agree_with_a_plain_vector() {
        let n = 3 * CHUNK_LEN + 5;
        let mut c: Chunked<usize> = (0..n).collect();
        assert_eq!(c.len(), n);
        assert_eq!(c.chunks().len(), 4);
        assert!(c.iter().copied().eq(0..n));
        *c.get_mut(CHUNK_LEN + 1) = 7;
        assert_eq!(*c.get(CHUNK_LEN + 1), 7);
        assert_eq!(*c.get(n - 1), n - 1);
    }

    #[test]
    fn a_write_copies_only_the_chunk_it_lands_in() {
        let mut live: Chunked<usize> = (0..4 * CHUNK_LEN).collect();
        let pinned = live.clone();
        *live.get_mut(2 * CHUNK_LEN) = 99;
        live.push(1);
        for (i, (a, b)) in live.chunks().iter().zip(pinned.chunks()).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), i != 2, "chunk {i}");
        }
        assert_eq!(*pinned.get(2 * CHUNK_LEN), 2 * CHUNK_LEN);
        assert_eq!(pinned.len(), 4 * CHUNK_LEN);
        assert_eq!(live.len(), 4 * CHUNK_LEN + 1);
    }
}
