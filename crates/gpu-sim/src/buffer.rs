//! Device buffers.
//!
//! The simulated device owns all global memory. Host code refers to buffers
//! through typed handles ([`BufF32`], [`BufU32`], [`BufU64`]) issued by the
//! [`BufferPool`]; kernels access them through the execution context so that
//! every access is cost-accounted. Three element types cover everything the
//! N-body plans need: `f32` for positions/masses/accelerations (the device
//! works in single precision like the real HD 5850), `u32` for interaction
//! lists and walk offsets, and `u64` for Morton keys and f64 bit patterns in
//! the on-device tree pipeline.

use serde::{Deserialize, Serialize};

/// Handle to an `f32` device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufF32(pub(crate) u32);

impl BufF32 {
    /// Raw handle index (used by the race detector's reports).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Handle to a `u32` device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufU32(pub(crate) u32);

impl BufU32 {
    /// Raw handle index (used by the race detector's reports).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Handle to a `u64` device buffer (Morton keys, f64 bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufU64(pub(crate) u32);

impl BufU64 {
    /// Raw handle index (used by the race detector's reports).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// All global memory of one simulated device.
///
/// Buffers are released in stack order: [`BufferPool::mark`] records the
/// allocation point and [`BufferPool::release`] drops every buffer
/// allocated after it — the scope of one force evaluation, so a long-lived
/// device does not grow with every step.
#[derive(Debug, Default, Clone)]
pub struct BufferPool {
    f32_bufs: Vec<Vec<f32>>,
    u32_bufs: Vec<Vec<u32>>,
    u64_bufs: Vec<Vec<u64>>,
    live_bytes: usize,
    peak_bytes: usize,
}

/// An allocation point of a [`BufferPool`], taken by [`BufferPool::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMark {
    f32s: usize,
    u32s: usize,
    u64s: usize,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a zero-initialized `f32` buffer of `len` elements.
    pub fn alloc_f32(&mut self, len: usize) -> BufF32 {
        let id = BufF32(self.f32_bufs.len() as u32);
        self.f32_bufs.push(vec![0.0; len]);
        self.note_alloc(len * 4);
        id
    }

    /// Allocates a zero-initialized `u32` buffer of `len` elements.
    pub fn alloc_u32(&mut self, len: usize) -> BufU32 {
        let id = BufU32(self.u32_bufs.len() as u32);
        self.u32_bufs.push(vec![0; len]);
        self.note_alloc(len * 4);
        id
    }

    /// Allocates a zero-initialized `u64` buffer of `len` elements.
    pub fn alloc_u64(&mut self, len: usize) -> BufU64 {
        let id = BufU64(self.u64_bufs.len() as u32);
        self.u64_bufs.push(vec![0; len]);
        self.note_alloc(len * 8);
        id
    }

    /// Read-only view of an `f32` buffer.
    pub fn f32(&self, id: BufF32) -> &[f32] {
        &self.f32_bufs[id.0 as usize]
    }

    /// Mutable view of an `f32` buffer.
    pub fn f32_mut(&mut self, id: BufF32) -> &mut [f32] {
        &mut self.f32_bufs[id.0 as usize]
    }

    /// Read-only view of a `u32` buffer.
    pub fn u32(&self, id: BufU32) -> &[u32] {
        &self.u32_bufs[id.0 as usize]
    }

    /// Mutable view of a `u32` buffer.
    pub fn u32_mut(&mut self, id: BufU32) -> &mut [u32] {
        &mut self.u32_bufs[id.0 as usize]
    }

    /// Read-only view of a `u64` buffer.
    pub fn u64(&self, id: BufU64) -> &[u64] {
        &self.u64_bufs[id.0 as usize]
    }

    /// Mutable view of a `u64` buffer.
    pub fn u64_mut(&mut self, id: BufU64) -> &mut [u64] {
        &mut self.u64_bufs[id.0 as usize]
    }

    /// Length in elements of an `f32` buffer.
    pub fn len_f32(&self, id: BufF32) -> usize {
        self.f32_bufs[id.0 as usize].len()
    }

    /// Length in elements of a `u32` buffer.
    pub fn len_u32(&self, id: BufU32) -> usize {
        self.u32_bufs[id.0 as usize].len()
    }

    /// Length in elements of a `u64` buffer.
    pub fn len_u64(&self, id: BufU64) -> usize {
        self.u64_bufs[id.0 as usize].len()
    }

    /// Total allocated bytes across all live buffers.
    pub fn total_bytes(&self) -> usize {
        self.live_bytes
    }

    /// High-water mark of [`BufferPool::total_bytes`] since the last
    /// [`BufferPool::mark`] (over the pool's lifetime if never marked) —
    /// the device-memory footprint an out-of-core shard plan is budgeted
    /// against.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    fn note_alloc(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Records the current allocation point for a later
    /// [`BufferPool::release`], and restarts the high-water mark at the
    /// bytes live now.
    pub fn mark(&mut self) -> PoolMark {
        self.peak_bytes = self.live_bytes;
        PoolMark { f32s: self.f32_bufs.len(), u32s: self.u32_bufs.len(), u64s: self.u64_bufs.len() }
    }

    /// Drops every buffer allocated after `mark`. Their handles dangle
    /// afterwards: the caller must not use them again.
    ///
    /// # Panics
    /// Panics if buffers allocated before `mark` were already released.
    pub fn release(&mut self, mark: PoolMark) {
        assert!(
            mark.f32s <= self.f32_bufs.len()
                && mark.u32s <= self.u32_bufs.len()
                && mark.u64s <= self.u64_bufs.len(),
            "pool mark {mark:?} is past the live buffers"
        );
        let f: usize = self.f32_bufs.drain(mark.f32s..).map(|b| b.len() * 4).sum();
        let u: usize = self.u32_bufs.drain(mark.u32s..).map(|b| b.len() * 4).sum();
        let w: usize = self.u64_bufs.drain(mark.u64s..).map(|b| b.len() * 8).sum();
        self.live_bytes -= f + u + w;
    }

    /// Number of live buffers (all types).
    pub fn buffer_count(&self) -> usize {
        self.f32_bufs.len() + self.u32_bufs.len() + self.u64_bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zero_initialized() {
        let mut p = BufferPool::new();
        let a = p.alloc_f32(8);
        let b = p.alloc_u32(4);
        assert_eq!(p.f32(a), &[0.0; 8]);
        assert_eq!(p.u32(b), &[0; 4]);
        assert_eq!(p.len_f32(a), 8);
        assert_eq!(p.len_u32(b), 4);
    }

    #[test]
    fn handles_are_independent() {
        let mut p = BufferPool::new();
        let a = p.alloc_f32(2);
        let b = p.alloc_f32(2);
        p.f32_mut(a)[0] = 1.0;
        p.f32_mut(b)[1] = 2.0;
        assert_eq!(p.f32(a), &[1.0, 0.0]);
        assert_eq!(p.f32(b), &[0.0, 2.0]);
    }

    #[test]
    fn accounting() {
        let mut p = BufferPool::new();
        p.alloc_f32(100);
        p.alloc_u32(50);
        assert_eq!(p.total_bytes(), 600);
        assert_eq!(p.buffer_count(), 2);
        p.alloc_u64(25);
        assert_eq!(p.total_bytes(), 800);
        assert_eq!(p.buffer_count(), 3);
        assert_eq!(p.peak_bytes(), 800);
    }

    #[test]
    fn release_drops_what_the_mark_did_not_see() {
        let mut p = BufferPool::new();
        let kept = p.alloc_f32(10);
        p.f32_mut(kept)[3] = 7.0;
        let mark = p.mark();
        assert_eq!(p.peak_bytes(), 40, "the mark restarts the high-water mark");
        p.alloc_f32(100);
        p.alloc_u32(20);
        p.alloc_u64(5);
        assert_eq!(p.total_bytes(), 40 + 400 + 80 + 40);
        p.release(mark);
        assert_eq!(p.total_bytes(), 40);
        assert_eq!(p.buffer_count(), 1);
        assert_eq!(p.peak_bytes(), 560, "the peak survives the release");
        assert_eq!(p.f32(kept)[3], 7.0);
        // a second scope reuses the handle indices and sees only its own peak
        let mark = p.mark();
        let again = p.alloc_f32(2);
        assert_eq!(again, BufF32(1));
        assert_eq!(p.peak_bytes(), 48);
        p.release(mark);
        assert_eq!(p.total_bytes(), 40);
    }

    #[test]
    #[should_panic(expected = "past the live buffers")]
    fn stale_mark_is_rejected() {
        let mut p = BufferPool::new();
        let outer = p.mark();
        p.alloc_f32(1);
        let inner = p.mark();
        p.release(outer);
        p.release(inner);
    }

    #[test]
    fn u64_buffers_roundtrip() {
        let mut p = BufferPool::new();
        let k = p.alloc_u64(4);
        assert_eq!(p.u64(k), &[0; 4]);
        assert_eq!(p.len_u64(k), 4);
        p.u64_mut(k)[2] = u64::MAX;
        assert_eq!(p.u64(k)[2], u64::MAX);
        assert_eq!(k.raw(), 0);
    }
}
