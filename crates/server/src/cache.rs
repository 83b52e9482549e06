//! The durable backend's cell cache: the cells its disk does not have yet.
//!
//! [`CellCache`] keeps cell *payloads* for
//! [`DiskStore`](crate::DiskStore) in a slab of stride-sized slots, while
//! the per-cell metadata (lengths — and this cache's 4-byte page-table
//! entry) stays fully resident. Lookup is a single array index —
//! `addr → slot` goes through a flat `Vec<u32>` page table, not a hash map
//! — because the cache sits on the zero-copy read hot path, where a
//! per-cell hash would triple the cost of a hit.
//!
//! The rule is **RAM holds what the disk lacks** (NOTES.md, entry 12). In
//! the bounded layout every slot is *dirty*: it holds a cell the arena file
//! does not have yet — durable in the WAL, or in the batch being committed,
//! but not written back. A write takes a slot (or reuses the one its cell
//! already has); a clean read never does — the store serves it from the
//! arena file, lent or read into a scratch buffer. Write-back empties the
//! cache, and the store runs it at a checkpoint and after a commit that
//! leaves more dirty cells than the byte budget has slots — so the dirty
//! set grows past the budget only inside one batch. There is nothing to
//! evict: a dirty cell cannot leave before write-back, and a clean one
//! never enters.
//!
//! When the byte budget covers the whole database (`max_slots ≥
//! capacity`) the cache instead runs in **identity mode**: the slab is
//! laid out `slot == addr` and sized `capacity × stride` up front, the
//! store warms it with one bulk arena read (or moves set-up's image into
//! it), and every cell stays resident, clean or dirty — so the
//! read path is a direct slab slice with no page-table load at all, and
//! write-back only forgets which cells were dirty. The mode is chosen once
//! per set-up: the stride it derives the slot budget from is fixed until
//! the next one (NOTES.md, entry 13).
//!
//! The cache does no counting: the store owns the hit and miss counters
//! ([`CacheTelemetry`](crate::CacheTelemetry)).

/// Sentinel in the page table: address not resident.
const NONE_SLOT: u32 = u32::MAX;

/// A slab of stride-sized cell slots with a flat page table (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct CellCache {
    /// Slot width in bytes (the store's stride).
    stride: usize,
    /// Slot budget derived from `cache_bytes / stride`: the dirty count
    /// past which a commit writes back.
    max_slots: usize,
    /// Slot payloads: slot `i` at `i * stride`.
    data: Vec<u8>,
    /// Page table: address → slot (or [`NONE_SLOT`]). One entry per cell.
    slot_of: Vec<u32>,
    /// The addresses written since the last write-back, first-dirtied
    /// order. Bounded mode: `dirty[slot]` is the address in `slot` — every
    /// slot is dirty — until [`CellCache::sort_dirty`] reorders the list
    /// for write-back. Identity mode: an address may repeat (a rewrite
    /// pushes it again); `sort_dirty` removes the repeats.
    dirty: Vec<usize>,
    /// Number of slots currently holding a cell.
    live: usize,
    /// Identity mode: the budget covers every cell and `slot == addr` (see
    /// the [module docs](self)).
    identity: bool,
}

impl CellCache {
    /// An empty cache for a store of `capacity` cells at `stride`, bounded
    /// by `cache_bytes` of slot payload.
    pub fn new(capacity: usize, stride: usize, cache_bytes: usize) -> Self {
        Self::over(capacity, stride, cache_bytes, Vec::new())
    }

    /// [`CellCache::new`] for a store whose arena image the caller holds:
    /// in identity mode `image` (`capacity × stride` bytes, or none for
    /// zeros) *becomes* the slab — moved, not copied; the caller still
    /// marks the written cells resident ([`CellCache::adopt`]). A bounded
    /// cache starts empty and drops it.
    pub fn over(capacity: usize, stride: usize, cache_bytes: usize, image: Vec<u8>) -> Self {
        let max_slots = budget_slots(cache_bytes, stride);
        let identity = max_slots >= capacity;
        // Identity mode pre-sizes the slab (it is within the byte budget
        // by definition); bounded mode grows it slot by slot on demand.
        let slots = if identity { capacity } else { 0 };
        debug_assert!(image.is_empty() || image.len() == capacity * stride);
        let data = if image.len() == slots * stride { image } else { vec![0u8; slots * stride] };
        Self {
            stride,
            max_slots,
            data,
            slot_of: vec![NONE_SLOT; capacity],
            dirty: Vec::new(),
            live: 0,
            identity,
        }
    }

    /// The slot holding `addr`, or `None` when the cell is not resident.
    #[inline]
    pub fn slot(&self, addr: usize) -> Option<usize> {
        let slot = self.slot_of[addr];
        (slot != NONE_SLOT).then_some(slot as usize)
    }

    /// Whether the cache runs in identity mode (budget covers every
    /// cell; reads can use [`CellCache::identity_bytes`] directly).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Identity-mode direct read: the first `len` payload bytes of
    /// `addr`'s slab position. No residency check — the store's warm-up
    /// invariant (every non-empty cell is resident) makes the slice
    /// authoritative for any cell.
    #[inline]
    pub fn identity_bytes(&self, addr: usize, len: usize) -> &[u8] {
        debug_assert!(self.identity);
        &self.data[addr * self.stride..addr * self.stride + len]
    }

    /// The whole identity-mode slab, for bulk warm-up from the arena.
    pub fn slab_mut(&mut self) -> &mut [u8] {
        debug_assert!(self.identity);
        &mut self.data
    }

    /// Identity-mode bookkeeping: marks `addr` resident without touching
    /// its payload (the caller filled the slab position).
    pub fn adopt(&mut self, addr: usize) {
        debug_assert!(self.identity);
        if self.slot_of[addr] == NONE_SLOT {
            self.slot_of[addr] = addr as u32;
            self.live += 1;
        }
    }

    /// The first `len` payload bytes of `slot`.
    #[inline]
    pub fn slot_bytes(&self, slot: usize, len: usize) -> &[u8] {
        &self.data[slot * self.stride..slot * self.stride + len]
    }

    /// Mutable access to the first `len` payload bytes of `slot`.
    #[inline]
    pub fn slot_bytes_mut(&mut self, slot: usize, len: usize) -> &mut [u8] {
        &mut self.data[slot * self.stride..slot * self.stride + len]
    }

    /// The slot a write of `addr` goes to, marked dirty: the one `addr`
    /// already has, its own in identity mode, else the next one the slab
    /// grows by — past the budget if need be, until the commit that
    /// writes back.
    pub fn dirty_slot(&mut self, addr: usize) -> usize {
        if self.identity {
            self.adopt(addr);
            self.dirty.push(addr);
            return addr;
        }
        if let Some(slot) = self.slot(addr) {
            return slot;
        }
        let slot = self.live;
        self.live += 1;
        self.slot_of[addr] = slot as u32;
        self.dirty.push(addr);
        self.data.resize(self.data.len().max(self.live * self.stride), 0);
        slot
    }

    /// Puts the dirty addresses in ascending order, each once — the
    /// write-back order, deterministic so crash schedules replay
    /// identically. Afterwards the list no longer says which slot holds
    /// which cell; the page table still does, so every dirty cell is served
    /// until [`CellCache::clean_all`].
    pub fn sort_dirty(&mut self) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
    }

    /// The addresses written since the last write-back (see
    /// [`CellCache::sort_dirty`]).
    pub fn dirty(&self) -> &[usize] {
        &self.dirty
    }

    /// Whether more cells are dirty than the budget has slots — the
    /// commit's cue to write back.
    pub fn over_budget(&self) -> bool {
        self.live > self.max_slots
    }

    /// Every dirty cell is in the arena now (written back): a bounded cache
    /// empties, an identity slab only forgets which of its cells were dirty.
    pub fn clean_all(&mut self) {
        if !self.identity {
            for &addr in &self.dirty {
                self.slot_of[addr] = NONE_SLOT;
            }
            self.live = 0;
        }
        self.dirty.clear();
    }

    /// Number of slots currently holding a cell.
    pub fn resident(&self) -> usize {
        self.live
    }
}

/// Slot budget for a byte budget: at least one slot (a budget smaller than
/// one cell still lets one dirty cell wait for the next commit), except for
/// the degenerate stride-0 geometry, which caches nothing because
/// zero-length cells carry no payload at all.
fn budget_slots(cache_bytes: usize, stride: usize) -> usize {
    cache_bytes.checked_div(stride).map_or(0, |slots| slots.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(cache: &mut CellCache, addr: usize, byte: u8, len: usize) -> usize {
        let slot = cache.dirty_slot(addr);
        cache.slot_bytes_mut(slot, len).fill(byte);
        slot
    }

    #[test]
    fn lookup_hits_resident_and_misses_absent() {
        let mut cache = CellCache::new(16, 8, 64);
        assert_eq!(cache.slot(3), None);
        written(&mut cache, 3, 0xAB, 8);
        let slot = cache.slot(3).expect("resident after a write");
        assert_eq!(cache.slot_bytes(slot, 8), &[0xAB; 8]);
        assert_eq!(cache.slot(4), None);
        // A rewrite reuses the slot and is listed once.
        assert_eq!(written(&mut cache, 3, 0xCD, 8), slot);
        assert_eq!((cache.dirty(), cache.resident()), (&[3][..], 1));
    }

    #[test]
    fn dirty_slots_are_pinned_and_overshoot_shrinks_after_clean() {
        let mut cache = CellCache::new(16, 8, 16); // budget: 2 slots
        written(&mut cache, 9, 1, 8);
        written(&mut cache, 0, 2, 8);
        assert!(!cache.over_budget());
        // A third dirty cell grows the slab past the budget; nothing leaves.
        written(&mut cache, 4, 3, 8);
        assert!(cache.over_budget());
        assert_eq!(cache.resident(), 3);
        assert_eq!(cache.dirty(), &[9, 0, 4]);
        cache.sort_dirty();
        assert_eq!(cache.dirty(), &[0, 4, 9]);
        assert_eq!(cache.slot_bytes(cache.slot(9).unwrap(), 8), &[1; 8], "sorting moves no slot");
        cache.clean_all();
        assert_eq!((cache.resident(), cache.dirty().len()), (0, 0));
        assert_eq!((cache.slot(0), cache.slot(4), cache.slot(9)), (None, None, None));
        // The emptied slab is reused from slot 0.
        assert_eq!(written(&mut cache, 5, 4, 8), 0);
    }

    #[test]
    fn identity_mirrors_every_cell_and_lists_each_dirty_one_once() {
        let mut cache = CellCache::new(4, 4, 64);
        assert!(cache.is_identity());
        cache.adopt(0);
        assert_eq!(written(&mut cache, 3, 5, 4), 3);
        written(&mut cache, 1, 6, 4);
        written(&mut cache, 3, 7, 4);
        assert_eq!(cache.dirty(), &[3, 1, 3]);
        cache.sort_dirty();
        assert_eq!(cache.dirty(), &[1, 3]);
        cache.clean_all();
        assert_eq!((cache.resident(), cache.slot(3)), (3, Some(3)), "clean cells stay mirrored");
        assert!(!cache.over_budget());
    }

    #[test]
    fn zero_stride_caches_nothing_by_budget() {
        let cache = CellCache::new(8, 0, 4096);
        assert_eq!(cache.max_slots, 0);
    }
}
