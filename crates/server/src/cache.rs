//! The durable backend's cell cache: the cells its disk does not have yet.
//!
//! [`CellCache`] keeps cell *payloads* for
//! [`DiskStore`](crate::DiskStore) in a slab of stride-sized slots — every
//! cell is one stride long, so a slot is a cell and the store keeps no
//! per-cell metadata but this cache's 4-byte page-table entry, in the
//! bounded layout only. Lookup is a single array index —
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
//! it), and every cell is resident from the start, clean or dirty — so the
//! read path is a direct slab slice with no page table at all, and
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
    /// Bounded mode's page table: address → slot (or [`NONE_SLOT`]), one
    /// entry per cell. Empty in identity mode, where `slot == addr`.
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
    /// zeros the caller fills, [`CellCache::slab_mut`]) *becomes* the slab
    /// — moved, not copied — and every cell is resident. A bounded cache
    /// starts empty and drops it.
    pub fn over(capacity: usize, stride: usize, cache_bytes: usize, image: Vec<u8>) -> Self {
        let max_slots = budget_slots(cache_bytes, stride);
        let identity = max_slots >= capacity;
        debug_assert!(image.is_empty() || image.len() == capacity * stride);
        // Identity mode pre-sizes the slab (it is within the byte budget
        // by definition); bounded mode grows it slot by slot on demand.
        let (data, slot_of, live) = if !identity {
            (Vec::new(), vec![NONE_SLOT; capacity], 0)
        } else if image.len() == capacity * stride {
            (image, Vec::new(), capacity)
        } else {
            (vec![0u8; capacity * stride], Vec::new(), capacity)
        };
        Self { stride, max_slots, data, slot_of, dirty: Vec::new(), live, identity }
    }

    /// The slot holding `addr`, or `None` when the cell is not resident
    /// (bounded mode).
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

    /// The whole identity-mode slab — the arena image — for bulk warm-up
    /// from the arena and for write-back's runs. No residency check: the
    /// store's warm-up invariant makes it authoritative for every cell.
    #[inline]
    pub fn slab(&self) -> &[u8] {
        debug_assert!(self.identity);
        &self.data
    }

    /// [`CellCache::slab`], mutable.
    pub fn slab_mut(&mut self) -> &mut [u8] {
        debug_assert!(self.identity);
        &mut self.data
    }

    /// The cell in `slot` (in identity mode, `slot == addr`).
    #[inline]
    pub fn slot_bytes(&self, slot: usize) -> &[u8] {
        &self.data[slot * self.stride..(slot + 1) * self.stride]
    }

    /// [`CellCache::slot_bytes`], mutable.
    #[inline]
    pub fn slot_bytes_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.data[slot * self.stride..(slot + 1) * self.stride]
    }

    /// The slot a write of `addr` goes to, marked dirty: the one `addr`
    /// already has, its own in identity mode, else the next one the slab
    /// grows by — past the budget if need be, until the commit that
    /// writes back.
    pub fn dirty_slot(&mut self, addr: usize) -> usize {
        if self.identity {
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
/// one cell still lets one dirty cell wait for the next commit). Cells of
/// the degenerate stride 0 carry no payload, so any budget mirrors them all.
fn budget_slots(cache_bytes: usize, stride: usize) -> usize {
    cache_bytes
        .checked_div(stride)
        .map_or(usize::MAX, |slots| slots.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(cache: &mut CellCache, addr: usize, byte: u8) -> usize {
        let slot = cache.dirty_slot(addr);
        cache.slot_bytes_mut(slot).fill(byte);
        slot
    }

    #[test]
    fn lookup_hits_resident_and_misses_absent() {
        let mut cache = CellCache::new(16, 8, 64);
        assert_eq!(cache.slot(3), None);
        written(&mut cache, 3, 0xAB);
        let slot = cache.slot(3).expect("resident after a write");
        assert_eq!(cache.slot_bytes(slot), &[0xAB; 8]);
        assert_eq!(cache.slot(4), None);
        // A rewrite reuses the slot and is listed once.
        assert_eq!(written(&mut cache, 3, 0xCD), slot);
        assert_eq!((cache.dirty(), cache.resident()), (&[3][..], 1));
    }

    #[test]
    fn dirty_slots_are_pinned_and_overshoot_shrinks_after_clean() {
        let mut cache = CellCache::new(16, 8, 16); // budget: 2 slots
        written(&mut cache, 9, 1);
        written(&mut cache, 0, 2);
        assert!(!cache.over_budget());
        // A third dirty cell grows the slab past the budget; nothing leaves.
        written(&mut cache, 4, 3);
        assert!(cache.over_budget());
        assert_eq!(cache.resident(), 3);
        assert_eq!(cache.dirty(), &[9, 0, 4]);
        cache.sort_dirty();
        assert_eq!(cache.dirty(), &[0, 4, 9]);
        assert_eq!(cache.slot_bytes(cache.slot(9).unwrap()), &[1; 8], "sorting moves no slot");
        cache.clean_all();
        assert_eq!((cache.resident(), cache.dirty().len()), (0, 0));
        assert_eq!((cache.slot(0), cache.slot(4), cache.slot(9)), (None, None, None));
        // The emptied slab is reused from slot 0.
        assert_eq!(written(&mut cache, 5, 4), 0);
    }

    #[test]
    fn identity_mirrors_every_cell_and_lists_each_dirty_one_once() {
        let mut cache = CellCache::new(4, 4, 64);
        assert!(cache.is_identity());
        assert_eq!(cache.resident(), 4, "every cell is mirrored from the start");
        assert_eq!(written(&mut cache, 3, 5), 3);
        written(&mut cache, 1, 6);
        written(&mut cache, 3, 7);
        assert_eq!(cache.dirty(), &[3, 1, 3]);
        cache.sort_dirty();
        assert_eq!(cache.dirty(), &[1, 3]);
        cache.clean_all();
        assert_eq!(cache.resident(), 4, "clean cells stay mirrored");
        assert_eq!(&cache.slab()[4..], &[6, 6, 6, 6, 0, 0, 0, 0, 7, 7, 7, 7]);
        assert!(!cache.over_budget());
    }

    /// Empty cells carry no payload, so a stride-0 cache holds no bytes:
    /// any budget, however small, mirrors the store whole.
    #[test]
    fn zero_stride_caches_nothing_by_budget() {
        let cache = CellCache::new(8, 0, 0);
        assert!(cache.is_identity());
        assert_eq!((cache.resident(), cache.slab().len()), (8, 0));
    }
}
