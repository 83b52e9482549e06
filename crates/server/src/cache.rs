//! Bounded in-memory cell cache for the durable backend.
//!
//! [`CellCache`] is the cache that lets
//! [`DiskStore`](crate::DiskStore) serve databases larger than RAM: cell
//! *payloads* live in a slab of stride-sized slots bounded by a byte
//! budget, while the per-cell metadata (lengths, init bitmap — and this
//! cache's 4-byte page-table entry) stays fully resident. Lookup is a
//! single array index — `addr → slot` goes through a flat `Vec<u32>` page
//! table, not a hash map — because the cache sits on the zero-copy read
//! hot path, where a per-cell hash would triple the cost of a hit.
//!
//! On files that [lend](crate::DiskFile::lend) — production's — a clean
//! miss is served from the mapped arena and never enters the slab, which
//! then holds the dirty cells and whatever write-back left inside the
//! budget; the read-through installs and CLOCK evictions below are the path
//! of files that do not.
//!
//! Eviction is CLOCK (second-chance): a hit sets the slot's reference
//! bit; the hand sweeps resident slots, clearing reference bits until it
//! finds an unreferenced *clean* slot to reuse. **Dirty slots are
//! pinned**: a dirty slot holds a cell the arena file does not have yet —
//! its WAL record still in the open group-commit window, or durable but
//! not written back (the store writes back at checkpoints and when the
//! budget is exceeded, not per commit). Evicting it would lose the write,
//! serve the arena's stale bytes on the next miss or, worse, force an
//! un-logged arena write that breaks the acked-prefix crash contract.
//! When every slot is dirty the slab grows past its budget (bounded by
//! the WAL checkpoint budget, which forces a commit, and by the store
//! writing back as soon as a commit leaves it over budget);
//! `enforce_budget` shrinks it back once entries are clean.
//!
//! When the byte budget covers the whole database (`max_slots ≥
//! capacity`) the cache instead runs in **identity mode**: the slab is
//! laid out `slot == addr` and sized `capacity × stride` up front, the
//! store warms it eagerly with one bulk arena read, and every
//! initialized cell stays resident — eviction is impossible, so the read
//! path is a direct slab slice with no page-table load at all, matching
//! the in-memory mirror it replaced cycle for cycle. A re-stride that
//! shrinks the slot budget below the cell count downgrades the slab to
//! the bounded CLOCK layout in place.
//!
//! The cache is deliberately policy-free about counting: the store owns
//! the hit/miss/eviction counters
//! ([`CacheTelemetry`](crate::CacheTelemetry)), this module just reports
//! evictions from each call that can cause them.

/// Sentinel in the page table: address not resident.
const NONE_SLOT: u32 = u32::MAX;
/// Sentinel in the reverse map: slot not in use.
const NONE_ADDR: usize = usize::MAX;

/// A bounded slab of stride-sized cell slots with CLOCK eviction and a
/// flat page table (see the [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct CellCache {
    /// Slot width in bytes (the store's current stride).
    stride: usize,
    /// Resident-slot budget derived from `cache_bytes / stride`.
    max_slots: usize,
    /// The byte budget, kept to re-derive `max_slots` across re-strides.
    cache_bytes: usize,
    /// Slot payloads: slot `i` at `i * stride`.
    data: Vec<u8>,
    /// Reverse map: slot → resident address (or [`NONE_ADDR`]).
    addr_of: Vec<usize>,
    /// Page table: address → slot (or [`NONE_SLOT`]). One entry per cell.
    slot_of: Vec<u32>,
    /// CLOCK reference bits, one per slot.
    refbit: Vec<bool>,
    /// Dirty (pinned) flags, one per slot.
    dirty: Vec<bool>,
    /// The dirty slots (first-dirtied order until the store sorts them by
    /// address for write-back).
    dirty_slots: Vec<u32>,
    /// Slots currently holding nothing, available for reuse (bounded
    /// mode only; identity mode derives slots from addresses).
    free: Vec<u32>,
    /// CLOCK hand.
    hand: usize,
    /// Number of slots currently holding an entry.
    live: usize,
    /// Identity mode: the budget covers every cell, `slot == addr`, and
    /// eviction can never trigger (see the [module docs](self)).
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
            cache_bytes,
            data,
            addr_of: vec![NONE_ADDR; slots],
            slot_of: vec![NONE_SLOT; capacity],
            refbit: vec![false; slots],
            dirty: vec![false; slots],
            dirty_slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            live: 0,
            identity,
        }
    }

    /// Grows the slot width in place, preserving every resident entry
    /// (the re-stride write path needs the dirty entries it is about to
    /// checkpoint). The budget is re-derived; nothing is evicted here —
    /// the caller enforces the budget once entries are clean.
    pub fn restride(&mut self, new_stride: usize) {
        debug_assert!(new_stride >= self.stride, "cache stride only grows");
        let capacity = self.slot_of.len();
        let new_max = budget_slots(self.cache_bytes, new_stride);
        let new_identity = new_max >= capacity;
        if new_identity && !self.identity {
            // Upgrade to identity: only reachable from the slot-less
            // stride-0 geometry (a grown stride otherwise only shrinks
            // the budget), so there is nothing resident to carry over.
            debug_assert_eq!(self.live, 0, "upgrade from a non-empty bounded cache");
            *self = Self::new(capacity, new_stride, self.cache_bytes);
            return;
        }
        let slots = self.addr_of.len();
        let mut data = vec![0u8; slots * new_stride];
        for slot in 0..slots {
            if self.addr_of[slot] != NONE_ADDR {
                data[slot * new_stride..slot * new_stride + self.stride]
                    .copy_from_slice(&self.data[slot * self.stride..(slot + 1) * self.stride]);
            }
        }
        self.data = data;
        self.stride = new_stride;
        self.max_slots = new_max;
        if self.identity && !new_identity {
            // Downgrade to bounded CLOCK: the identity layout (slot ==
            // addr, no free list) is already a valid slotted layout; the
            // eviction machinery just needs the vacant slots enumerated.
            // Reference bits start clear — CLOCK treats unreferenced
            // entries as equally evictable, which is fine.
            self.identity = false;
            self.free = (0..slots)
                .filter(|&s| self.addr_of[s] == NONE_ADDR)
                .map(|s| s as u32)
                .collect();
        }
    }

    /// The slot holding `addr`, marking it recently used. `None` on miss.
    #[inline]
    pub fn lookup(&mut self, addr: usize) -> Option<usize> {
        let slot = self.slot_of[addr];
        if slot == NONE_SLOT {
            return None;
        }
        self.refbit[slot as usize] = true;
        Some(slot as usize)
    }

    /// Whether the cache runs in identity mode (budget covers every
    /// cell; reads can use [`CellCache::identity_bytes`] directly).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Identity-mode direct read: the first `len` payload bytes of
    /// `addr`'s slab position. No residency check — the store's warm-up
    /// invariant (every initialized non-empty cell is resident) makes
    /// the slice authoritative for any initialized cell.
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

    /// Identity-mode warm-up bookkeeping: marks `addr` resident without
    /// touching its payload (the caller bulk-filled the slab).
    pub fn adopt(&mut self, addr: usize) {
        debug_assert!(self.identity);
        if self.slot_of[addr] == NONE_SLOT {
            self.slot_of[addr] = addr as u32;
            self.addr_of[addr] = addr;
            self.live += 1;
        }
    }

    /// The slot holding `addr` without touching reference bits (used by
    /// checkpoint streaming, which must not distort the CLOCK state).
    #[inline]
    pub fn peek(&self, addr: usize) -> Option<usize> {
        let slot = self.slot_of[addr];
        if slot == NONE_SLOT {
            None
        } else {
            Some(slot as usize)
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

    /// Installs `addr` into a slot (evicting a clean entry if the budget
    /// requires it) and returns `(slot, evictions)`. The new entry starts
    /// *unreferenced* (cold insertion: one-shot fills wash out of a
    /// scanned cache before they displace re-referenced entries), and
    /// dirty (pinned) when `dirty` is set.
    pub fn install(&mut self, addr: usize, dirty: bool) -> (usize, u64) {
        debug_assert_eq!(self.slot_of[addr], NONE_SLOT, "install over a resident address");
        let (slot, evictions) = if self.identity { (addr, 0) } else { self.take_slot() };
        self.live += 1;
        self.addr_of[slot] = addr;
        self.slot_of[addr] = slot as u32;
        self.refbit[slot] = false;
        if dirty {
            self.dirty[slot] = true;
            self.dirty_slots.push(slot as u32);
        }
        (slot, evictions)
    }

    /// Marks an already-resident slot dirty (pinned until cleaned).
    pub fn mark_dirty(&mut self, slot: usize) {
        if !self.dirty[slot] {
            self.dirty[slot] = true;
            self.dirty_slots.push(slot as u32);
        }
    }

    /// Removes `addr` from the cache (used when a refill read fails
    /// half-way: the slot holds garbage and must not serve hits).
    pub fn discard(&mut self, addr: usize) {
        let slot = self.slot_of[addr];
        if slot == NONE_SLOT {
            return;
        }
        debug_assert!(!self.dirty[slot as usize], "discarding a pinned dirty slot");
        self.slot_of[addr] = NONE_SLOT;
        self.addr_of[slot as usize] = NONE_ADDR;
        self.refbit[slot as usize] = false;
        self.live -= 1;
        if !self.identity {
            self.free.push(slot);
        }
    }

    /// The resident address of `slot`.
    #[inline]
    pub fn addr_of(&self, slot: usize) -> usize {
        self.addr_of[slot]
    }

    /// The dirty slots: first-dirtied order, or address order right after
    /// [`CellCache::sort_dirty_by_addr`]. Deterministic either way, so
    /// crash schedules replay identically.
    pub fn dirty_slots(&self) -> &[u32] {
        &self.dirty_slots
    }

    /// Puts the dirty slots in ascending order of the address they hold —
    /// the write-back order.
    pub fn sort_dirty_by_addr(&mut self) {
        let addr_of = &self.addr_of;
        self.dirty_slots
            .sort_unstable_by_key(|&slot| addr_of[slot as usize]);
    }

    /// Whether more slots are resident than the budget allows — only
    /// pinned dirty entries can cause that.
    pub fn over_budget(&self) -> bool {
        self.live > self.max_slots
    }

    /// Clears every dirty flag: the entries have been written back to the
    /// arena (or a checkpoint covers them), so they become evictable again.
    pub fn clean_all(&mut self) {
        for &slot in &self.dirty_slots {
            self.dirty[slot as usize] = false;
        }
        self.dirty_slots.clear();
    }

    /// Evicts clean entries until the resident count is back inside the
    /// budget (undoing any dirty overshoot), returning how many were
    /// evicted.
    pub fn enforce_budget(&mut self) -> u64 {
        let mut evictions = 0;
        while self.over_budget() {
            if let Some(slot) = self.clock_find_clean() {
                self.evict(slot);
                evictions += 1;
            } else {
                break; // everything over budget is pinned
            }
        }
        evictions
    }

    /// Number of slots currently holding an entry.
    pub fn resident(&self) -> usize {
        self.live
    }

    /// A slot to install into: a free one while under budget, otherwise a
    /// CLOCK victim; grows past the budget only when every resident slot
    /// is pinned dirty.
    fn take_slot(&mut self) -> (usize, u64) {
        if self.resident() < self.max_slots {
            return (self.fresh_slot(), 0);
        }
        if let Some(slot) = self.clock_find_clean() {
            self.evict(slot);
            self.free.pop();
            self.addr_of[slot] = NONE_ADDR; // reclaimed directly, not via the free list
            return (slot, 1);
        }
        (self.fresh_slot(), 0)
    }

    fn fresh_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot as usize;
        }
        let slot = self.addr_of.len();
        self.addr_of.push(NONE_ADDR);
        self.refbit.push(false);
        self.dirty.push(false);
        self.data.resize((slot + 1) * self.stride, 0);
        slot
    }

    /// CLOCK sweep: returns the first unreferenced clean resident slot,
    /// clearing reference bits as it passes. `None` when every resident
    /// slot is dirty.
    fn clock_find_clean(&mut self) -> Option<usize> {
        let slots = self.addr_of.len();
        if slots == 0 {
            return None;
        }
        // Two full sweeps suffice: the first clears reference bits, the
        // second must find a victim unless every resident slot is dirty.
        for _ in 0..2 * slots {
            let slot = self.hand;
            self.hand = (self.hand + 1) % slots;
            if self.addr_of[slot] == NONE_ADDR || self.dirty[slot] {
                continue;
            }
            if self.refbit[slot] {
                self.refbit[slot] = false;
            } else {
                return Some(slot);
            }
        }
        None
    }

    fn evict(&mut self, slot: usize) {
        let addr = self.addr_of[slot];
        debug_assert_ne!(addr, NONE_ADDR);
        debug_assert!(!self.dirty[slot]);
        self.slot_of[addr] = NONE_SLOT;
        self.addr_of[slot] = NONE_ADDR;
        self.refbit[slot] = false;
        self.live -= 1;
        self.free.push(slot as u32);
    }
}

/// Slot budget for a byte budget: at least one slot (a zero-slot cache
/// would turn every read into a file read *and* an allocation), except
/// for the degenerate stride-0 geometry, which caches nothing because
/// zero-length cells carry no payload at all.
fn budget_slots(cache_bytes: usize, stride: usize) -> usize {
    cache_bytes.checked_div(stride).map_or(0, |slots| slots.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cache: &mut CellCache, addr: usize, byte: u8, len: usize) -> u64 {
        let (slot, ev) = cache.install(addr, false);
        for b in cache.slot_bytes_mut(slot, len) {
            *b = byte;
        }
        ev
    }

    #[test]
    fn lookup_hits_resident_and_misses_absent() {
        let mut cache = CellCache::new(16, 8, 64);
        assert_eq!(cache.lookup(3), None);
        filled(&mut cache, 3, 0xAB, 8);
        let slot = cache.lookup(3).expect("resident after install");
        assert_eq!(cache.slot_bytes(slot, 8), &[0xAB; 8]);
        assert_eq!(cache.lookup(4), None);
    }

    #[test]
    fn eviction_respects_the_budget_and_reference_bits() {
        // Budget: 2 slots of 8 bytes.
        let mut cache = CellCache::new(16, 8, 16);
        filled(&mut cache, 0, 1, 8);
        filled(&mut cache, 1, 2, 8);
        assert_eq!(cache.resident(), 2);
        // Re-reference addr 0 so CLOCK prefers evicting addr 1.
        cache.lookup(0).unwrap();
        let ev = filled(&mut cache, 2, 3, 8);
        assert_eq!(ev, 1);
        assert_eq!(cache.resident(), 2);
        assert!(cache.peek(0).is_some(), "referenced entry survived");
        assert!(cache.peek(1).is_none(), "unreferenced entry evicted");
        assert!(cache.peek(2).is_some());
    }

    #[test]
    fn dirty_slots_are_pinned_and_overshoot_shrinks_after_clean() {
        let mut cache = CellCache::new(16, 8, 16); // budget: 2 slots
        let (s0, _) = cache.install(0, true);
        let (s1, _) = cache.install(1, true);
        // Both pinned: a third install must overshoot, not evict.
        let (_, ev) = cache.install(2, true);
        assert_eq!(ev, 0);
        assert_eq!(cache.resident(), 3);
        assert_eq!(cache.dirty_slots(), &[s0 as u32, s1 as u32, 2]);
        cache.clean_all();
        assert!(cache.dirty_slots().is_empty());
        let shrunk = cache.enforce_budget();
        assert_eq!(shrunk, 1);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn restride_preserves_entries_and_flush_order() {
        let mut cache = CellCache::new(8, 4, 32);
        let (slot, _) = cache.install(5, true);
        cache.slot_bytes_mut(slot, 4).copy_from_slice(&[9; 4]);
        cache.restride(10);
        let slot = cache.peek(5).expect("entry survives restride");
        assert_eq!(cache.slot_bytes(slot, 4), &[9; 4]);
        assert_eq!(cache.dirty_slots(), &[slot as u32]);
    }

    #[test]
    fn discard_forgets_a_half_filled_entry() {
        let mut cache = CellCache::new(8, 4, 32);
        cache.install(2, false);
        cache.discard(2);
        assert_eq!(cache.lookup(2), None);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn zero_stride_caches_nothing_by_budget() {
        let cache = CellCache::new(8, 0, 4096);
        assert_eq!(cache.max_slots, 0);
    }
}
