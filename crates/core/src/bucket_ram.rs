//! Bucketed DP-RAM: the Appendix E generalization.
//!
//! Section 7.1 builds DP-KVS from a mapping scheme plus "a DP-RAM able to
//! query and update the `b(n)` buckets". Appendix E shows the Section 6
//! proof survives when the query unit is a *bucket* — a fixed set of `s`
//! cells from a repertoire `Σ` of `b` buckets — even when buckets overlap,
//! provided the client resolves overlaps: a cell cached on the client
//! (because some stashed bucket contains it) is authoritative over the
//! server's copy, and updates refresh both copies.
//!
//! [`BucketRam`] implements exactly that. Cells are opaque equal-length
//! plaintexts supplied by the caller (DP-KVS serializes tree nodes into
//! them); the RAM encrypts them with IND-CPA and performs, per bucket
//! query, the same two-phase dance as [`crate::dp_ram`]:
//!
//! * download phase: the queried bucket's cells (or a uniform decoy bucket
//!   if the queried bucket is stashed);
//! * overwrite phase: with probability `p` stash the bucket and refresh a
//!   uniform decoy bucket, otherwise write the (possibly updated) bucket
//!   back.
//!
//! The per-query adversarial view is a pair of bucket ids — the direct
//! analogue of `(d_j, o_j)` — so privacy is `ε = O(log b)` per bucket query
//! by the Section 6 analysis over the repertoire Σ.
//!
//! Neither id depends on downloaded bytes — only on stash membership and
//! the client's coins — so a whole *flight* of queries
//! ([`BucketRam::query_batch`]; [`BucketRam::query`] is the one-element
//! flight) is planned up front and costs **2 round trips**: one download
//! of `bucket(d_1)‖bucket(o_1)‖…‖bucket(d_k)‖bucket(o_k)`, then one upload
//! of `bucket(o_1)‖…‖bucket(o_k)`. The queries still run in order against
//! the downloaded snapshot; a cell an earlier query of the flight rewrote
//! is read from the client's overlay, not from the stale snapshot, which
//! extends the overlap rule above to cells in flight. `NOTES.md` entry 1
//! has the argument and the precedence rule.
//!
//! The crypto follows the same grouping (`NOTES.md` entry 3): **plan → one
//! download → one batch decrypt → execute → one batch encrypt → one upload →
//! commit**. Which downloaded cells are decrypted — and so tag-verified —
//! is decided by the plans before a byte arrives: the queried bucket's cells
//! of every query that downloads its own bucket, and `bucket(o_j)` of every
//! query whose stash coin came up. Only those ciphertexts are kept, back to
//! back, and opened by one `decrypt_batch_to_slices` (8 cells per wide
//! pass); the queries then read plaintext slices. Their uploads are
//! collected as plaintext and sealed by one `encrypt_batch_with_nonces`
//! under nonces drawn in upload order, which is the order a per-cell loop
//! draws them in — so a seed produces the same ciphertexts either way.
//! Set-up encrypts the initial cells through the same entry point.

use std::collections::{HashMap, HashSet};

use dps_crypto::{BlockCipher, ChaChaRng, CryptoError, CIPHERTEXT_OVERHEAD};
use dps_server::{ServerError, SimServer, Storage};

/// The typed per-bucket-query adversarial view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketTrace {
    /// Bucket downloaded in the download phase.
    pub download: usize,
    /// Bucket refreshed in the overwrite phase.
    pub overwrite: usize,
}

/// Errors from bucketed DP-RAM operations.
#[derive(Debug)]
pub enum BucketRamError {
    /// Bucket id out of `[0, b)`.
    BucketOutOfRange {
        /// Requested bucket.
        bucket: usize,
        /// Repertoire size.
        b: usize,
    },
    /// Invalid setup input.
    InvalidConfig(String),
    /// Server failure.
    Server(ServerError),
    /// Decryption failure — corrupted state.
    Crypto(String),
    /// An update callback returned cells of the wrong shape.
    BadUpdate(String),
}

impl std::fmt::Display for BucketRamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketRamError::BucketOutOfRange { bucket, b } => {
                write!(f, "bucket {bucket} out of range (b = {b})")
            }
            BucketRamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BucketRamError::Server(e) => write!(f, "server failure: {e}"),
            BucketRamError::Crypto(msg) => write!(f, "crypto failure: {msg}"),
            BucketRamError::BadUpdate(msg) => write!(f, "bad update: {msg}"),
        }
    }
}

impl std::error::Error for BucketRamError {}

impl From<ServerError> for BucketRamError {
    fn from(e: ServerError) -> Self {
        BucketRamError::Server(e)
    }
}

/// The coins of one bucket query, drawn in Algorithm 3's order before any
/// byte is requested: neither address depends on downloaded content, only
/// on stash *membership* and the client's randomness.
#[derive(Debug, Clone, Copy)]
struct QueryPlan {
    /// The queried bucket is client-held when the query starts.
    stashed: bool,
    /// The stash coin came up: the bucket is client-held after the query.
    stash: bool,
    /// The `(d_j, o_j)` pair the server will see.
    trace: BucketTrace,
}

/// One query's post-update bucket contents and its typed trace.
pub type BucketQueryOutput = (Vec<Vec<u8>>, BucketTrace);

/// The downloaded cells a flight reads — its decrypt set.
#[derive(Debug, Default)]
struct Snapshot {
    /// Per download position, the slot of `ct` and `pt` that holds the
    /// cell, or `None` for a cell nobody reads (a decoy download, or
    /// `bucket(o_j)` about to be overwritten with the client's own
    /// contents). A cell downloaded twice has two slots, both verified.
    slot: Vec<Option<usize>>,
    /// The decrypt set's ciphertexts, back to back in download order.
    ct: Vec<u8>,
    /// Their plaintexts, slot for slot.
    pt: Vec<u8>,
}

impl Snapshot {
    /// The decrypted cell at download position `at`, if it is in the
    /// decrypt set.
    fn cell(&self, at: usize, cell_size: usize) -> Option<&[u8]> {
        let slot = self.slot[at]?;
        Some(&self.pt[slot * cell_size..][..cell_size])
    }
}

/// (cell id, query, position) of every plaintext a flight gave a cell, in
/// order — the last entry of a cell is its latest. A flight is a handful of
/// queries, so a scan beats hashing.
#[derive(Debug, Default)]
struct Overlay(Vec<(usize, usize, usize)>);

impl Overlay {
    /// Query `query` of the flight gave `cells`, in order, their plaintexts.
    fn record(&mut self, query: usize, cells: &[usize]) {
        let entries = cells.iter().enumerate();
        self.0.extend(entries.map(|(i, &cell)| (cell, query, i)));
    }

    /// The latest plaintext the flight's finished queries gave `cell`.
    fn latest<'a>(&self, cell: usize, done: &'a [BucketQueryOutput]) -> Option<&'a [u8]> {
        let &(_, query, position) = self.0.iter().rev().find(|entry| entry.0 == cell)?;
        Some(&done[query].0[position])
    }
}

/// Buffers of one flight, kept on the client and reused across flights.
#[derive(Debug, Default)]
struct FlightScratch {
    plans: Vec<QueryPlan>,
    /// Download addresses: `bucket(d_1)‖bucket(o_1)‖…‖bucket(d_k)‖bucket(o_k)`.
    addrs: Vec<usize>,
    snapshot: Snapshot,
    overlay: Overlay,
    /// Upload addresses: `bucket(o_1)‖…‖bucket(o_k)`, duplicates kept.
    up_addrs: Vec<usize>,
    /// The upload's plaintexts, back to back in `up_addrs` order.
    up_pt: Vec<u8>,
    /// Their fresh ciphertexts, slot for slot.
    enc_flat: Vec<u8>,
}

/// Cells per batch-encrypt call at set-up: whole 8-cell groups, and a
/// plaintext chunk that stays in cache.
const SETUP_CHUNK: usize = 256;

/// DP-RAM over a repertoire of (possibly overlapping) buckets of cells.
#[derive(Debug)]
pub struct BucketRam<S: Storage = SimServer> {
    /// Σ: bucket id -> ordered cell ids.
    buckets: Vec<Vec<usize>>,
    cell_size: usize,
    stash_probability: f64,
    cipher: BlockCipher,
    server: S,
    /// Buckets currently held client-side.
    stashed_buckets: HashSet<usize>,
    /// Client-authoritative plaintext cells (cells of stashed buckets).
    cell_stash: HashMap<usize, Vec<u8>>,
    /// How many stashed buckets reference each stashed cell.
    refcount: HashMap<usize, u32>,
    /// High-water mark of stashed cells, for client-storage experiments.
    max_stashed_cells: usize,
    scratch: FlightScratch,
}

impl<S: Storage> BucketRam<S> {
    /// Sets up the RAM: `cells` are the initial plaintext cell contents
    /// (all of equal length), `buckets` is the repertoire Σ. Each bucket is
    /// stashed at setup independently with probability `p`, mirroring
    /// Algorithm 2.
    pub fn setup(
        cells: Vec<Vec<u8>>,
        buckets: Vec<Vec<usize>>,
        stash_probability: f64,
        server: S,
        rng: &mut ChaChaRng,
    ) -> Result<Self, BucketRamError> {
        Self::setup_with(cells.len(), |i| &cells[i], buckets, stash_probability, server, rng)
    }

    /// [`BucketRam::setup`] over `count` cells read through `cell(i)`, so a
    /// caller whose cells are all one value (DP-KVS's empty node) lends
    /// that one value instead of building `count` copies of it.
    ///
    /// The coins are drawn in the order a per-cell loop draws them: the
    /// cipher key, one nonce per cell in address order, then one stash coin
    /// per bucket.
    pub(crate) fn setup_with<'c>(
        count: usize,
        cell: impl Fn(usize) -> &'c [u8],
        buckets: Vec<Vec<usize>>,
        stash_probability: f64,
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> Result<Self, BucketRamError> {
        if count == 0 {
            return Err(BucketRamError::InvalidConfig("need at least one cell".into()));
        }
        if buckets.is_empty() {
            return Err(BucketRamError::InvalidConfig("need at least one bucket".into()));
        }
        if !(0.0..=1.0).contains(&stash_probability) {
            return Err(BucketRamError::InvalidConfig(format!(
                "stash probability must be in [0, 1], got {stash_probability}"
            )));
        }
        let cell_size = cell(0).len();
        if (1..count).any(|i| cell(i).len() != cell_size) {
            return Err(BucketRamError::InvalidConfig("cells must have uniform size".into()));
        }
        for (b, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                return Err(BucketRamError::InvalidConfig(format!("bucket {b} is empty")));
            }
            if bucket.iter().any(|&c| c >= count) {
                return Err(BucketRamError::InvalidConfig(format!(
                    "bucket {b} references a cell beyond {count}"
                )));
            }
        }

        let cipher = BlockCipher::generate(rng);
        let ct_len = cell_size + CIPHERTEXT_OVERHEAD;
        let mut encrypted = Vec::with_capacity(count);
        let (mut plain, mut sealed) = (Vec::new(), Vec::new());
        for start in (0..count).step_by(SETUP_CHUNK) {
            let end = count.min(start + SETUP_CHUNK);
            plain.clear();
            for i in start..end {
                plain.extend_from_slice(cell(i));
            }
            let nonces = rng.draw_nonces(end - start);
            sealed.resize((end - start) * ct_len, 0);
            cipher.encrypt_batch_with_nonces(&nonces, &plain, &mut sealed);
            encrypted.extend(sealed.chunks_exact(ct_len).map(<[u8]>::to_vec));
        }
        server.init(encrypted);

        let mut ram = Self {
            buckets,
            cell_size,
            stash_probability,
            cipher,
            server,
            stashed_buckets: HashSet::new(),
            cell_stash: HashMap::new(),
            refcount: HashMap::new(),
            max_stashed_cells: 0,
            scratch: FlightScratch::default(),
        };
        // Setup-time stashing (per-bucket, like Algorithm 2's per-record).
        for b in 0..ram.buckets.len() {
            if rng.gen_bool(stash_probability) {
                let contents: Vec<Vec<u8>> =
                    ram.buckets[b].iter().map(|&c| cell(c).to_vec()).collect();
                ram.stash_bucket(b, &contents);
            }
        }
        Ok(ram)
    }

    /// Number of buckets in the repertoire.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The cell ids of bucket `b`.
    pub fn bucket_cells(&self, b: usize) -> &[usize] {
        &self.buckets[b]
    }

    /// Number of plaintext cells currently held client-side.
    pub fn stashed_cell_count(&self) -> usize {
        self.cell_stash.len()
    }

    /// High-water mark of client-held cells since setup.
    pub fn max_stashed_cells(&self) -> usize {
        self.max_stashed_cells
    }

    /// Number of buckets currently stashed.
    pub fn stashed_bucket_count(&self) -> usize {
        self.stashed_buckets.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Puts bucket `b` in the stash with `contents` as its cells' client
    /// copies.
    fn stash_bucket(&mut self, b: usize, contents: &[Vec<u8>]) {
        debug_assert_eq!(contents.len(), self.buckets[b].len());
        let newly_stashed = self.stashed_buckets.insert(b);
        debug_assert!(newly_stashed, "stash of a bucket that was already stashed");
        for (&cell, content) in self.buckets[b].iter().zip(contents) {
            *self.refcount.entry(cell).or_insert(0) += 1;
            self.cell_stash.insert(cell, content.clone());
        }
        self.max_stashed_cells = self.max_stashed_cells.max(self.cell_stash.len());
    }

    /// Removes bucket `b` from the stash. Cells still referenced by other
    /// stashed buckets keep their client copies.
    fn unstash_bucket(&mut self, b: usize) {
        let was_stashed = self.stashed_buckets.remove(&b);
        debug_assert!(was_stashed, "unstash of a bucket that was not stashed");
        for cell in &self.buckets[b] {
            let count = self.refcount.get_mut(cell).expect("refcounted");
            *count -= 1;
            if *count == 0 {
                self.refcount.remove(cell);
                self.cell_stash.remove(cell);
            }
        }
    }

    /// One bucket query — the one-element flight of
    /// [`BucketRam::query_batch`]: retrieves bucket `bucket`'s current
    /// contents, applies `update` to them (identity for pure reads — the
    /// transcript shape is update-independent), and runs the overwrite
    /// phase. Returns the post-update contents and the typed trace.
    pub fn query<F>(
        &mut self,
        bucket: usize,
        update: F,
        rng: &mut ChaChaRng,
    ) -> Result<BucketQueryOutput, BucketRamError>
    where
        F: FnOnce(&mut Vec<Vec<u8>>),
    {
        let mut update = Some(update);
        let mut flight = self.query_batch(
            &[bucket],
            |_, contents| {
                if let Some(update) = update.take() {
                    update(contents);
                }
            },
            rng,
        )?;
        Ok(flight.pop().expect("one query in, one result out"))
    }

    /// A flight of bucket queries in two requests: every `(d_j, o_j)` is
    /// decided from the coins, the download phases of all queries are one
    /// `read_batch_with`, the queries then run in order against that
    /// snapshot — `update(j, contents)` sees exactly what query `j` of a
    /// sequential run would have seen — and the overwrite phases are one
    /// `write_batch_strided`, duplicate addresses kept, later wins.
    ///
    /// The server sees the same address sequence, with the same joint
    /// distribution, as `flight.len()` separate [`BucketRam::query`] calls;
    /// only the grouping into requests differs. The client's stash changes
    /// only after the upload succeeded, so a storage error leaves it as it
    /// was before the call. A wrongly shaped update makes that query an
    /// identity update and is reported as [`BucketRamError::BadUpdate`]
    /// after the flight ran to completion, keeping the transcript shape.
    pub fn query_batch<F>(
        &mut self,
        flight: &[usize],
        update: F,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<BucketQueryOutput>, BucketRamError>
    where
        F: FnMut(usize, &mut Vec<Vec<u8>>),
    {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_flight(flight, update, rng, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn run_flight<F>(
        &mut self,
        flight: &[usize],
        mut update: F,
        rng: &mut ChaChaRng,
        s: &mut FlightScratch,
    ) -> Result<Vec<BucketQueryOutput>, BucketRamError>
    where
        F: FnMut(usize, &mut Vec<Vec<u8>>),
    {
        let b = self.buckets.len();
        if let Some(&bucket) = flight.iter().find(|&&bucket| bucket >= b) {
            return Err(BucketRamError::BucketOutOfRange { bucket, b });
        }

        // ---- Plan: Algorithm 3's coins, in query order, against the stash
        // membership as the earlier queries of this flight will leave it.
        s.plans.clear();
        for (j, &bucket) in flight.iter().enumerate() {
            let stashed = match flight[..j].iter().rposition(|&earlier| earlier == bucket) {
                Some(i) => s.plans[i].stash,
                None => self.stashed_buckets.contains(&bucket),
            };
            let download = if stashed { rng.gen_index(b) } else { bucket };
            let stash = rng.gen_bool(self.stash_probability);
            let overwrite = if stash { rng.gen_index(b) } else { bucket };
            s.plans
                .push(QueryPlan { stashed, stash, trace: BucketTrace { download, overwrite } });
        }

        // ---- One download: both phases' cells of every query. The plans
        // already say which of them will be read: a query that is not
        // stashed reads its own downloaded bucket, a query that stashes
        // refreshes bucket(o_j) from the server's copy.
        let (cell_size, ct_len) = (self.cell_size, self.cell_size + CIPHERTEXT_OVERHEAD);
        s.addrs.clear();
        let Snapshot { slot, ct, pt } = &mut s.snapshot;
        slot.clear();
        let mut opened = 0;
        for plan in &s.plans {
            let phases = [(plan.trace.download, !plan.stashed), (plan.trace.overwrite, plan.stash)];
            for (bucket, read) in phases {
                let cells = &self.buckets[bucket];
                s.addrs.extend_from_slice(cells);
                slot.extend((0..cells.len()).map(|i| read.then_some(opened + i)));
                opened += if read { cells.len() } else { 0 };
            }
        }
        ct.resize(opened * ct_len, 0);
        let mut malformed = None;
        self.server.read_batch_with(&s.addrs, |i, cell| {
            if cell.len() != ct_len {
                malformed.get_or_insert(i);
            } else if let Some(slot) = slot[i] {
                ct[slot * ct_len..][..ct_len].copy_from_slice(cell);
            }
        })?;
        // An odd-length cell must surface as a crypto error, not skew the
        // chunking of the batch and the upload's inferred stride.
        if let Some(i) = malformed {
            return Err(BucketRamError::Crypto(format!(
                "cell {} has a malformed length (expected {ct_len} bytes)",
                s.addrs[i]
            )));
        }

        // ---- One batch decrypt: every cell of the decrypt set is
        // tag-verified before the first update runs.
        pt.resize(opened * cell_size, 0);
        if let Err(e) = self.cipher.decrypt_batch_to_slices(ct, opened, pt) {
            return Err(self.name_bad_cell(&s.addrs, &mut s.snapshot, e));
        }

        // ---- Execute the queries in order against the snapshot.
        s.overlay.0.clear();
        s.up_addrs.clear();
        s.up_pt.clear();
        let mut done: Vec<BucketQueryOutput> = Vec::with_capacity(flight.len());
        let mut bad_update = None;
        let mut at = 0; // cell cursor into the snapshot
        for (j, &bucket) in flight.iter().enumerate() {
            let plan = s.plans[j];
            let overwrite = &self.buckets[plan.trace.overwrite];
            let downloaded = at;
            let refreshed = downloaded + self.buckets[plan.trace.download].len();
            at = refreshed + overwrite.len();

            let mut contents = self.gather(bucket, downloaded, s, &done);
            update(j, &mut contents);
            if contents.len() != self.buckets[bucket].len()
                || contents.iter().any(|c| c.len() != cell_size)
            {
                bad_update.get_or_insert_with(|| {
                    BucketRamError::BadUpdate(format!(
                        "update {j} must preserve bucket shape ({} cells of {cell_size} bytes)",
                        self.buckets[bucket].len(),
                    ))
                });
                contents = self.gather(bucket, downloaded, s, &done);
            }
            s.overlay.record(j, &self.buckets[bucket]);
            done.push((contents, plan.trace));

            // Overwrite phase: the plaintexts of bucket(o_j).
            for (i, &cell) in overwrite.iter().enumerate() {
                let plain = if plan.stash {
                    // Decoy refresh: the server's current plaintext, which
                    // is the snapshot's unless this flight rewrote the cell.
                    s.overlay
                        .latest(cell, &done)
                        .or_else(|| s.snapshot.cell(refreshed + i, cell_size))
                        .expect("a decoy refresh decrypts its cells")
                } else {
                    // o_j is the queried bucket: write it back fresh.
                    &done[j].0[i]
                };
                s.up_pt.extend_from_slice(plain);
            }
            s.up_addrs.extend_from_slice(overwrite);
        }

        // ---- One batch encrypt, nonces in upload order.
        let nonces = rng.draw_nonces(s.up_addrs.len());
        s.enc_flat.resize(s.up_addrs.len() * ct_len, 0);
        self.cipher
            .encrypt_batch_with_nonces(&nonces, &s.up_pt, &mut s.enc_flat);

        // ---- One upload, then commit the stash changes: a failed request
        // returns above with the client state untouched.
        self.server.write_batch_strided(&s.up_addrs, &s.enc_flat)?;
        for ((&bucket, plan), (contents, _)) in flight.iter().zip(&s.plans).zip(&done) {
            if plan.stashed {
                self.unstash_bucket(bucket);
            }
            if plan.stash {
                self.stash_bucket(bucket, contents);
            } else {
                // Written back: keep the client copies other stashed
                // buckets hold of these cells in sync.
                for (cell, content) in self.buckets[bucket].iter().zip(contents) {
                    if let Some(copy) = self.cell_stash.get_mut(cell) {
                        copy.clone_from(content);
                    }
                }
            }
        }
        match bad_update {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// The current logical contents of `bucket` for the next query of a
    /// flight. Per cell, in precedence order (Appendix E's overlap rule
    /// extended to a flight): the plaintext an earlier query of this flight
    /// gave it — which is also its client copy if the cell is stashed by
    /// now — then the client's pre-flight copy, then the downloaded cell
    /// at position `downloaded + i`. A bucket that is not stashed had its
    /// downloaded cells tag-verified even where a client copy wins.
    fn gather(
        &self,
        bucket: usize,
        downloaded: usize,
        s: &FlightScratch,
        done: &[BucketQueryOutput],
    ) -> Vec<Vec<u8>> {
        let cells = self.buckets[bucket].iter().enumerate();
        cells
            .map(|(i, cell)| {
                s.overlay
                    .latest(*cell, done)
                    .or_else(|| self.cell_stash.get(cell).map(Vec::as_slice))
                    .or_else(|| s.snapshot.cell(downloaded + i, self.cell_size))
                    .expect("a stashed bucket's cells are client-held")
                    .to_vec()
            })
            .collect()
    }

    /// The error of a failed batch decrypt, naming the server address of
    /// the first cell in download order that does not open. The batch
    /// reports only that some cell failed, so the decrypt set is rescanned
    /// cell by cell — on this path only.
    fn name_bad_cell(
        &self,
        addrs: &[usize],
        snapshot: &mut Snapshot,
        batch_error: CryptoError,
    ) -> BucketRamError {
        let ct_len = self.cell_size + CIPHERTEXT_OVERHEAD;
        let Snapshot { slot, ct, pt } = snapshot;
        let read = addrs.iter().zip(slot.iter()).filter(|(_, slot)| slot.is_some());
        let bad = ct.chunks_exact(ct_len).zip(read).find_map(|(cell, (addr, _))| {
            let error = self.cipher.decrypt_to_slice(cell, pt).err()?;
            Some(format!("cell {addr}: {error}"))
        });
        BucketRamError::Crypto(bad.unwrap_or_else(|| batch_error.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 cells, 4 buckets with overlaps (a tiny "forest": buckets share
    /// upper cells like tree paths do).
    fn fixture(p: f64, seed: u64) -> (BucketRam, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        let ram = BucketRam::setup(cells, buckets, p, SimServer::new(), &mut rng).unwrap();
        (ram, rng)
    }

    #[test]
    fn read_returns_initial_contents() {
        let (mut ram, mut rng) = fixture(0.3, 1);
        let (contents, _) = ram.query(2, |_| {}, &mut rng).unwrap();
        assert_eq!(contents, vec![vec![2u8; 8], vec![4u8; 8], vec![5u8; 8]]);
    }

    #[test]
    fn update_persists() {
        let (mut ram, mut rng) = fixture(0.3, 2);
        ram.query(1, |c| c[0] = vec![0xEE; 8], &mut rng).unwrap();
        let (contents, _) = ram.query(1, |_| {}, &mut rng).unwrap();
        assert_eq!(contents[0], vec![0xEE; 8]);
    }

    /// The Appendix E overlap rule: an update to a shared cell through one
    /// bucket must be visible through every other bucket containing it,
    /// whatever the stash does in between.
    #[test]
    fn overlapping_updates_are_consistent() {
        for seed in 0..20 {
            let (mut ram, mut rng) = fixture(0.5, 100 + seed);
            // Cell 4 is shared by all buckets; update through bucket 0.
            ram.query(0, |c| c[1] = vec![0x77; 8], &mut rng).unwrap();
            for b in 1..4 {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                assert_eq!(contents[1], vec![0x77; 8], "seed {seed}, bucket {b}");
            }
        }
    }

    /// Long random workload against a reference model, heavy overlap and
    /// aggressive stashing.
    #[test]
    fn random_workload_matches_reference() {
        let (mut ram, mut rng) = fixture(0.5, 3);
        // Reference: plain cell array.
        let mut reference: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = [vec![0usize, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        for step in 0u32..800 {
            let b = rng.gen_index(4);
            if rng.gen_bool(0.5) {
                // Update a random position of the bucket.
                let pos = rng.gen_index(3);
                let value = vec![(step % 256) as u8; 8];
                let v2 = value.clone();
                ram.query(b, move |c| c[pos] = v2, &mut rng).unwrap();
                reference[buckets[b][pos]] = value;
            } else {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                let expected: Vec<Vec<u8>> =
                    buckets[b].iter().map(|&c| reference[c].clone()).collect();
                assert_eq!(contents, expected, "step {step}, bucket {b}");
            }
        }
    }

    /// Per-query cost: 2·s downloads + s uploads over 2 round trips, where
    /// s is the bucket size — the bucket analogue of Theorem 6.1.
    #[test]
    fn constant_bucket_overhead() {
        let (mut ram, mut rng) = fixture(0.4, 4);
        for _ in 0..30 {
            let before = ram.server_stats();
            ram.query(rng.gen_index(4), |_| {}, &mut rng).unwrap();
            let diff = ram.server_stats().since(&before);
            assert_eq!(diff.downloads, 6); // 2 buckets × 3 cells
            assert_eq!(diff.uploads, 3);
            assert_eq!(diff.round_trips, 2);
        }
    }

    /// Overwrite marginal mirrors Lemma 6.5 at the bucket level.
    #[test]
    fn overwrite_marginal() {
        let p = 0.4;
        let (mut ram, mut rng) = fixture(p, 5);
        let trials = 8000;
        let mut self_hits = 0u32;
        for _ in 0..trials {
            let (_, trace) = ram.query(2, |_| {}, &mut rng).unwrap();
            if trace.overwrite == 2 {
                self_hits += 1;
            }
        }
        let freq = f64::from(self_hits) / f64::from(trials);
        let predicted = (1.0 - p) + p / 4.0;
        assert!((freq - predicted).abs() < 0.03, "measured {freq:.3}, predicted {predicted:.3}");
    }

    #[test]
    fn bad_update_shapes_are_rejected() {
        let (mut ram, mut rng) = fixture(0.0, 6);
        assert!(matches!(
            ram.query(0, |c| c.truncate(1), &mut rng),
            Err(BucketRamError::BadUpdate(_))
        ));
        let (mut ram, mut rng) = fixture(0.0, 7);
        assert!(matches!(
            ram.query(0, |c| c[0] = vec![0u8; 3], &mut rng),
            Err(BucketRamError::BadUpdate(_))
        ));
    }

    #[test]
    fn validation_errors() {
        let mut rng = ChaChaRng::seed_from_u64(8);
        assert!(BucketRam::setup(vec![], vec![vec![0]], 0.1, SimServer::new(), &mut rng).is_err());
        assert!(BucketRam::setup(vec![vec![0]], vec![], 0.1, SimServer::new(), &mut rng).is_err());
        assert!(
            BucketRam::setup(vec![vec![0]], vec![vec![1]], 0.1, SimServer::new(), &mut rng)
                .is_err(),
            "out-of-range cell reference"
        );
        assert!(BucketRam::setup(vec![vec![0]], vec![vec![0]], 1.5, SimServer::new(), &mut rng)
            .is_err());
        let (mut ram, mut rng) = fixture(0.1, 9);
        assert!(matches!(
            ram.query(4, |_| {}, &mut rng),
            Err(BucketRamError::BucketOutOfRange { bucket: 4, b: 4 })
        ));
    }

    #[test]
    fn stash_counters_track() {
        let (mut ram, mut rng) = fixture(1.0, 10);
        // p = 1: every query stashes its bucket.
        ram.query(0, |_| {}, &mut rng).unwrap();
        assert!(ram.stashed_bucket_count() >= 1);
        assert!(ram.stashed_cell_count() >= 3);
        assert!(ram.max_stashed_cells() >= ram.stashed_cell_count());
    }

    /// Both set-up entry points — owned cells and one lent cell — leave the
    /// server, the stash and the RNG exactly where a per-cell loop does: the
    /// cipher key, one nonce per cell in address order (across chunk
    /// boundaries), then one stash coin per bucket.
    #[test]
    fn setup_draws_like_a_per_cell_loop() {
        let count = 2 * SETUP_CHUNK + 88;
        let node = vec![0x5Au8; 21];
        let buckets: Vec<Vec<usize>> = (0..count / 3).map(|b| vec![b, b + 1, count - 1]).collect();
        for p in [0.0, 0.02, 1.0] {
            let mut rng = ChaChaRng::seed_from_u64(12);
            let cipher = BlockCipher::generate(&mut rng);
            let sealed: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let mut nonce = dps_crypto::Nonce::default();
                    rng.fill_bytes(&mut nonce);
                    let mut cell = vec![0u8; node.len() + CIPHERTEXT_OVERHEAD];
                    cipher.encrypt_with_nonce_into(&nonce, &node, &mut cell);
                    cell
                })
                .collect();
            let stashed: HashSet<usize> = (0..buckets.len()).filter(|_| rng.gen_bool(p)).collect();
            let next = rng.next_u64();

            let mut owned_rng = ChaChaRng::seed_from_u64(12);
            let cells = vec![node.clone(); count];
            let mut owned =
                BucketRam::setup(cells, buckets.clone(), p, SimServer::new(), &mut owned_rng)
                    .unwrap();
            let mut lent_rng = ChaChaRng::seed_from_u64(12);
            let server = SimServer::new();
            let mut lent =
                BucketRam::setup_with(count, |_| &node, buckets.clone(), p, server, &mut lent_rng)
                    .unwrap();
            for (ram, rng) in [(&mut owned, &mut owned_rng), (&mut lent, &mut lent_rng)] {
                let addrs: Vec<usize> = (0..count).collect();
                assert_eq!(ram.server.read_batch(&addrs).unwrap(), sealed, "p = {p}");
                assert_eq!(ram.stashed_buckets, stashed, "p = {p}");
                assert!(ram.cell_stash.values().all(|copy| copy == &node));
                assert_eq!(rng.next_u64(), next, "p = {p}");
            }
            assert_eq!(owned.cell_stash, lent.cell_stash);
            assert_eq!(owned.refcount, lent.refcount);
        }
    }
}
