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
//! back and each *distinct* one once — a flight `[a, b, a, b]` downloads
//! `bucket(a)` twice, and a second copy of an address that is byte-equal
//! to the first has the first's verdict and plaintext (`NOTES.md` entry 9);
//! a copy that differs is kept and verified on its own — and opened by one
//! `decrypt_batch_to_slices` (8 cells per wide pass). The queries then run
//! on plaintext in one arena: each query's contents are gathered there,
//! edited there by its update, and read from there by later queries, the
//! upload and the stash commit. The server keeps only the last upload slot
//! of an address (later wins), so only that slot is sealed: the last slot
//! of every address is collected as plaintext and sealed by one
//! `encrypt_batch_with_nonces`, and each earlier slot of the address — one
//! its own batch overwrites, as `[a, b, a, b]` does all of its first
//! half's — carries a byte copy of that ciphertext (`NOTES.md` entry 25).
//! Nonces are drawn for every slot in upload order, the order a per-cell
//! loop draws them in, and a copy's is discarded — so a seed leaves the
//! server the same cells and the RNG in the same place either way. A copy
//! sits exactly where an address repeats in the upload, which the server
//! sees anyway. Set-up encrypts the initial cells through the same entry
//! point.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use dps_crypto::{BlockCipher, ChaChaRng, CryptoError, Nonce, CIPHERTEXT_OVERHEAD};
use dps_server::{ServerError, SimServer, Storage};

/// The stash maps' hasher: one folded multiply of the index, in place of
/// the standard library's keyed SipHash. The maps are keyed by cell and
/// bucket indices that the secret-keyed mapping chose, so no caller can
/// steer them into collisions, and nothing iterates them, so their order
/// reaches no output. hashbrown takes a slot from the hash's low bits and
/// a control byte from its top 7, so the 128-bit product's halves are
/// XORed together: every bit of the index reaches both ends.
#[derive(Debug, Default, Clone, Copy)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, i: u64) {
        let product = u128::from(i) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of cell or bucket indices, hashed by [`IndexHasher`].
type IndexSet = HashSet<usize, BuildHasherDefault<IndexHasher>>;
/// A map from cell indices, hashed by [`IndexHasher`].
type IndexMap<V> = HashMap<usize, V, BuildHasherDefault<IndexHasher>>;

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
    /// Where the query's contents start in the flight's arena.
    contents: usize,
}

/// A finished flight, lent from the client's scratch until the next one.
#[derive(Debug, Clone, Copy)]
pub struct Flight<'a>(&'a FlightScratch);

impl<'a> Flight<'a> {
    /// Query `j`'s post-update bucket contents, its cells back to back.
    pub fn contents(&self, j: usize) -> &'a [u8] {
        let FlightScratch { plans, contents, .. } = self.0;
        let end = plans.get(j + 1).map_or(contents.len(), |next| next.contents);
        &contents[plans[j].contents..end]
    }

    /// The `(d_j, o_j)` the server saw for query `j`.
    pub fn trace(&self, j: usize) -> BucketTrace {
        self.0.plans[j].trace
    }
}

/// The downloaded cells a flight reads — its decrypt set.
#[derive(Debug, Default)]
struct Snapshot {
    /// Per download position, the slot of `ct` and `pt` that holds the
    /// cell, or `None` for a cell nobody reads (a decoy download, or
    /// `bucket(o_j)` about to be overwritten with the client's own
    /// contents); until the cell arrives, `Some(_)` only says it is read.
    /// A position shares the slot of an earlier one with the same address
    /// *and* byte-equal ciphertext — one verdict, one plaintext; a copy
    /// that differs has a slot of its own and is verified on its own.
    slot: Vec<Option<usize>>,
    /// Per slot, the server address of the cell it holds.
    held: Vec<usize>,
    /// The decrypt set's distinct ciphertexts, back to back in download
    /// order.
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

/// Where the latest plaintext the flight's finished queries gave `cell`
/// starts in the arena: the last entry of `overlay` for it.
fn latest(overlay: &[(usize, usize)], cell: usize) -> Option<usize> {
    Some(overlay.iter().rev().find(|entry| entry.0 == cell)?.1)
}

/// Buffers of one flight, kept on the client and reused across flights.
#[derive(Debug, Default)]
struct FlightScratch {
    plans: Vec<QueryPlan>,
    /// Download addresses: `bucket(d_1)‖bucket(o_1)‖…‖bucket(d_k)‖bucket(o_k)`.
    addrs: Vec<usize>,
    snapshot: Snapshot,
    /// The arena: every query's bucket contents, back to back in flight
    /// order, gathered, updated and read in place.
    contents: Vec<u8>,
    /// (cell id, arena offset) of every plaintext the flight gave a cell,
    /// in order. A flight is a handful of queries, so a scan beats hashing.
    overlay: Vec<(usize, usize)>,
    /// Upload addresses: `bucket(o_1)‖…‖bucket(o_k)`, duplicates kept.
    up_addrs: Vec<usize>,
    /// Per upload slot, the last slot of its address, whose ciphertext it
    /// carries: itself for a sealed slot, a later one for a copy.
    carries: Vec<usize>,
    /// The sealed slots' plaintexts, back to back in upload order.
    up_pt: Vec<u8>,
    /// The sealed slots' nonces: one is drawn per upload slot, in order,
    /// and a copy's is dropped.
    nonces: Vec<Nonce>,
    /// The upload, slot for slot: a sealed slot's fresh ciphertext, or a
    /// copy's byte copy of its address's last.
    enc_flat: Vec<u8>,
}

/// Cells per batch-encrypt call at set-up: whole 8-cell groups, and a
/// plaintext chunk that stays in cache.
const SETUP_CHUNK: usize = 256;

/// Set-up's upload for an encrypting scheme (Algorithm 2's
/// `A[i] = Enc(K, B_i)`): `count` cells of `cell_size` bytes read through
/// `cell(i)` are encrypted [`SETUP_CHUNK`] at a time into one reused
/// ciphertext chunk, whose slices the server's set-up sink is lent — no
/// ciphertext is held beyond the chunk. One nonce per cell is drawn in
/// address order, exactly as a per-cell `encrypt` loop draws them.
pub(crate) fn init_encrypted<'c, S: Storage>(
    server: &mut S,
    cipher: &BlockCipher,
    rng: &mut ChaChaRng,
    count: usize,
    cell_size: usize,
    cell: impl Fn(usize) -> &'c [u8],
) {
    let ct_len = cell_size + CIPHERTEXT_OVERHEAD;
    let (mut plain, mut sealed) = (Vec::new(), Vec::new());
    server.init_with(count, |sink| {
        for start in (0..count).step_by(SETUP_CHUNK) {
            let end = count.min(start + SETUP_CHUNK);
            plain.clear();
            (start..end).for_each(|i| plain.extend_from_slice(cell(i)));
            let nonces = rng.draw_nonces(end - start);
            sealed.resize((end - start) * ct_len, 0);
            cipher.encrypt_batch_with_nonces(&nonces, &plain, &mut sealed);
            sealed.chunks_exact(ct_len).for_each(&mut *sink);
        }
    });
}

/// Σ, flat: every bucket's cell ids back to back, and where each bucket
/// starts. A bucket is a *set* of cells (Appendix E): set-up refuses one
/// that lists a cell twice.
#[derive(Debug)]
struct Repertoire {
    cells: Vec<u32>,
    /// Bucket `b`'s ids are `cells[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
}

impl Repertoire {
    /// Flattens `buckets`, checking each against a store of `count` cells.
    fn new(buckets: &[Vec<usize>], count: usize) -> Result<Self, BucketRamError> {
        let invalid = |msg: String| Err(BucketRamError::InvalidConfig(msg));
        if buckets.is_empty() {
            return invalid("need at least one bucket".into());
        }
        let mut cells = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
        let mut starts = Vec::with_capacity(buckets.len() + 1);
        starts.push(0);
        let mut sorted = Vec::new();
        for (b, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                return invalid(format!("bucket {b} is empty"));
            }
            for &c in bucket {
                let Ok(id) = u32::try_from(c) else {
                    return invalid(format!("bucket {b} references cell {c}, beyond a u32 id"));
                };
                if c >= count {
                    return invalid(format!("bucket {b} references a cell beyond {count}"));
                }
                cells.push(id);
            }
            sorted.clear();
            sorted.extend_from_slice(&cells[starts[b]..]);
            sorted.sort_unstable();
            if let Some(twice) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                return invalid(format!("bucket {b} lists cell {} twice", twice[0]));
            }
            starts.push(cells.len());
        }
        Ok(Self { cells, starts })
    }

    /// Number of buckets.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The cell ids of bucket `b`, in order.
    fn bucket(&self, b: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.cells[self.starts[b]..self.starts[b + 1]]
            .iter()
            .map(|&c| c as usize)
    }

    /// The number of cells of bucket `b`.
    fn size(&self, b: usize) -> usize {
        self.starts[b + 1] - self.starts[b]
    }
}

/// DP-RAM over a repertoire of (possibly overlapping) buckets of cells.
#[derive(Debug)]
pub struct BucketRam<S: Storage = SimServer> {
    sigma: Repertoire,
    cell_size: usize,
    stash_probability: f64,
    cipher: BlockCipher,
    server: S,
    /// Buckets currently held client-side.
    stashed_buckets: IndexSet,
    /// Client-authoritative plaintext cells (cells of stashed buckets).
    cell_stash: IndexMap<Vec<u8>>,
    /// How many stashed buckets reference each stashed cell.
    refcount: IndexMap<u32>,
    /// Client copies the stash let go of, kept for the next cell it takes.
    spare: Vec<Vec<u8>>,
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
        if !(0.0..=1.0).contains(&stash_probability) {
            return Err(BucketRamError::InvalidConfig(format!(
                "stash probability must be in [0, 1], got {stash_probability}"
            )));
        }
        let cell_size = cell(0).len();
        if (1..count).any(|i| cell(i).len() != cell_size) {
            return Err(BucketRamError::InvalidConfig("cells must have uniform size".into()));
        }
        let sigma = Repertoire::new(&buckets, count)?;
        drop(buckets);

        let cipher = BlockCipher::generate(rng);
        init_encrypted(&mut server, &cipher, rng, count, cell_size, &cell);

        let mut ram = Self {
            sigma,
            cell_size,
            stash_probability,
            cipher,
            server,
            stashed_buckets: IndexSet::default(),
            cell_stash: IndexMap::default(),
            refcount: IndexMap::default(),
            spare: Vec::new(),
            max_stashed_cells: 0,
            scratch: FlightScratch::default(),
        };
        // Setup-time stashing (per-bucket, like Algorithm 2's per-record).
        for b in 0..ram.sigma.len() {
            if rng.gen_bool(stash_probability) {
                let contents: Vec<u8> = ram.sigma.bucket(b).flat_map(&cell).copied().collect();
                ram.stash_bucket(b, &contents);
            }
        }
        Ok(ram)
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

    /// Puts bucket `b` in the stash with `contents`, its cells back to back,
    /// as their client copies.
    fn stash_bucket(&mut self, b: usize, contents: &[u8]) {
        debug_assert_eq!(contents.len(), self.sigma.size(b) * self.cell_size);
        let newly_stashed = self.stashed_buckets.insert(b);
        debug_assert!(newly_stashed, "stash of a bucket that was already stashed");
        for (cell, content) in self.sigma.bucket(b).zip(contents.chunks_exact(self.cell_size)) {
            *self.refcount.entry(cell).or_insert(0) += 1;
            let copy = self
                .cell_stash
                .entry(cell)
                .or_insert_with(|| self.spare.pop().unwrap_or_default());
            copy.clear();
            copy.extend_from_slice(content);
        }
        self.max_stashed_cells = self.max_stashed_cells.max(self.cell_stash.len());
    }

    /// Removes bucket `b` from the stash. Cells still referenced by other
    /// stashed buckets keep their client copies.
    fn unstash_bucket(&mut self, b: usize) {
        let was_stashed = self.stashed_buckets.remove(&b);
        debug_assert!(was_stashed, "unstash of a bucket that was not stashed");
        for cell in self.sigma.bucket(b) {
            let count = self.refcount.get_mut(&cell).expect("refcounted");
            *count -= 1;
            if *count == 0 {
                self.refcount.remove(&cell);
                self.spare.extend(self.cell_stash.remove(&cell));
            }
        }
    }

    /// One bucket query — the one-element flight of
    /// [`BucketRam::query_batch`]: retrieves bucket `bucket`'s current
    /// contents, applies `update` to them (identity for pure reads — the
    /// transcript shape is update-independent), and runs the overwrite
    /// phase. Returns the post-update contents and the typed trace.
    pub fn query(
        &mut self,
        bucket: usize,
        mut update: impl FnMut(&mut [u8]),
        rng: &mut ChaChaRng,
    ) -> Result<(Vec<u8>, BucketTrace), BucketRamError> {
        let flight = self.query_batch(&[bucket], |_, contents| update(contents), rng)?;
        Ok((flight.contents(0).to_vec(), flight.trace(0)))
    }

    /// A flight of bucket queries in two requests: every `(d_j, o_j)` is
    /// decided from the coins, the download phases of all queries are one
    /// `read_batch_with`, the queries then run in order against that
    /// snapshot — `update(j, contents)` sees exactly what query `j` of a
    /// sequential run would have seen, as the bucket's cells back to back,
    /// and edits them where they lie: the shape is the slice's — and the
    /// overwrite phases are one `write_batch_strided`, duplicate addresses
    /// kept, later wins. Only the last slot of each address is encrypted;
    /// an earlier slot of it carries a byte copy of that ciphertext.
    ///
    /// The server sees the same address sequence, with the same joint
    /// distribution, as `flight.len()` separate [`BucketRam::query`] calls;
    /// only the grouping into requests differs. The client's stash changes
    /// only after the upload succeeded, so a storage error leaves it as it
    /// was before the call.
    pub fn query_batch(
        &mut self,
        flight: &[usize],
        update: impl FnMut(usize, &mut [u8]),
        rng: &mut ChaChaRng,
    ) -> Result<Flight<'_>, BucketRamError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_flight(flight, update, rng, &mut scratch);
        self.scratch = scratch;
        result.map(|()| Flight(&self.scratch))
    }

    fn run_flight(
        &mut self,
        flight: &[usize],
        mut update: impl FnMut(usize, &mut [u8]),
        rng: &mut ChaChaRng,
        s: &mut FlightScratch,
    ) -> Result<(), BucketRamError> {
        let b = self.sigma.len();
        if let Some(&bucket) = flight.iter().find(|&&bucket| bucket >= b) {
            return Err(BucketRamError::BucketOutOfRange { bucket, b });
        }
        let (cell_size, ct_len) = (self.cell_size, self.cell_size + CIPHERTEXT_OVERHEAD);

        // ---- Plan: Algorithm 3's coins, in query order, against the stash
        // membership as the earlier queries of this flight will leave it.
        // The upload addresses follow from the plans alone.
        s.plans.clear();
        s.up_addrs.clear();
        let mut contents = 0;
        for (j, &bucket) in flight.iter().enumerate() {
            let stashed = match flight[..j].iter().rposition(|&earlier| earlier == bucket) {
                Some(i) => s.plans[i].stash,
                None => self.stashed_buckets.contains(&bucket),
            };
            let download = if stashed { rng.gen_index(b) } else { bucket };
            let stash = rng.gen_bool(self.stash_probability);
            let overwrite = if stash { rng.gen_index(b) } else { bucket };
            let trace = BucketTrace { download, overwrite };
            s.plans.push(QueryPlan { stashed, stash, trace, contents });
            contents += self.sigma.size(bucket) * cell_size;
            s.up_addrs.extend(self.sigma.bucket(overwrite));
        }
        // The server keeps only the last upload slot of an address, so only
        // that slot is sealed: every slot carries the last one's ciphertext.
        s.carries.clear();
        for (slot, addr) in s.up_addrs.iter().enumerate() {
            let later = s.up_addrs[slot + 1..].iter().rposition(|other| other == addr);
            s.carries.push(later.map_or(slot, |k| slot + 1 + k));
        }

        // ---- One download: both phases' cells of every query. The plans
        // already say which of them will be read: a query that is not
        // stashed reads its own downloaded bucket, a query that stashes
        // refreshes bucket(o_j) from the server's copy.
        s.addrs.clear();
        let Snapshot { slot, held, ct, pt } = &mut s.snapshot;
        slot.clear();
        for plan in &s.plans {
            let phases = [(plan.trace.download, !plan.stashed), (plan.trace.overwrite, plan.stash)];
            for (bucket, read) in phases {
                s.addrs.extend(self.sigma.bucket(bucket));
                slot.extend(self.sigma.bucket(bucket).map(|_| read.then_some(0)));
            }
        }
        held.clear();
        ct.clear();
        let (addrs, mut malformed) = (&s.addrs, None);
        self.server.read_batch_with(addrs, |i, cell| {
            if cell.len() != ct_len {
                malformed.get_or_insert(i);
            } else if slot[i].is_some() {
                let mut opened = held.iter().zip(ct.chunks_exact(ct_len));
                let twin = opened.position(|(&addr, copy)| addr == addrs[i] && copy == cell);
                if twin.is_none() {
                    held.push(addrs[i]);
                    ct.extend_from_slice(cell);
                }
                slot[i] = twin.or(Some(held.len() - 1));
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
        pt.resize(held.len() * cell_size, 0);
        if let Err(e) = self.cipher.decrypt_batch_to_slices(ct, held.len(), pt) {
            return Err(self.name_bad_cell(&mut s.snapshot, e));
        }

        // ---- Execute the queries in order against the snapshot.
        s.contents.clear();
        s.overlay.clear();
        s.up_pt.clear();
        let (mut at, mut up) = (0, 0); // cell cursors into the snapshot and the upload
        for (j, &bucket) in flight.iter().enumerate() {
            let plan = s.plans[j];
            let (downloaded, uploaded) = (at, up);
            let refreshed = downloaded + self.sigma.size(plan.trace.download);
            at = refreshed + self.sigma.size(plan.trace.overwrite);
            up = uploaded + self.sigma.size(plan.trace.overwrite);

            // The current logical contents of `bucket`. Per cell, in
            // precedence order (Appendix E's overlap rule extended to a
            // flight): the plaintext an earlier query of this flight gave
            // it — which is also its client copy if the cell is stashed by
            // now — then the client's pre-flight copy, then the downloaded
            // cell. A bucket that is not stashed had its downloaded cells
            // tag-verified even where a client copy wins.
            for (i, cell) in self.sigma.bucket(bucket).enumerate() {
                if let Some(from) = latest(&s.overlay, cell) {
                    s.contents.extend_from_within(from..from + cell_size);
                    continue;
                }
                let copy = self.cell_stash.get(&cell).map(Vec::as_slice);
                let plain = copy.or_else(|| s.snapshot.cell(downloaded + i, cell_size));
                s.contents
                    .extend_from_slice(plain.expect("a stashed bucket's cells are client-held"));
            }
            update(j, &mut s.contents[plan.contents..]);
            let given = (plan.contents..).step_by(cell_size);
            s.overlay.extend(self.sigma.bucket(bucket).zip(given));

            // Overwrite phase: the plaintexts of bucket(o_j), for the slots
            // that are sealed.
            for (i, cell) in self.sigma.bucket(plan.trace.overwrite).enumerate() {
                if s.carries[uploaded + i] != uploaded + i {
                    continue; // a later query of the flight uploads this cell
                }
                let plain = if plan.stash {
                    // Decoy refresh: the server's current plaintext, which
                    // is the snapshot's unless this flight rewrote the cell.
                    match latest(&s.overlay, cell) {
                        Some(from) => &s.contents[from..from + cell_size],
                        None => s
                            .snapshot
                            .cell(refreshed + i, cell_size)
                            .expect("a decoy refresh decrypts its cells"),
                    }
                } else {
                    // o_j is the queried bucket: write it back fresh.
                    &s.contents[plan.contents + i * cell_size..][..cell_size]
                };
                s.up_pt.extend_from_slice(plain);
            }
        }

        // ---- One batch encrypt of the sealed slots. Every slot draws its
        // nonce in upload order, as a per-cell loop does, and a copy's is
        // discarded. The sealed ciphertexts land back to back at the end of
        // the upload and move down to their slots in order — each moves
        // down or stays, onto no ciphertext still to move — then every copy
        // takes its address's last slot.
        let slots = s.up_addrs.len();
        s.nonces.resize(slots, Nonce::default());
        rng.fill_nonces(&mut s.nonces);
        let mut sealed = s.carries.iter().enumerate().map(|(slot, &last)| last == slot);
        s.nonces.retain(|_| sealed.next() == Some(true));
        s.enc_flat.resize(slots * ct_len, 0);
        let mut from = (slots - s.nonces.len()) * ct_len;
        self.cipher
            .encrypt_batch_with_nonces(&s.nonces, &s.up_pt, &mut s.enc_flat[from..]);
        for (slot, &last) in s.carries.iter().enumerate() {
            if last == slot {
                s.enc_flat.copy_within(from..from + ct_len, slot * ct_len);
                from += ct_len;
            }
        }
        for (slot, &last) in s.carries.iter().enumerate() {
            if last != slot {
                s.enc_flat
                    .copy_within(last * ct_len..(last + 1) * ct_len, slot * ct_len);
            }
        }

        // ---- One upload, then commit the stash changes: a failed request
        // returns above with the client state untouched.
        self.server.write_batch_strided(&s.up_addrs, &s.enc_flat)?;
        let finished = Flight(s);
        for (j, (&bucket, plan)) in flight.iter().zip(&s.plans).enumerate() {
            if plan.stashed {
                self.unstash_bucket(bucket);
            }
            if plan.stash {
                self.stash_bucket(bucket, finished.contents(j));
            } else {
                // Written back: keep the client copies other stashed
                // buckets hold of these cells in sync.
                let contents = finished.contents(j).chunks_exact(cell_size);
                for (cell, content) in self.sigma.bucket(bucket).zip(contents) {
                    if let Some(copy) = self.cell_stash.get_mut(&cell) {
                        copy.copy_from_slice(content);
                    }
                }
            }
        }
        Ok(())
    }

    /// The error of a failed batch decrypt, naming the server address of
    /// the first cell in download order that does not open. The batch
    /// reports only that some cell failed, so the decrypt set is rescanned
    /// slot by slot — slots are in the order their cells first arrived —
    /// on this path only.
    fn name_bad_cell(&self, snapshot: &mut Snapshot, batch_error: CryptoError) -> BucketRamError {
        let Snapshot { held, ct, pt, .. } = snapshot;
        let mut opened = ct
            .chunks_exact(self.cell_size + CIPHERTEXT_OVERHEAD)
            .zip(held.iter());
        let bad = opened.find_map(|(cell, addr)| {
            let error = self.cipher.decrypt_to_slice(cell, pt).err()?;
            Some(format!("cell {addr}: {error}"))
        });
        BucketRamError::Crypto(bad.unwrap_or_else(|| batch_error.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use dps_server::{Accounted, CellBackend, CellStore};

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
        assert_eq!(contents, [[2u8; 8], [4u8; 8], [5u8; 8]].concat());
    }

    #[test]
    fn update_persists() {
        let (mut ram, mut rng) = fixture(0.3, 2);
        ram.query(1, |c| c[..8].fill(0xEE), &mut rng).unwrap();
        let (contents, _) = ram.query(1, |_| {}, &mut rng).unwrap();
        assert_eq!(contents[..8], [0xEE; 8]);
    }

    /// The Appendix E overlap rule: an update to a shared cell through one
    /// bucket must be visible through every other bucket containing it,
    /// whatever the stash does in between.
    #[test]
    fn overlapping_updates_are_consistent() {
        for seed in 0..20 {
            let (mut ram, mut rng) = fixture(0.5, 100 + seed);
            // Cell 4 is shared by all buckets; update through bucket 0.
            ram.query(0, |c| c[8..16].fill(0x77), &mut rng).unwrap();
            for b in 1..4 {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                assert_eq!(contents[8..16], [0x77; 8], "seed {seed}, bucket {b}");
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
                ram.query(b, |c| c[pos * 8..][..8].copy_from_slice(&value), &mut rng)
                    .unwrap();
                reference[buckets[b][pos]] = value;
            } else {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                let expected: Vec<u8> =
                    buckets[b].iter().flat_map(|&c| reference[c].clone()).collect();
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
        // A bucket is a set: listing a cell twice would upload it twice,
        // the stale copy last, and lose the edit.
        let cells: Vec<Vec<u8>> = (0..3).map(|i| vec![i; 4]).collect();
        let twice = vec![vec![0, 0, 1], vec![2, 1, 0]];
        assert!(matches!(
            BucketRam::setup(cells, twice, 0.0, SimServer::new(), &mut rng),
            Err(BucketRamError::InvalidConfig(msg)) if msg == "bucket 0 lists cell 0 twice"
        ));
        // Cell ids are held as u32.
        let wide = vec![vec![1 << 32]];
        assert!(matches!(
            BucketRam::setup(vec![vec![0]], wide, 0.0, SimServer::new(), &mut rng),
            Err(BucketRamError::InvalidConfig(msg)) if msg.contains("beyond a u32 id")
        ));
        let (mut ram, mut rng) = fixture(0.1, 9);
        assert!(matches!(
            ram.query(4, |_| {}, &mut rng),
            Err(BucketRamError::BucketOutOfRange { bucket: 4, b: 4 })
        ));
    }

    /// A cell store that keeps a copy of the last upload batch it stored.
    #[derive(Debug, Default)]
    struct LastUpload {
        cells: CellStore,
        batch: Vec<(usize, Vec<u8>)>,
    }

    impl CellBackend for LastUpload {
        fn capacity(&self) -> usize {
            self.cells.capacity()
        }
        fn stride(&self) -> usize {
            self.cells.stride()
        }
        fn reset(&mut self, contents: CellStore) {
            self.cells = contents;
        }
        fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
            CellBackend::get(&mut self.cells, addr)
        }
        fn put<'a>(
            &mut self,
            items: impl Iterator<Item = (usize, &'a [u8])>,
        ) -> Result<(), ServerError> {
            self.batch.clear();
            self.batch
                .extend(items.map(|(addr, cell)| (addr, cell.to_vec())));
            self.cells
                .put(self.batch.iter().map(|(addr, cell)| (*addr, cell.as_slice())))
        }
    }

    /// A flight `[a, b, a, b]` uploads both buckets twice, and the server
    /// keeps the second copy: each first copy is a byte copy of the second,
    /// so the upload holds one ciphertext per distinct address, and those
    /// differ. The flight still reads and writes what a sequential run
    /// does.
    #[test]
    fn an_upload_its_own_flight_overwrites_is_a_copy() {
        let mut rng = ChaChaRng::seed_from_u64(11);
        let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        let server = Accounted::over(LastUpload::default());
        let mut ram = BucketRam::setup(cells, buckets, 0.0, server, &mut rng).unwrap();
        let edit = |j: usize, c: &mut [u8]| c[..8].fill(0xE0 + j as u8);
        ram.query_batch(&[2, 3, 2, 3], edit, &mut rng).unwrap();

        let upload = &ram.server_mut().batch;
        let addrs: Vec<usize> = upload.iter().map(|&(addr, _)| addr).collect();
        assert_eq!(addrs, [2, 4, 5, 3, 4, 5, 2, 4, 5, 3, 4, 5]);
        for (slot, (addr, cell)) in upload.iter().enumerate() {
            let last = addrs.iter().rposition(|a| a == addr).unwrap();
            assert_eq!(cell, &upload[last].1, "slot {slot} is not a copy of slot {last}");
            for (other, earlier) in &upload[..slot] {
                assert!(other == addr || earlier != cell, "cells {other} and {addr} share bytes");
            }
        }
        let ciphertexts: HashSet<&Vec<u8>> = upload.iter().map(|(_, cell)| cell).collect();
        let distinct: HashSet<&usize> = addrs.iter().collect();
        assert_eq!(ciphertexts.len(), distinct.len());

        let (two, _) = ram.query(2, |_| {}, &mut rng).unwrap();
        let (three, _) = ram.query(3, |_| {}, &mut rng).unwrap();
        assert_eq!(two, [[0xE2; 8], [4; 8], [5; 8]].concat());
        assert_eq!(three, [[0xE3; 8], [4; 8], [5; 8]].concat());
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
            let stashed: IndexSet = (0..buckets.len()).filter(|_| rng.gen_bool(p)).collect();
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
