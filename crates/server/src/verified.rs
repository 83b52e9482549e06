//! Integrity against a server that lies: a [`Storage`] decorator.
//!
//! The paper's model trusts the server to *store* faithfully and only
//! distrusts what it *observes*; its guarantee is a statement about the
//! transcript (Definition 3.1). A client-side check of the bytes a download
//! returned cannot change a transcript, so integrity composes *under*
//! [`Storage`], for every scheme at once: to harden a scheme, hand it
//! `Verified::new(server)` instead of `server`. `DpRam<Verified<S>>`,
//! `DpKvs<Verified<S>>`, `PathOram<Verified<S>>` … make the requests of the
//! plain scheme — same addresses, [`CostStats`] and round trips, on the
//! simulator, the disk store and the wire alike — and every cell they are
//! handed has been checked against a 32-byte Merkle root in trusted client
//! state. Corruption, cell swaps and rollbacks (a stale cell is authentic to
//! any per-cell tag; only the root can object) all surface as
//! [`ServerError::Integrity`] at the attacked address. Two rules:
//!
//! - **Verify before visit.** [`Storage::read_batch_with`] hands `visit` a
//!   cell only after it chained to the root — decoys and cells the scheme
//!   discards included. The round trip completes either way, so the
//!   server's view and charges are those of the plain call.
//! - **Commit after acknowledge.** Tree and root follow only an upload the
//!   inner server acknowledged, so a refused or interrupted upload leaves
//!   the root describing what the server still holds (NOTES.md, entry 8).
//!
//! The one place the decorator is not cost-transparent is
//! [`Storage::xor_cells_into`]: a root vouches for cells, not for a fold the
//! server computed, so the cells are downloaded, verified and folded
//! client-side, and charged as downloads.
//!
//! Only the root is trusted. The tree is kept beside the store as a
//! stand-in for server-side state: a deployment would have the server hold
//! it and ship the `O(log n)` sibling digests with each cell, which needs
//! wire support and is not built here. Tests play the lying server through
//! [`Verified::inner_mut`] (the cells) and
//! [`Verified::adversary_replace_tree`] (the tree); neither moves the root.

use dps_crypto::merkle::{Digest, MerkleTree};

use crate::server::ServerError;
use crate::stats::CostStats;
use crate::storage::Storage;
use crate::store::xor_fold;
use crate::transcript::Transcript;

/// The storage `S` with every download checked against a trusted Merkle
/// root (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Verified<S> {
    inner: S,
    /// Untrusted: in deployment this is server-side state.
    tree: MerkleTree,
    /// Trusted client state — the only thing the client must protect.
    root: Digest,
}

/// The commitment to the cells with these leaf digests: the tree and its
/// root. A store of no cells gets one empty-cell leaf, which no address
/// reaches.
fn commit(mut leaves: Vec<Digest>) -> (MerkleTree, Digest) {
    if leaves.is_empty() {
        leaves.push(MerkleTree::leaf(&[]));
    }
    let tree = MerkleTree::from_leaves(leaves);
    let root = tree.root();
    (tree, root)
}

impl<S: Storage> Verified<S> {
    /// Wraps `inner`, vouching for nothing it already holds — each of its
    /// cells is committed as the empty cell — until a scheme's set-up
    /// ([`Storage::init`]) commits to the cells it hands over.
    pub fn new(inner: S) -> Self {
        let (tree, root) = commit(vec![MerkleTree::leaf(&[]); inner.capacity()]);
        Self { inner, tree, root }
    }

    /// The trusted root (e.g. to persist across client restarts).
    pub fn trusted_root(&self) -> Digest {
        self.root
    }

    /// The wrapped storage. Doubles as the **adversary handle**: what is
    /// done through it bypasses the root, as a lying server would.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// **Adversary handle**: overwrite the untrusted tree (e.g. with one
    /// recomputed over tampered cells — still caught, because the *root*
    /// does not match).
    pub fn adversary_replace_tree(&mut self, tree: MerkleTree) {
        self.tree = tree;
    }
}

impl<S: Storage> Storage for Verified<S> {
    /// Leaves are hashed as the cells stream past to the inner server.
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        let mut leaves = Vec::with_capacity(capacity);
        self.inner.init_with(capacity, |sink| {
            produce(&mut |cell| {
                leaves.push(MerkleTree::leaf(cell));
                sink(cell);
            });
        });
        (self.tree, self.root) = commit(leaves);
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn cell_stride(&self) -> usize {
        self.inner.cell_stride()
    }

    fn start_recording(&mut self) {
        self.inner.start_recording();
    }

    fn take_transcript(&mut self) -> Transcript {
        self.inner.take_transcript()
    }

    /// Verification hashes are client-side compute; the paper counts cells.
    fn stats(&self) -> CostStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Fails with the first address that did not verify, once the round
    /// trip is over; `visit` sees no cell from that one on. An address
    /// without a leaf (the server's capacity is not the committed one) does
    /// not verify.
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        let (tree, root) = (&self.tree, &self.root);
        let verifies = |addr, cell: &[u8]| {
            addr < tree.len() && MerkleTree::verify(root, cell, &tree.prove(addr))
        };
        let mut failed = None;
        self.inner.read_batch_with(addrs, |i, cell| match failed {
            None if verifies(addrs[i], cell) => visit(i, cell),
            None => failed = Some(addrs[i]),
            Some(_) => {}
        })?;
        failed.map_or(Ok(()), |addr| Err(ServerError::Integrity { addr }))
    }

    /// Bounds are the inner server's to check; an acknowledged address
    /// without a leaf is the same lie as in a download.
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError> {
        self.inner.write_cells(cells.clone())?;
        if let Some((addr, _)) = cells.clone().find(|&(addr, _)| addr >= self.tree.len()) {
            return Err(ServerError::Integrity { addr });
        }
        for (addr, cell) in cells {
            self.tree.update(addr, cell);
        }
        self.root = self.tree.root();
        Ok(())
    }

    /// The fold of the model ([`Accounted`](crate::Accounted)), over cells
    /// that verified.
    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        acc.clear();
        self.read_batch_with(addrs, |_, cell| xor_fold(acc, cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SimServer;

    fn cells(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 8]).collect()
    }

    fn build(n: usize) -> Verified<SimServer> {
        let mut s = Verified::new(SimServer::new());
        s.init(cells(n));
        s
    }

    fn integrity<T>(addr: usize) -> Result<T, ServerError> {
        Err(ServerError::Integrity { addr })
    }

    #[test]
    fn honest_reads_and_writes_verify() {
        let mut s = build(16);
        assert_eq!(s.read(3).unwrap(), vec![3u8; 8]);
        s.write(3, vec![0xAA; 8]).unwrap();
        assert_eq!(s.read(3).unwrap(), vec![0xAA; 8]);
        assert_eq!(s.read_batch(&[0, 3, 15]).unwrap()[1], vec![0xAA; 8]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut s = build(16);
        s.inner_mut().write(5, vec![0xFF; 8]).unwrap();
        assert_eq!(s.read(5), integrity(5));
    }

    #[test]
    fn swap_is_detected() {
        let mut s = build(16);
        // Adversary swaps cells 2 and 9 (and even fixes up its own tree).
        let mut tampered = cells(16);
        tampered.swap(2, 9);
        s.inner_mut().write(2, tampered[2].clone()).unwrap();
        s.inner_mut().write(9, tampered[9].clone()).unwrap();
        s.adversary_replace_tree(MerkleTree::build(&tampered));
        assert_eq!(s.read(2), integrity(2));
    }

    #[test]
    fn rollback_is_detected() {
        let mut s = build(8);
        let old = s.read(1).unwrap();
        s.write(1, vec![0xBB; 8]).unwrap();
        // Adversary rolls the cell back to its old value and rebuilds the
        // untrusted tree to match — the trusted root still catches it.
        s.inner_mut().write(1, old).unwrap();
        s.adversary_replace_tree(MerkleTree::build(&cells(8)));
        assert_eq!(s.read(1), integrity(1));
    }

    /// The first bad address is reported, no cell from it on is visited,
    /// and the server saw and charged the whole round trip.
    #[test]
    fn batch_read_detects_single_bad_cell() {
        let mut s = build(8);
        s.inner_mut().write(6, vec![0u8; 8]).unwrap();
        s.inner_mut().write(2, vec![0u8; 8]).unwrap();
        assert_eq!(s.read_batch(&[0, 6, 7]), integrity(6));
        s.reset_stats();
        s.start_recording();
        let mut seen = Vec::new();
        assert_eq!(s.read_batch_with(&[1, 6, 7, 2], |i, _| seen.push(i)), integrity(6));
        assert_eq!(seen, vec![0]);
        assert_eq!((s.stats().downloads, s.stats().round_trips), (4, 1));
        assert_eq!(s.take_transcript().events().count(), 4);
    }

    #[test]
    fn root_changes_on_every_write() {
        let mut s = build(4);
        let r0 = s.trusted_root();
        s.write(0, vec![1u8; 8]).unwrap();
        let r1 = s.trusted_root();
        assert_ne!(r0, r1);
        s.write(0, vec![1u8; 8]).unwrap();
        assert_eq!(s.trusted_root(), r1, "same content, same root");
    }

    /// A refused batch moves nothing: not the root (it used to, and the
    /// tree panicked), not the in-range cell named before the bad one —
    /// whether the bad one is out of range or not the stride's length.
    #[test]
    fn server_errors_pass_through() {
        let mut s = build(4);
        let root = s.trusted_root();
        let refused = ServerError::OutOfBounds { addr: 9, capacity: 4 };
        assert_eq!(s.read(9), Err(refused.clone()));
        assert_eq!(s.write(9, vec![1; 8]), Err(refused.clone()));
        assert_eq!(s.write_batch(vec![(3, vec![1; 8]), (9, vec![1; 8])]), Err(refused));
        let too_long = ServerError::WrongCellLength { addr: 2, len: 9, stride: 8 };
        assert_eq!(s.write_batch(vec![(3, vec![1; 8]), (2, vec![1; 9])]), Err(too_long));
        let too_short = ServerError::WrongCellLength { addr: 2, len: 7, stride: 8 };
        assert_eq!(s.write_batch(vec![(3, vec![1; 8]), (2, vec![1; 7])]), Err(too_short));
        assert_eq!(s.trusted_root(), root);
        assert_eq!(s.read_batch(&[0, 1, 2, 3]).unwrap(), cells(4));
    }

    /// The fold is computed from verified downloads, not taken from the
    /// server — and is charged as what it is.
    #[test]
    fn a_fold_is_computed_from_verified_cells() {
        let mut s = build(8);
        let mut acc = vec![0xEE; 3]; // stale contents must be cleared
        s.xor_cells_into(&[1, 2, 4], &mut acc).unwrap();
        assert_eq!(acc, vec![7u8; 8]);
        let charged = s.stats();
        assert_eq!((charged.downloads, charged.computed, charged.round_trips), (3, 0, 1));
        s.inner_mut().write(2, vec![0; 8]).unwrap();
        assert_eq!(s.xor_cells(&[1, 2, 4]), integrity(2));
    }

    /// Cells the client never committed to — more than at set-up, or there
    /// before the wrap — fail on both primitives; the tree never panics.
    #[test]
    fn cells_the_client_never_committed_to_do_not_verify() {
        let mut s = build(4);
        s.inner_mut().init(cells(8));
        assert_eq!(s.read(6), integrity(6));
        assert_eq!(s.write(6, vec![1; 8]), integrity(6));
        assert_eq!(Verified::new(s.inner.clone()).read(1), integrity(1));
        assert!(Verified::new(SimServer::new()).is_empty());
    }
}
