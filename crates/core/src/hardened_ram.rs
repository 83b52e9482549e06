//! DP-RAM hardened against an actively malicious server.
//!
//! [`crate::dp_ram::DpRam`] is the paper's construction verbatim:
//! honest-but-curious server, IND-CPA encryption. This module is the
//! deployment-grade variant a storage operator would actually run when the
//! server can *misbehave*, layering two defences onto the identical
//! two-phase query algorithm (so every privacy and overhead property of
//! Theorem 6.1 carries over unchanged):
//!
//! * **AEAD with address binding** ([`dps_crypto::aead`]): each cell is
//!   sealed with its address as associated data, so a ciphertext served
//!   from the wrong address fails authentication (cell-swap attacks);
//! * **Merkle-verified storage** ([`dps_server::verified`]): the client
//!   keeps a 32-byte root; stale-but-authentic ciphertexts (rollback
//!   attacks) fail the root check.
//!
//! Costs: the address sequence and blocks-moved profile is *identical* to
//! DP-RAM (2 downloads + 1 upload per query — the Theorem 6.1 claim),
//! issued as three requests where DP-RAM coalesces its two downloads;
//! the extra price is `O(log n)` client-side hashes per access and
//! 28 bytes of AEAD expansion per cell.
//!
//! Every integrity failure is surfaced as
//! [`HardenedRamError::Tampering`]; see the `failure_injection`
//! integration tests for the attack scenarios.

use std::collections::HashMap;

use dps_crypto::aead::{address_aad, AeadCipher};
use dps_crypto::ChaChaRng;
use dps_server::verified::{VerifiedError, VerifiedServer};
use dps_workloads::Op;

use crate::dp_ram::{DpRamConfig, RamQueryTrace};

/// Errors from hardened DP-RAM operations.
#[derive(Debug)]
pub enum HardenedRamError {
    /// Record index out of `[0, n)`.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Database size.
        n: usize,
    },
    /// Invalid parameters or setup input.
    InvalidConfig(String),
    /// A write with the wrong block length.
    BadBlockSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// The server misbehaved: Merkle verification or AEAD authentication
    /// failed. The variant says which layer caught it.
    Tampering {
        /// The address involved.
        addr: usize,
        /// Which defence detected the attack.
        detected_by: TamperDetection,
    },
}

/// Which integrity layer caught an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperDetection {
    /// The Merkle root check (corruption and rollbacks).
    MerkleRoot,
    /// AEAD authentication with the address as associated data (swaps, or
    /// corruption that somehow passed the outer check).
    AddressBoundAead,
}

impl std::fmt::Display for HardenedRamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HardenedRamError::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range (n = {n})")
            }
            HardenedRamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HardenedRamError::BadBlockSize { got, expected } => {
                write!(f, "block has {got} bytes, expected {expected}")
            }
            HardenedRamError::Tampering { addr, detected_by } => write!(
                f,
                "server tampering detected at address {addr} (by {})",
                match detected_by {
                    TamperDetection::MerkleRoot => "Merkle root",
                    TamperDetection::AddressBoundAead => "address-bound AEAD",
                }
            ),
        }
    }
}

impl std::error::Error for HardenedRamError {}

impl HardenedRamError {
    fn from_verified(e: VerifiedError) -> Self {
        match e {
            VerifiedError::IntegrityViolation { addr } => {
                HardenedRamError::Tampering { addr, detected_by: TamperDetection::MerkleRoot }
            }
            VerifiedError::Server(err) => {
                HardenedRamError::InvalidConfig(format!("server failure: {err}"))
            }
        }
    }
}

/// A hardened DP-RAM client bound to an integrity-verified server.
#[derive(Debug)]
pub struct HardenedDpRam {
    config: DpRamConfig,
    block_size: usize,
    cipher: AeadCipher,
    stash: HashMap<usize, Vec<u8>>,
    server: VerifiedServer,
    /// Reusable sealed-cell scratch: cells are copied here from the
    /// (verified) arena and opened in place.
    cell_scratch: Vec<u8>,
    /// Reusable seal output scratch for the overwrite phase.
    enc_scratch: Vec<u8>,
}

impl HardenedDpRam {
    /// Algorithm 2 with AEAD cells and a Merkle commitment: seals
    /// `A[i] = Seal(K, aad = i, B_i)`, builds the tree, stashes each record
    /// independently with probability `p`.
    pub fn setup(
        config: DpRamConfig,
        blocks: &[Vec<u8>],
        rng: &mut ChaChaRng,
    ) -> Result<Self, HardenedRamError> {
        if config.n == 0 {
            return Err(HardenedRamError::InvalidConfig("n must be positive".into()));
        }
        if blocks.len() != config.n {
            return Err(HardenedRamError::InvalidConfig(format!(
                "expected {} blocks, got {}",
                config.n,
                blocks.len()
            )));
        }
        if !(0.0..=1.0).contains(&config.stash_probability) {
            return Err(HardenedRamError::InvalidConfig(format!(
                "stash probability must be in [0, 1], got {}",
                config.stash_probability
            )));
        }
        let block_size = blocks[0].len();
        if blocks.iter().any(|b| b.len() != block_size) {
            return Err(HardenedRamError::InvalidConfig("blocks must have uniform size".into()));
        }

        let cipher = AeadCipher::generate(rng);
        let cells: Vec<Vec<u8>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| cipher.seal(&address_aad(i, 0), b, rng).0)
            .collect();
        let server = VerifiedServer::init(cells);

        let mut stash = HashMap::new();
        for (i, block) in blocks.iter().enumerate() {
            if rng.gen_bool(config.stash_probability) {
                stash.insert(i, block.clone());
            }
        }
        Ok(Self {
            config,
            block_size,
            cipher,
            stash,
            server,
            cell_scratch: Vec::new(),
            enc_scratch: Vec::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> DpRamConfig {
        self.config
    }

    /// Current stash occupancy.
    pub fn stash_size(&self) -> usize {
        self.stash.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// **Adversary handle** for failure-injection tests: the underlying
    /// verified server, whose own adversary handles mutate cells without
    /// the trusted root.
    pub fn server_mut(&mut self) -> &mut VerifiedServer {
        &mut self.server
    }

    /// Copies the verified cell at `addr` into the reusable scratch buffer
    /// (one round trip, no allocation after warm-up).
    fn fetch_cell(&mut self, addr: usize) -> Result<(), VerifiedError> {
        let scratch = &mut self.cell_scratch;
        scratch.clear();
        self.server
            .read_batch_with(&[addr], |_, cell| scratch.extend_from_slice(cell))
    }

    /// Opens the scratch buffer's sealed cell in place against `addr`.
    fn open_scratch(&mut self, addr: usize) -> Result<(), HardenedRamError> {
        self.cipher
            .open_in_place(&address_aad(addr, 0), &mut self.cell_scratch)
            .map_err(|_| HardenedRamError::Tampering {
                addr,
                detected_by: TamperDetection::AddressBoundAead,
            })
    }

    /// Reads record `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, HardenedRamError> {
        Ok(self.query_traced(index, Op::Read, None, rng)?.0)
    }

    /// Overwrites record `index` with `value`.
    pub fn write(
        &mut self,
        index: usize,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<(), HardenedRamError> {
        self.query_traced(index, Op::Write, Some(value), rng)?;
        Ok(())
    }

    /// Algorithm 3 over verified storage, returning the typed transcript.
    pub fn query_traced(
        &mut self,
        index: usize,
        op: Op,
        new_value: Option<Vec<u8>>,
        rng: &mut ChaChaRng,
    ) -> Result<(Vec<u8>, RamQueryTrace), HardenedRamError> {
        if index >= self.config.n {
            return Err(HardenedRamError::IndexOutOfRange { index, n: self.config.n });
        }
        if let Some(v) = &new_value {
            if v.len() != self.block_size {
                return Err(HardenedRamError::BadBlockSize {
                    got: v.len(),
                    expected: self.block_size,
                });
            }
        }
        debug_assert!((op == Op::Write) == new_value.is_some());

        // ---- Download phase ----
        // The stash is only peeked: it changes at the commit below, once
        // the upload has succeeded, so a request that fails (a Merkle
        // violation, say) leaves the client holding what it held before.
        let stashed = self.stash.contains_key(&index);
        let download;
        if stashed {
            // Decoy download: verified, then discarded without copying.
            download = rng.gen_index(self.config.n);
            self.server
                .read_batch_with(&[download], |_, _| {})
                .map_err(HardenedRamError::from_verified)?;
        } else {
            download = index;
            self.fetch_cell(download)
                .map_err(HardenedRamError::from_verified)?;
            self.open_scratch(download)?;
        }
        let current = match (new_value, self.stash.get(&index)) {
            (Some(value), _) => value,
            (None, Some(held)) => held.clone(),
            (None, None) => self.cell_scratch.clone(),
        };

        // ---- Overwrite phase ----
        let stash = rng.gen_bool(self.config.stash_probability);
        let overwrite;
        if stash {
            overwrite = rng.gen_index(self.config.n);
            self.fetch_cell(overwrite)
                .map_err(HardenedRamError::from_verified)?;
            self.open_scratch(overwrite)?;
            self.cipher.seal_into(
                &address_aad(overwrite, 0),
                &self.cell_scratch,
                &mut self.enc_scratch,
                rng,
            );
        } else {
            overwrite = index;
            self.server
                .read_batch_with(&[overwrite], |_, _| {})
                .map_err(HardenedRamError::from_verified)?;
            self.cipher
                .seal_into(&address_aad(overwrite, 0), &current, &mut self.enc_scratch, rng);
        }
        self.server
            .write_from(overwrite, &self.enc_scratch)
            .map_err(HardenedRamError::from_verified)?;

        // ---- Commit ----
        if stash {
            self.stash.insert(index, current.clone());
        } else if stashed {
            self.stash.remove(&index);
        }

        Ok((current, RamQueryTrace { download, overwrite }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::Storage;

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 16]).collect()
    }

    fn build(n: usize, p: f64, seed: u64) -> (HardenedDpRam, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let ram =
            HardenedDpRam::setup(DpRamConfig { n, stash_probability: p }, &blocks(n), &mut rng)
                .unwrap();
        (ram, rng)
    }

    #[test]
    fn honest_execution_matches_reference() {
        let (mut ram, mut rng) = build(32, 0.25, 1);
        let mut reference = blocks(32);
        for step in 0u32..800 {
            let i = rng.gen_index(32);
            if rng.gen_bool(0.4) {
                let v = vec![(step % 256) as u8; 16];
                ram.write(i, v.clone(), &mut rng).unwrap();
                reference[i] = v;
            } else {
                assert_eq!(ram.read(i, &mut rng).unwrap(), reference[i], "step {step}");
            }
        }
    }

    #[test]
    fn overhead_is_identical_to_plain_dp_ram() {
        let (mut ram, mut rng) = build(64, 0.3, 2);
        for _ in 0..20 {
            let before = ram.server_stats();
            ram.read(rng.gen_index(64), &mut rng).unwrap();
            let diff = ram.server_stats().since(&before);
            assert_eq!(diff.downloads, 2);
            assert_eq!(diff.uploads, 1);
        }
    }

    #[test]
    fn corruption_is_detected_by_merkle_root() {
        let (mut ram, mut rng) = build(16, 0.0, 3); // p = 0: reads hit their own address
        let cell = ram.server_mut().adversary_cells_mut().read(7).unwrap();
        let mut bad = cell;
        bad[20] ^= 1;
        ram.server_mut().adversary_cells_mut().write(7, bad).unwrap();
        match ram.read(7, &mut rng) {
            Err(HardenedRamError::Tampering { addr: 7, detected_by }) => {
                assert_eq!(detected_by, TamperDetection::MerkleRoot);
            }
            other => panic!("expected tampering error, got {other:?}"),
        }
    }

    #[test]
    fn swap_attack_is_detected() {
        let (mut ram, mut rng) = build(16, 0.0, 4);
        // Adversary swaps two authentic ciphertexts AND rebuilds the
        // untrusted tree so the Merkle check passes locally... but the
        // trusted root catches the mismatch.
        let c3 = ram.server_mut().adversary_cells_mut().read(3).unwrap();
        let c9 = ram.server_mut().adversary_cells_mut().read(9).unwrap();
        ram.server_mut().adversary_cells_mut().write(3, c9).unwrap();
        ram.server_mut().adversary_cells_mut().write(9, c3).unwrap();
        assert!(matches!(ram.read(3, &mut rng), Err(HardenedRamError::Tampering { addr: 3, .. })));
    }

    #[test]
    fn validation_errors() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        assert!(HardenedDpRam::setup(DpRamConfig { n: 0, stash_probability: 0.1 }, &[], &mut rng)
            .is_err());
        let (mut ram, mut rng) = build(4, 0.2, 6);
        assert!(matches!(ram.read(4, &mut rng), Err(HardenedRamError::IndexOutOfRange { .. })));
        assert!(matches!(
            ram.write(0, vec![0u8; 3], &mut rng),
            Err(HardenedRamError::BadBlockSize { got: 3, expected: 16 })
        ));
    }

    #[test]
    fn trace_shape_matches_plain_dp_ram() {
        // The adversary's view (download, overwrite addresses) has the same
        // support structure as the unhardened scheme: p = 0 pins both to
        // the queried index.
        let (mut ram, mut rng) = build(8, 0.0, 7);
        for i in 0..8 {
            let (_, t) = ram.query_traced(i, Op::Read, None, &mut rng).unwrap();
            assert_eq!(t.download, i);
            assert_eq!(t.overwrite, i);
        }
    }
}
