//! Cryptographic substrate for the `dp-storage` workspace.
//!
//! The paper's constructions need exactly three cryptographic tools:
//!
//! * an **IND-CPA symmetric encryption scheme** `(Enc, Dec)` used by DP-RAM
//!   and DP-KVS to re-randomize block contents on every overwrite
//!   ([`cipher::BlockCipher`], ChaCha20 in CTR mode with fresh nonces);
//! * a **pseudorandom function** used by the two-choice mapping scheme to
//!   derive bucket choices `Π(u) = {F(key1, u), F(key2, u)}`: one
//!   [`chacha::block`] under a key derived by [`hmac::hmac_sha256`], two
//!   disjoint 64-bit words reduced by [`prf::reduce`] (the type is
//!   `dps_hashing::forest::TwoChoice`; [`prf::HmacPrf`] keys cuckoo
//!   hashing and the PRP);
//! * a **source of private randomness** for the noise each scheme injects
//!   ([`rng::ChaChaRng`], a deterministic ChaCha20-based CSPRNG so that every
//!   experiment in this repository is exactly reproducible from a seed).
//!
//! Three further tools support the workspace's extensions beyond the
//! paper's honest-but-curious model and its baselines:
//!
//! * **ChaCha20-Poly1305 AEAD** ([`aead::AeadCipher`], RFC 8439 complete,
//!   built on [`poly1305`]) with associated data, used by the hardened
//!   DP-RAM to bind each ciphertext to its storage address;
//! * a **Merkle hash tree** ([`merkle::MerkleTree`]) giving the client a
//!   32-byte commitment that detects corruption, swaps and rollbacks by an
//!   actively malicious server;
//! * a **small-domain PRP** ([`prp::SmallDomainPrp`], 4-round Feistel with
//!   cycle walking) so the square-root ORAM baseline can evaluate its cell
//!   permutation from a key instead of storing a table.
//!
//! Everything is implemented from primitives (no external crates) and tested
//! against the published RFC 8439 / FIPS 180-4 / RFC 4231 vectors.

// `deny` rather than `forbid`: every `unsafe` in the crate is confined to
// three audited modules, `chacha::sse2` and `chacha::avx2`
// (crates/crypto/src/chacha.rs) and `poly1305::avx2`
// (crates/crypto/src/poly1305.rs), whose `#[allow(unsafe_code)]` sites
// cover (a) calling the `#[target_feature(enable = ...)]` bodies — a
// formality for SSE2, which is the x86-64 baseline ABI the module is
// compile-time gated on, and runtime-guarded for AVX2: ChaCha's public
// wrappers assert `is_x86_feature_detected!("avx2")` before entering the
// `target_feature` body, and the Poly1305 lane kernel's one call is
// guarded by `isa::tier() == IsaTier::Avx2`, a tier `isa` resolves only
// when detection saw AVX2 — and (b) ChaCha's 16-/32-byte unaligned vector
// load/stores through pointers derived from exclusively borrowed,
// length-checked slices. The Poly1305 body is safe code (lane loops, no
// intrinsics). No other pointer arithmetic, no transmutes; the rest of
// the crate (including the `isa` dispatch table) remains unsafe-free and
// the lint rejects any new exception without review.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha;
pub mod cipher;
pub mod hmac;
pub mod isa;
pub mod merkle;
pub mod poly1305;
pub mod prf;
pub mod prp;
pub mod rng;
mod seal;
pub mod sha256;

pub use aead::{AeadCipher, AEAD_OVERHEAD};
pub use chacha::Nonce;
pub use cipher::{BlockCipher, Ciphertext, CryptoError, Key, CIPHERTEXT_OVERHEAD};
pub use hmac::HmacKey;
pub use isa::IsaTier;
pub use prf::{HmacPrf, Prf};
pub use prp::SmallDomainPrp;
pub use rng::ChaChaRng;
