//! An ORAM-backed key-value store: the baseline DP-KVS is compared against.
//!
//! The paper says its `O(log log n)` DP-KVS is "exponentially better than
//! the best oblivious key-value storage schemes based on ORAMs". This
//! module is that competitor: keys are mapped to Path-ORAM indices through a
//! client-side directory, and every operation (hit *or* miss) performs
//! exactly one ORAM access so the server learns nothing about keys or hits.
//!
//! Note the directory is held client-side; a deployment with a small client
//! would push it into recursive ORAMs and get strictly worse — so this
//! baseline is *charitable* to ORAM, which only strengthens the measured
//! separation.

use dps_crypto::ChaChaRng;
use dps_server::{SimServer, Storage};

use crate::path_oram::{OramError, PathOram, PathOramConfig};

/// An oblivious KVS built on Path ORAM.
#[derive(Debug)]
pub struct OramKvs<S: Storage = SimServer> {
    oram: PathOram<S>,
    directory: std::collections::HashMap<u64, usize>,
    free: Vec<usize>,
    value_size: usize,
    capacity: usize,
}

/// Errors from the ORAM-backed KVS.
#[derive(Debug)]
pub enum OramKvsError {
    /// All `n` slots are occupied.
    CapacityExhausted,
    /// Value byte length differs from the configured size.
    BadValueSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// Underlying ORAM failure.
    Oram(OramError),
}

impl std::fmt::Display for OramKvsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OramKvsError::CapacityExhausted => write!(f, "KVS capacity exhausted"),
            OramKvsError::BadValueSize { got, expected } => {
                write!(f, "value has {got} bytes, expected {expected}")
            }
            OramKvsError::Oram(e) => write!(f, "ORAM failure: {e}"),
        }
    }
}

impl std::error::Error for OramKvsError {}

impl From<OramError> for OramKvsError {
    fn from(e: OramError) -> Self {
        OramKvsError::Oram(e)
    }
}

impl OramKvs {
    /// Creates an empty KVS with room for `capacity` keys of
    /// `value_size`-byte values, backed by an in-process [`SimServer`].
    pub fn new(capacity: usize, value_size: usize, rng: &mut ChaChaRng) -> Self {
        Self::new_on(capacity, value_size, rng)
    }
}

impl<S: Storage> OramKvs<S> {
    /// [`OramKvs::new`] over a default-constructed backend of type `S`.
    /// To configure the server (a store directory, a daemon's address),
    /// use [`OramKvs::new_with`].
    pub fn new_on(capacity: usize, value_size: usize, rng: &mut ChaChaRng) -> Self
    where
        S: Default,
    {
        Self::new_with(capacity, value_size, S::default(), rng)
    }

    /// [`OramKvs::new`] over a caller-constructed backend — e.g.
    /// `OramKvs::new_with(n, v, RemoteServer::connect(addr)?, rng)`.
    pub fn new_with(capacity: usize, value_size: usize, server: S, rng: &mut ChaChaRng) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let zeroes: Vec<Vec<u8>> = vec![vec![0u8; value_size]; capacity];
        let oram = PathOram::setup(
            PathOramConfig::recommended(capacity, value_size),
            &zeroes,
            server,
            rng,
        );
        Self {
            oram,
            directory: std::collections::HashMap::new(),
            free: (0..capacity).rev().collect(),
            value_size,
            capacity,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks moved per operation (hit or miss — identical by design).
    pub fn blocks_per_op(&self) -> usize {
        self.oram.blocks_per_access()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.oram.server_stats()
    }

    /// Looks up `key`. Misses perform a dummy ORAM access so the transcript
    /// shape is hit/miss independent.
    pub fn get(&mut self, key: u64, rng: &mut ChaChaRng) -> Result<Option<Vec<u8>>, OramKvsError> {
        match self.directory.get(&key).copied() {
            Some(index) => Ok(Some(self.oram.read(index, rng)?)),
            None => {
                // Dummy access to an arbitrary slot: same transcript shape.
                let dummy = rng.gen_index(self.capacity);
                let _ = self.oram.read(dummy, rng)?;
                Ok(None)
            }
        }
    }

    /// Inserts or updates `key`.
    pub fn put(
        &mut self,
        key: u64,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<(), OramKvsError> {
        if value.len() != self.value_size {
            return Err(OramKvsError::BadValueSize { got: value.len(), expected: self.value_size });
        }
        let index = match self.directory.get(&key).copied() {
            Some(index) => index,
            None => {
                let index = self.free.pop().ok_or(OramKvsError::CapacityExhausted)?;
                self.directory.insert(key, index);
                index
            }
        };
        self.oram.write(index, value, rng)?;
        Ok(())
    }

    /// Removes `key`, returning its value. Performs one ORAM access either
    /// way (dummy on miss).
    pub fn remove(
        &mut self,
        key: u64,
        rng: &mut ChaChaRng,
    ) -> Result<Option<Vec<u8>>, OramKvsError> {
        match self.directory.remove(&key) {
            Some(index) => {
                let old = self.oram.write(index, vec![0u8; self.value_size], rng)?;
                self.free.push(index);
                Ok(Some(old))
            }
            None => {
                let dummy = rng.gen_index(self.capacity);
                let _ = self.oram.read(dummy, rng)?;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut kvs = OramKvs::new(32, 8, &mut rng);
        kvs.put(0xdead_beef, vec![7u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.get(0xdead_beef, &mut rng).unwrap(), Some(vec![7u8; 8]));
    }

    #[test]
    fn miss_returns_none_but_accesses_oram() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let mut kvs = OramKvs::new(16, 4, &mut rng);
        let before = kvs.server_stats();
        assert_eq!(kvs.get(42, &mut rng).unwrap(), None);
        let diff = kvs.server_stats().since(&before);
        assert!(diff.downloads > 0, "misses must still touch the ORAM");
    }

    #[test]
    fn update_overwrites() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let mut kvs = OramKvs::new(16, 4, &mut rng);
        kvs.put(1, vec![1; 4], &mut rng).unwrap();
        kvs.put(1, vec![2; 4], &mut rng).unwrap();
        assert_eq!(kvs.len(), 1);
        assert_eq!(kvs.get(1, &mut rng).unwrap(), Some(vec![2; 4]));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let mut kvs = OramKvs::new(2, 4, &mut rng);
        kvs.put(1, vec![1; 4], &mut rng).unwrap();
        kvs.put(2, vec![2; 4], &mut rng).unwrap();
        assert!(matches!(kvs.put(3, vec![3; 4], &mut rng), Err(OramKvsError::CapacityExhausted)));
        assert_eq!(kvs.remove(1, &mut rng).unwrap(), Some(vec![1; 4]));
        kvs.put(3, vec![3; 4], &mut rng).unwrap();
        assert_eq!(kvs.get(3, &mut rng).unwrap(), Some(vec![3; 4]));
        assert_eq!(kvs.get(1, &mut rng).unwrap(), None);
    }

    #[test]
    fn bad_value_size_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let mut kvs = OramKvs::new(4, 4, &mut rng);
        assert!(matches!(
            kvs.put(1, vec![0; 3], &mut rng),
            Err(OramKvsError::BadValueSize { got: 3, expected: 4 })
        ));
    }

    #[test]
    fn many_keys() {
        let mut rng = ChaChaRng::seed_from_u64(6);
        let mut kvs = OramKvs::new(64, 8, &mut rng);
        for k in 0..64u64 {
            kvs.put(k * 1000, vec![k as u8; 8], &mut rng).unwrap();
        }
        for k in 0..64u64 {
            assert_eq!(kvs.get(k * 1000, &mut rng).unwrap(), Some(vec![k as u8; 8]));
        }
    }
}
