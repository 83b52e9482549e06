//! Fixed-size slot encoding for composite cells.
//!
//! ORAM buckets (and DP-KVS tree nodes) hold a fixed number of slots, each
//! either empty or carrying `(id, payload)`. Cells must be
//! *length-indistinguishable* — every bucket serializes to exactly the same
//! byte length regardless of occupancy — so the encoding pads empty slots.

/// A slot: either vacant or an identified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Identifier (block index or KVS key).
    pub id: u64,
    /// Fixed-size payload.
    pub payload: Vec<u8>,
}

/// Errors from slot decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// The byte length does not match the expected geometry.
    BadLength {
        /// Bytes received.
        got: usize,
        /// Bytes expected.
        expected: usize,
    },
    /// The occupancy marker is neither 0 nor 1.
    BadMarker(u8),
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::BadLength { got, expected } => {
                write!(f, "cell has {got} bytes, expected {expected}")
            }
            SlotError::BadMarker(m) => write!(f, "invalid slot occupancy marker {m}"),
        }
    }
}

impl std::error::Error for SlotError {}

const SLOT_HEADER: usize = 1 + 8; // occupancy marker + id

/// Serialized length of a bucket with `capacity` slots of `payload_len` bytes.
pub fn encoded_len(capacity: usize, payload_len: usize) -> usize {
    capacity * (SLOT_HEADER + payload_len)
}

/// Encodes up to `capacity` slots, padding with vacant slots. Every call
/// with the same geometry returns the same length.
///
/// # Panics
/// Panics if more than `capacity` slots are given or a payload has the
/// wrong length.
pub fn encode_bucket(slots: &[Slot], capacity: usize, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(capacity, payload_len));
    encode_bucket_into(slots, capacity, payload_len, &mut out);
    out
}

/// [`encode_bucket`] into a caller scratch buffer (cleared first): no heap
/// allocation once `out` has capacity. The hot-path form for ORAM write
/// paths that re-encode buckets on every access.
///
/// # Panics
/// Panics if more than `capacity` slots are given or a payload has the
/// wrong length.
pub fn encode_bucket_into(slots: &[Slot], capacity: usize, payload_len: usize, out: &mut Vec<u8>) {
    assert!(slots.len() <= capacity, "bucket overflow: {} > {capacity}", slots.len());
    out.clear();
    out.reserve(encoded_len(capacity, payload_len));
    for slot in slots {
        assert_eq!(slot.payload.len(), payload_len, "payload length mismatch");
        out.push(1);
        out.extend_from_slice(&slot.id.to_le_bytes());
        out.extend_from_slice(&slot.payload);
    }
    for _ in slots.len()..capacity {
        out.push(0);
        out.extend_from_slice(&[0u8; 8]);
        out.extend(std::iter::repeat_n(0u8, payload_len));
    }
}

/// Decodes a bucket produced by [`encode_bucket`]. Vacant slots are omitted
/// from the result.
pub fn decode_bucket(
    bytes: &[u8],
    capacity: usize,
    payload_len: usize,
) -> Result<Vec<Slot>, SlotError> {
    let expected = encoded_len(capacity, payload_len);
    if bytes.len() != expected {
        return Err(SlotError::BadLength { got: bytes.len(), expected });
    }
    let stride = SLOT_HEADER + payload_len;
    let mut slots = Vec::new();
    for chunk in bytes.chunks_exact(stride) {
        match chunk[0] {
            0 => {}
            1 => slots.push(Slot {
                id: u64::from_le_bytes(chunk[1..9].try_into().expect("8-byte id")),
                payload: chunk[9..].to_vec(),
            }),
            m => return Err(SlotError::BadMarker(m)),
        }
    }
    Ok(slots)
}

/// The one change [`edit_in_place`] makes to the slots stored under an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotEdit<'a> {
    /// Overwrite the payload of the first slot with the id, if there is one.
    Update(&'a [u8]),
    /// Append a slot with the id and this payload.
    Insert(&'a [u8]),
    /// Drop every slot with the id.
    Remove,
}

fn check(bytes: &[u8], capacity: usize, payload_len: usize) -> Result<(), SlotError> {
    let expected = encoded_len(capacity, payload_len);
    if bytes.len() != expected {
        return Err(SlotError::BadLength { got: bytes.len(), expected });
    }
    match bytes.iter().step_by(SLOT_HEADER + payload_len).find(|&&m| m > 1) {
        Some(&m) => Err(SlotError::BadMarker(m)),
        None => Ok(()),
    }
}

fn slot_id(slot: &[u8]) -> u64 {
    u64::from_le_bytes(slot[1..SLOT_HEADER].try_into().expect("8-byte id"))
}

/// Reads an encoded bucket where it lies: its load and the payload of the
/// first slot stored under `id` — what [`decode_bucket`] followed by a
/// `len()` and a `find` returns, without building the slots.
pub fn probe(
    bytes: &[u8],
    capacity: usize,
    payload_len: usize,
    id: u64,
) -> Result<(usize, Option<&[u8]>), SlotError> {
    check(bytes, capacity, payload_len)?;
    let occupied = bytes
        .chunks_exact(SLOT_HEADER + payload_len)
        .filter(|slot| slot[0] == 1);
    let (mut load, mut found) = (0, None);
    for slot in occupied {
        load += 1;
        if found.is_none() && slot_id(slot) == id {
            found = Some(&slot[SLOT_HEADER..]);
        }
    }
    Ok((load, found))
}

/// Edits an encoded bucket where it lies, leaving exactly the bytes
/// `encode_bucket(edit(decode_bucket(bytes)))` would build: occupied slots
/// first, in order, then zeroed vacant ones. `bytes` is untouched on error.
///
/// # Panics
/// Panics if an insert finds no vacant slot or a payload has the wrong
/// length, as [`encode_bucket`] does.
pub fn edit_in_place(
    bytes: &mut [u8],
    capacity: usize,
    payload_len: usize,
    id: u64,
    edit: SlotEdit<'_>,
) -> Result<(), SlotError> {
    check(bytes, capacity, payload_len)?;
    let stride = SLOT_HEADER + payload_len;
    let mut update = match edit {
        SlotEdit::Update(payload) => Some(payload),
        _ => None,
    };
    let mut kept = 0;
    for slot in 0..capacity {
        let at = slot * stride;
        if bytes[at] == 0 {
            continue;
        }
        let hit = slot_id(&bytes[at..at + stride]) == id;
        if hit && edit == SlotEdit::Remove {
            continue;
        }
        bytes.copy_within(at..at + stride, kept * stride);
        if let Some(payload) = update.take_if(|_| hit) {
            bytes[kept * stride + SLOT_HEADER..][..payload_len].copy_from_slice(payload);
        }
        kept += 1;
    }
    if let SlotEdit::Insert(payload) = edit {
        assert!(kept < capacity, "bucket overflow: {} > {capacity}", kept + 1);
        let slot = &mut bytes[kept * stride..][..stride];
        slot[0] = 1;
        slot[1..SLOT_HEADER].copy_from_slice(&id.to_le_bytes());
        slot[SLOT_HEADER..].copy_from_slice(payload);
        kept += 1;
    }
    bytes[kept * stride..].fill(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(id: u64, byte: u8, len: usize) -> Slot {
        Slot { id, payload: vec![byte; len] }
    }

    #[test]
    fn round_trip() {
        let slots = vec![slot(1, 0xaa, 16), slot(2, 0xbb, 16)];
        let bytes = encode_bucket(&slots, 4, 16);
        assert_eq!(decode_bucket(&bytes, 4, 16).unwrap(), slots);
    }

    #[test]
    fn empty_and_full_have_equal_length() {
        let empty = encode_bucket(&[], 4, 16);
        let full = encode_bucket(&(0..4).map(|i| slot(i, 1, 16)).collect::<Vec<_>>(), 4, 16);
        assert_eq!(empty.len(), full.len());
        assert_eq!(empty.len(), encoded_len(4, 16));
    }

    #[test]
    fn vacant_slots_are_dropped_on_decode() {
        let bytes = encode_bucket(&[slot(7, 3, 8)], 3, 8);
        let decoded = decode_bucket(&bytes, 3, 8).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].id, 7);
    }

    #[test]
    fn wrong_length_is_rejected() {
        assert_eq!(
            decode_bucket(&[0u8; 5], 2, 8),
            Err(SlotError::BadLength { got: 5, expected: encoded_len(2, 8) })
        );
    }

    #[test]
    fn bad_marker_is_rejected() {
        let mut bytes = encode_bucket(&[], 1, 4);
        bytes[0] = 9;
        assert_eq!(decode_bucket(&bytes, 1, 4), Err(SlotError::BadMarker(9)));
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn overflow_is_rejected() {
        encode_bucket(&[slot(0, 0, 4), slot(1, 0, 4)], 1, 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn payload_length_enforced() {
        encode_bucket(&[slot(0, 0, 3)], 1, 4);
    }
}
