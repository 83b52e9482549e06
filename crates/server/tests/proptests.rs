//! Property-based tests for the server substrate.

use dps_server::cells::{
    decode_bucket, edit_in_place, encode_bucket, encoded_len, probe, Slot, SlotEdit, SlotError,
};
use dps_server::{AccessEvent, SimServer, Storage, Transcript};
use proptest::prelude::*;

fn arb_slots(max_slots: usize, payload_len: usize) -> impl Strategy<Value = Vec<Slot>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), payload_len..=payload_len)),
        0..=max_slots,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, payload)| Slot { id, payload })
            .collect()
    })
}

/// `probe` and `edit_in_place` against the decode → edit → encode path on
/// one bucket of 8-byte payloads.
fn check_in_place(bytes: &[u8], capacity: usize, id: u64, edit: SlotEdit<'_>) {
    let mut edited = bytes.to_vec();
    let mut slots = match decode_bucket(bytes, capacity, 8) {
        Ok(slots) => slots,
        Err(e) => {
            assert!(matches!(e, SlotError::BadMarker(_)));
            assert_eq!(probe(bytes, capacity, 8, id), Err(e));
            assert_eq!(edit_in_place(&mut edited, capacity, 8, id, edit), Err(e));
            assert_eq!(edited, bytes);
            return;
        }
    };
    let stored = slots
        .iter()
        .find(|slot| slot.id == id)
        .map(|slot| slot.payload.as_slice());
    assert_eq!(probe(bytes, capacity, 8, id), Ok((slots.len(), stored)));
    match edit {
        SlotEdit::Update(payload) => {
            if let Some(slot) = slots.iter_mut().find(|slot| slot.id == id) {
                slot.payload = payload.to_vec();
            }
        }
        // An insert into a full bucket panics on both paths.
        SlotEdit::Insert(_) if slots.len() == capacity => return,
        SlotEdit::Insert(payload) => slots.push(Slot { id, payload: payload.to_vec() }),
        SlotEdit::Remove => slots.retain(|slot| slot.id != id),
    }
    edit_in_place(&mut edited, capacity, 8, id, edit).unwrap();
    assert_eq!(edited, encode_bucket(&slots, capacity, 8));
}

proptest! {
    /// Cell encoding round-trips and is always the same length.
    #[test]
    fn cells_round_trip(slots in arb_slots(6, 16), capacity_extra in 0usize..4) {
        let capacity = 6 + capacity_extra;
        let bytes = encode_bucket(&slots, capacity, 16);
        prop_assert_eq!(bytes.len(), encoded_len(capacity, 16));
        prop_assert_eq!(decode_bucket(&bytes, capacity, 16).unwrap(), slots);
    }

    /// Reading and editing an encoded bucket where it lies is the
    /// decode → edit → encode path, byte for byte: every load `0..=capacity`,
    /// ids that hit, miss and repeat, update / insert / remove, over the
    /// layout `encode_bucket` writes and over any other that decodes (vacant
    /// slots anywhere, with anything in them). A marker that does not
    /// decode is the same error and leaves the bytes alone.
    #[test]
    fn in_place_bucket_edits_match_decode_edit_encode(
        raw in proptest::collection::vec(
            (0u8..8, 0u64..4, proptest::collection::vec(any::<u8>(), 8..=8)),
            1..6,
        ),
        canonical in any::<bool>(),
        id in 0u64..4,
        kind in 0usize..3,
        payload in proptest::collection::vec(any::<u8>(), 8..=8),
    ) {
        let capacity = raw.len();
        let mut bytes = Vec::new();
        for (marker, slot_id, content) in &raw {
            bytes.push(if *marker < 6 { marker % 2 } else { *marker });
            bytes.extend_from_slice(&slot_id.to_le_bytes());
            bytes.extend_from_slice(content);
        }
        if canonical {
            let occupied: Vec<Slot> = raw
                .iter()
                .filter(|(marker, ..)| marker % 2 == 1)
                .map(|(_, id, payload)| Slot { id: *id, payload: payload.clone() })
                .collect();
            bytes = encode_bucket(&occupied, capacity, 8);
        }
        let edit = [SlotEdit::Update(&payload), SlotEdit::Insert(&payload), SlotEdit::Remove][kind];

        check_in_place(&bytes, capacity, id, edit);
    }

    /// Server read-after-write returns the written cell for arbitrary
    /// programs of operations.
    #[test]
    fn server_read_your_writes(
        ops in proptest::collection::vec((0usize..16, proptest::collection::vec(any::<u8>(), 4)), 1..60)
    ) {
        let mut server = SimServer::new();
        server.init(vec![vec![0u8; 4]; 16]);
        let mut model = vec![vec![0u8; 4]; 16];
        for (addr, data) in ops {
            server.write(addr, data.clone()).unwrap();
            model[addr] = data;
            let check = addr / 2;
            prop_assert_eq!(server.read(check).unwrap(), model[check].clone());
        }
    }

    /// Stats counters are consistent with operation counts.
    #[test]
    fn server_stats_consistent(reads in 0u64..30, writes in 0u64..30) {
        let mut server = SimServer::new();
        server.init(vec![vec![1u8; 8]; 4]);
        for i in 0..reads {
            server.read((i % 4) as usize).unwrap();
        }
        for i in 0..writes {
            server.write((i % 4) as usize, vec![2u8; 8]).unwrap();
        }
        let s = server.stats();
        prop_assert_eq!(s.downloads, reads);
        prop_assert_eq!(s.uploads, writes);
        prop_assert_eq!(s.bytes_down, reads * 8);
        prop_assert_eq!(s.bytes_up, writes * 8);
        prop_assert_eq!(s.round_trips, reads + writes);
    }

    /// Canonical transcript encoding is injective over event sequences
    /// (different views never collide).
    #[test]
    fn transcript_encoding_injective(
        a in proptest::collection::vec(proptest::collection::vec((0u8..3, 0usize..64), 0..4), 0..4),
        b in proptest::collection::vec(proptest::collection::vec((0u8..3, 0usize..64), 0..4), 0..4),
    ) {
        let build = |spec: &Vec<Vec<(u8, usize)>>| {
            let mut t = Transcript::new();
            for batch in spec {
                t.push_batch(batch.iter().map(|&(kind, addr)| match kind {
                    0 => AccessEvent::Download(addr),
                    1 => AccessEvent::Upload(addr),
                    _ => AccessEvent::Compute(addr),
                }).collect());
            }
            t
        };
        let ta = build(&a);
        let tb = build(&b);
        prop_assert_eq!(ta == tb, ta.canonical_encoding() == tb.canonical_encoding());
    }
}
