//! The wire codec's contracts: lossless encode/decode roundtrips (a proptest over
//! queries, estimate lists and snapshot shard payloads — every `f64`, NaN and ±∞
//! included, must survive bit-exactly), zero-length batches, oversized-frame
//! rejection, mid-frame EOF surfacing as an IO error (the coordinator's lost-worker
//! signal), a frame-size tripwire for the model, a type byte for each of the eight
//! message kinds and no other, and a decoder that turns hostile bytes into errors
//! without panicking, overflowing its stack or allocating for a count the frame cannot
//! hold.

mod common;

use common::fixture;
use crn_cluster::wire::{
    decode_body, encode, read_message, roundtrip, AssignAck, Assignment, ErrorReply, EvalRequest,
    EvalResponse, Message, ShardLists, ShardPayload, UpsertRequest, WireError, MAX_FRAME,
};
use crn_core::{Cnt2CrdConfig, CrnModel, QueriesPool, ShardedPool};
use crn_db::Database;
use crn_query::Query;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// The largest single allocation this thread made since the last reset.
    static LARGEST_ALLOCATION: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest allocation so a test can show
/// that a hostile count is rejected before anything is allocated for it.
struct LargestAllocation;

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ =
            LARGEST_ALLOCATION.try_with(|largest| largest.set(largest.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns its result with the largest single allocation it made.
fn largest_allocation_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOCATION.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST_ALLOCATION.with(Cell::get))
}

/// The proptest cases share one fixture (building a database + trained model per case
/// would dominate the suite's runtime).
fn shared() -> &'static (Database, QueriesPool, CrnModel, Vec<Query>) {
    static SHARED: OnceLock<(Database, QueriesPool, CrnModel, Vec<Query>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let fx = fixture(31);
        let queries = common::workload(&fx.db, 63, 32);
        (fx.db, fx.pool, fx.model, queries)
    })
}

/// Deterministic xorshift64* stream — the proptest seed fans out into query subsets
/// and adversarially-shaped `f64`s without `Math.random`-style ambient state.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E3779B97F4A7C15);
        self.0 = x;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    /// Any `f64`, with an adversarial spread: NaNs with random sign and payload, ±∞,
    /// ±0.0, subnormals, and arbitrary bit patterns (huge magnitudes, long mantissas)
    /// — everything the wire must carry bit-exactly.
    fn any_f64(&mut self) -> f64 {
        let sign = self.next() & (1 << 63);
        let mantissa = self.next() & ((1 << 52) - 1);
        let bits = match self.next() % 6 {
            0 => sign | f64::INFINITY.to_bits() | mantissa.max(1),
            1 => sign | f64::INFINITY.to_bits(),
            2 => sign,
            3 => sign | mantissa,
            _ => self.next(),
        };
        f64::from_bits(bits)
    }

    /// `len` arbitrary bytes.
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// An `Assign` frame's body for the shared fixture, its pool spread over `shards`.
fn assign_body(shards: usize) -> Vec<u8> {
    let (_, pool, model, _) = shared();
    let snapshot = ShardedPool::from_pool(pool, shards).snapshot();
    let message = Message::Assign(Box::new(Assignment {
        worker_id: 0,
        total_shards: shards,
        model_version: 1,
        config: Cnt2CrdConfig::default(),
        model: model.clone(),
        shards: (0..shards)
            .map(|shard| ShardPayload {
                index: shard,
                version: snapshot.shard_version(shard),
                pool: snapshot.shard_pool(shard),
            })
            .collect(),
    }));
    encode(&message).expect("encode assignment")[4..].to_vec()
}

/// The bodies of one valid frame of each large kind: `Assign`, `Eval`, `EvalResult`.
fn valid_bodies() -> &'static [Vec<u8>] {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let (_, _, _, queries) = shared();
        let mut rng = Rng(5);
        let eval = Message::Eval(EvalRequest {
            model_version: 3,
            queries: queries[..6].to_vec(),
        });
        let result = Message::EvalResult(EvalResponse {
            model_version: 3,
            shards: (0..2)
                .map(|index| ShardLists {
                    index,
                    lists: (0..6)
                        .map(|len| (0..len).map(|_| rng.any_f64()).collect())
                        .collect(),
                })
                .collect(),
        });
        let mut bodies = vec![assign_body(2)];
        for message in [eval, result] {
            bodies.push(encode(&message).expect("encode")[4..].to_vec());
        }
        bodies
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn eval_messages_roundtrip_losslessly(seed in 0u64..512) {
        let (_, _, _, queries) = shared();
        let mut rng = Rng(seed);
        let picked: Vec<Query> = (0..(rng.next() as usize % 8))
            .map(|_| queries[rng.next() as usize % queries.len()].clone())
            .collect();

        let request = Message::Eval(EvalRequest {
            model_version: rng.next(),
            queries: picked.clone(),
        });
        let Message::Eval(back) = roundtrip(&request).expect("eval roundtrip") else {
            panic!("wrong message kind back");
        };
        prop_assert_eq!(&back.queries, &picked);

        let lists: Vec<Vec<f64>> = (0..picked.len().max(1))
            .map(|_| (0..(rng.next() as usize % 6)).map(|_| rng.any_f64()).collect())
            .collect();
        let response = Message::EvalResult(EvalResponse {
            model_version: rng.next(),
            shards: vec![ShardLists { index: rng.next() as usize % 16, lists: lists.clone() }],
        });
        let Message::EvalResult(back) = roundtrip(&response).expect("result roundtrip") else {
            panic!("wrong message kind back");
        };
        prop_assert_eq!(back.shards.len(), 1);
        for (sent, received) in lists.iter().zip(&back.shards[0].lists) {
            prop_assert_eq!(sent.len(), received.len());
            for (a, b) in sent.iter().zip(received) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Arbitrary bytes, every kind of truncation and single-byte flips of valid frames:
    /// `decode_body` answers each with a message or an error, never a panic.  A strict
    /// prefix of a valid payload is never itself valid, and neither is a payload with a
    /// byte appended.
    #[test]
    fn hostile_bodies_decode_to_errors_without_panicking(seed in 0u64..256) {
        let mut rng = Rng(seed);
        let len = rng.next() as usize % 64;
        let mut noise = rng.bytes(len);
        let _ = decode_body(&noise);
        if let Some(type_byte) = noise.first_mut() {
            // The same noise behind every known type byte.
            *type_byte = 1 + (rng.next() % 16) as u8;
            let _ = decode_body(&noise);
        }

        for body in valid_bodies() {
            let cut = 1 + rng.next() as usize % (body.len() - 1);
            prop_assert!(decode_body(&body[..cut]).is_err(), "prefix {} of {} decoded", cut, body.len());
            let mut extended = body.clone();
            extended.push(rng.next() as u8);
            prop_assert!(decode_body(&extended).is_err(), "a trailing byte decoded");

            let mut flipped = body.clone();
            let at = rng.next() as usize % flipped.len();
            flipped[at] ^= 1 << (rng.next() % 8);
            let _ = decode_body(&flipped);
            flipped[at] = rng.next() as u8;
            let _ = decode_body(&flipped);
        }
    }

    #[test]
    fn shard_payload_assignments_roundtrip_losslessly(seed in 0u64..64) {
        let (_, pool, model, _) = shared();
        let shards = 1 + (seed as usize % 4) * 2;
        let sharded = ShardedPool::from_pool(pool, shards);
        let snapshot = sharded.snapshot();
        let assignment = Message::Assign(Box::new(Assignment {
            worker_id: seed as usize % 4,
            total_shards: shards,
            model_version: seed,
            config: Cnt2CrdConfig::default(),
            model: model.clone(),
            shards: (0..shards)
                .map(|shard| ShardPayload {
                    index: shard,
                    version: snapshot.shard_version(shard),
                    pool: snapshot.shard_pool(shard),
                })
                .collect(),
        }));
        let Message::Assign(back) = roundtrip(&assignment).expect("assign roundtrip") else {
            panic!("wrong message kind back");
        };
        prop_assert_eq!(back.total_shards, shards);
        let mut entries = 0usize;
        for (shard, payload) in back.shards.iter().enumerate() {
            let original = snapshot.shard_pool(shard);
            prop_assert_eq!(payload.pool.len(), original.len());
            for (a, b) in payload.pool.entries().iter().zip(original.entries()) {
                prop_assert_eq!(&a.query, &b.query);
                prop_assert_eq!(a.cardinality, b.cardinality);
            }
            entries += payload.pool.len();
        }
        prop_assert_eq!(entries, pool.len());
    }
}

#[test]
fn zero_length_batches_and_payloadless_frames_roundtrip() {
    let empty = Message::Eval(EvalRequest {
        model_version: 1,
        queries: Vec::new(),
    });
    let Message::Eval(back) = roundtrip(&empty).expect("empty eval") else {
        panic!("wrong kind");
    };
    assert!(back.queries.is_empty());

    for message in [Message::UpsertAck, Message::Shutdown] {
        let kind = message.kind();
        let back = roundtrip(&message).expect("payloadless roundtrip");
        assert_eq!(back.kind(), kind);
    }
    // A payloadless frame carrying bytes anyway is malformed, like any trailing bytes.
    let mut upsert_ack = encode(&Message::UpsertAck).expect("encode")[4..].to_vec();
    upsert_ack.push(0);
    assert!(matches!(
        decode_body(&upsert_ack),
        Err(WireError::BadPayload(_))
    ));
}

/// The protocol has eight message kinds on type bytes 1..=8, one kind each; every other
/// byte is an unknown type, whatever payload follows it.
#[test]
fn every_type_byte_is_one_message_kind_or_bad_type() {
    let (_, _, _, queries) = shared();
    let messages = [
        Message::AssignAck(AssignAck {
            worker_id: 0,
            shards: 1,
            model_version: 1,
        }),
        Message::Eval(EvalRequest {
            model_version: 1,
            queries: queries[..2].to_vec(),
        }),
        Message::EvalResult(EvalResponse {
            model_version: 1,
            shards: Vec::new(),
        }),
        Message::Upsert(UpsertRequest {
            shard: 0,
            query: queries[0].clone(),
            cardinality: 7,
        }),
        Message::UpsertAck,
        Message::Error(ErrorReply {
            reason: "no".to_string(),
        }),
        Message::Shutdown,
    ];
    let mut bodies = vec![assign_body(1)];
    bodies.extend(
        messages
            .iter()
            .map(|m| encode(m).expect("encode")[4..].to_vec()),
    );
    let kinds = [
        "assign",
        "assign_ack",
        "eval",
        "eval_result",
        "upsert",
        "upsert_ack",
        "error",
        "shutdown",
    ];
    for (body, (type_byte, kind)) in bodies.iter().zip((1u8..).zip(kinds)) {
        assert_eq!(
            body[0], type_byte,
            "{kind} travels on type byte {type_byte}"
        );
        let decoded = decode_body(body).unwrap_or_else(|e| panic!("byte {type_byte}: {e}"));
        assert_eq!(decoded.kind(), kind, "type byte {type_byte}");
    }
    for type_byte in std::iter::once(0u8).chain(9..=255) {
        for body in [
            vec![type_byte],
            [&[type_byte][..], &bodies[2][1..]].concat(),
        ] {
            assert!(
                matches!(decode_body(&body), Err(WireError::BadType(b)) if b == type_byte),
                "type byte {type_byte} must be unknown"
            );
        }
    }
}

#[test]
fn oversized_and_empty_frames_are_rejected_before_allocation() {
    // Length announcing more than MAX_FRAME: rejected from the 4 length bytes alone.
    let mut oversized = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[3u8; 16]);
    let mut cursor = std::io::Cursor::new(oversized);
    match read_message(&mut cursor) {
        Err(WireError::BadLength(len)) => assert_eq!(len, MAX_FRAME + 1),
        other => panic!("oversized frame accepted: {other:?}"),
    }

    // Zero-length frame (no type byte): equally rejected.
    let mut cursor = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
    assert!(matches!(
        read_message(&mut cursor),
        Err(WireError::BadLength(0))
    ));

    // An unknown type byte is a decode error, not a hang or a panic.
    assert!(matches!(
        decode_body(&[200u8]),
        Err(WireError::BadType(200))
    ));
}

#[test]
fn mid_frame_eof_surfaces_as_io_error() {
    // A frame that announces 100 bytes but delivers 10 — the shape of a connection
    // dying mid-frame.  Must resolve to an IO error (the lost-worker signal), never
    // block or mis-decode.
    let mut truncated = 100u32.to_le_bytes().to_vec();
    truncated.extend_from_slice(&[1u8; 10]);
    let mut cursor = std::io::Cursor::new(truncated);
    assert!(matches!(read_message(&mut cursor), Err(WireError::Io(_))));

    // Sanity: a well-formed frame straight from `encode` still parses.
    let frame = encode(&Message::Shutdown).expect("encode");
    let mut cursor = std::io::Cursor::new(frame.as_ref().to_vec());
    assert!(matches!(read_message(&mut cursor), Ok(Message::Shutdown)));
}

#[test]
fn non_finite_estimates_cross_the_wire_bit_exactly() {
    let quiet_nan_with_payload = f64::from_bits(0x7FF8_0000_0000_BEEF);
    let signalling_negative_nan = f64::from_bits(0xFFF0_0000_0000_0001);
    let sent = vec![
        vec![1.0, f64::NAN, f64::INFINITY, -0.0],
        vec![
            f64::NEG_INFINITY,
            quiet_nan_with_payload,
            signalling_negative_nan,
        ],
        Vec::new(),
    ];
    let message = Message::EvalResult(EvalResponse {
        model_version: 9,
        shards: vec![ShardLists {
            index: 3,
            lists: sent.clone(),
        }],
    });
    let Message::EvalResult(back) = roundtrip(&message).expect("non-finite lists decode") else {
        panic!("wrong message kind back");
    };
    assert_eq!(back.model_version, 9);
    assert_eq!(back.shards[0].index, 3);
    let bits = |lists: &[Vec<f64>]| -> Vec<Vec<u64>> {
        lists
            .iter()
            .map(|list| list.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&back.shards[0].lists), bits(&sent));
}

/// Without a depth bound, a recursive decoder overflows its stack on a deep enough
/// payload and aborts the whole process — the worker's, and with `spawn_worker` the
/// coordinator's too.  A million nested one-item seqs (5 MB, inside `MAX_FRAME`)
/// must come back as a plain decode error.
#[test]
fn a_million_nested_seqs_is_a_bad_payload_not_a_stack_overflow() {
    const TAG_SEQ: u8 = 7;
    let mut body = vec![3u8];
    for _ in 0..1_000_000 {
        body.push(TAG_SEQ);
        body.extend_from_slice(&1u32.to_le_bytes());
    }
    assert!(body.len() <= MAX_FRAME);
    // Run on a thread with a small stack, so an unbounded recursion cannot hide
    // behind a generous main-thread stack.
    let outcome = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || decode_body(&body))
        .expect("spawn decoder thread")
        .join()
        .expect("decoder thread did not panic");
    assert!(
        matches!(outcome, Err(WireError::BadPayload(_))),
        "deep nesting accepted: {outcome:?}"
    );
}

/// A count of `u32::MAX` items or bytes with a handful of bytes behind it is refused
/// from the count alone: the decoder allocates nothing sized by it.
#[test]
fn a_count_past_the_frame_is_refused_before_allocating() {
    const TAG_STR: u8 = 6;
    const TAG_SEQ: u8 = 7;
    const TAG_MAP: u8 = 8;
    for tag in [TAG_STR, TAG_SEQ, TAG_MAP] {
        let mut body = vec![4u8, tag];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0u8; 16]);
        let (outcome, largest) = largest_allocation_of(|| decode_body(&body));
        assert!(
            matches!(outcome, Err(WireError::BadPayload(_))),
            "tag {tag}: huge count accepted: {outcome:?}"
        );
        assert!(
            largest < 1024,
            "tag {tag}: decoding allocated {largest} bytes for a count the frame cannot hold"
        );
    }
}

/// Deterministic size tripwire: a model float costs 9 bytes on the wire (its tag and
/// its bits), and each parameter is one float — its weight; no optimizer state travels.
/// Any float that regresses to a text encoding, or any per-parameter state that creeps
/// back into the model, blows the bound without a wall clock in sight: the fixture's
/// assignment is ≈ 87 KB against a ≈ 130 KB bound.
#[test]
fn assignment_frame_costs_nine_bytes_per_model_float() {
    let (_, pool, model, _) = shared();
    // The featurizer, the config and the field names, then each anchor's query.
    let allowance = (8 << 10) + (1 << 10) * pool.len();
    let floats = model.num_params();
    for shards in [1, 4] {
        let body = assign_body(shards);
        assert!(
            body.len() <= 9 * floats + allowance,
            "{shards} shard(s): an assignment of {} bytes for {floats} model floats and {} anchors",
            body.len(),
            pool.len()
        );
    }
}
