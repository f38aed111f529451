//! The cluster wire protocol: hand-rolled length-prefixed frames over `std::net` TCP.
//!
//! Every message is one frame: a 4-byte little-endian length, one message-type byte,
//! then a binary payload (empty for payloadless acks).  The payload is the message's
//! vendored serde [`Content`] tree in a tag-length encoding, one tag byte per node:
//!
//! | tag | node | then |
//! |-----|------|------|
//! | 0 / 1 / 2 | null / false / true | — |
//! | 3 / 4 | `i64` / `u64` | 8 bytes LE |
//! | 5 | `f64` | its `to_bits()`, 8 bytes LE |
//! | 6 | string | u32 LE byte count, UTF-8 bytes |
//! | 7 | seq | u32 LE item count, the items |
//! | 8 | map | u32 LE entry count, per entry a u32 LE key length, the key, the value |
//!
//! Floats travel as raw bits, so every `f64` — NaN with its payload, ±∞, −0.0,
//! subnormals — and every model parameter arrives bit-identical, which the
//! distributed bit-parity contract needs.  The framing test suite pins this with a
//! proptest roundtrip over queries, non-finite estimate lists and shard payloads.
//!
//! The decoder trusts nothing: the length prefix is bounded by [`MAX_FRAME`] before
//! the body is allocated, every count is checked against the bytes left before its
//! items are, pre-allocation and nesting depth are capped, and trailing bytes are an
//! error — a hostile frame is a [`WireError::BadPayload`], never a panic, a stack
//! overflow or an allocation sized by a count the frame cannot back.

use bytes::Bytes;
use crn_core::{Cnt2CrdConfig, CrnModel, QueriesPool};
use crn_query::ast::Query;
use serde::content::Content;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Upper bound on one frame's `type byte + payload` length.  An assignment carries the
/// whole model (its weights, one `f32` per parameter at 9 bytes per float: ≈ 1.4 MB at
/// H = 128) plus its shards; the bound leaves room for far larger models and pools while
/// a corrupt length prefix still fails fast instead of allocating gigabytes.
pub const MAX_FRAME: usize = 256 << 20;

/// Errors of the framing layer.  IO and decode errors are not distinguished beyond
/// this enum — the coordinator treats *any* wire error on a worker link as that worker
/// being lost (degrade, then reconnect with backoff).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes timeouts and mid-frame EOF).
    Io(std::io::Error),
    /// The peer announced a frame longer than [`MAX_FRAME`] (or an empty frame).
    BadLength(usize),
    /// The payload failed to parse as the announced message type.
    BadPayload(String),
    /// The message-type byte is unknown to this build.
    BadType(u8),
    /// The serving configuration cannot be served by a worker fleet (see
    /// [`ClusterClient::connect`](crate::ClusterClient::connect)).
    UnsupportedConfig(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io: {e}"),
            WireError::BadLength(len) => write!(f, "bad frame length {len} (max {MAX_FRAME})"),
            WireError::BadPayload(e) => write!(f, "bad frame payload: {e}"),
            WireError::BadType(byte) => write!(f, "unknown message type {byte}"),
            WireError::UnsupportedConfig(why) => write!(f, "unsupported cluster config: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One global pool shard shipped to (or refreshed on) its owning worker: the shard's
/// entries as a standalone [`QueriesPool`] (entry order preserved — the worker rebuilds
/// a 1-shard [`crn_core::ShardedPool`] from it, and one-shard round-trips preserve
/// entry order, which is what makes the worker's per-shard entry lists bit-identical
/// to the single-process shard scan).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPayload {
    /// Global shard index in `0..total_shards`.
    pub index: usize,
    /// The shard's version at assignment time (coordinator-side bookkeeping echo).
    pub version: u64,
    /// The shard's entries, in canonical entry order.
    pub pool: QueriesPool,
}

/// Full worker assignment: everything a (re)connected worker needs to serve its shard
/// subset bit-identically — the model, the exact serving configuration (ε, final
/// function, default estimate), and its owned shards' anchor payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assignment {
    /// This worker's index in the fleet.
    pub worker_id: usize,
    /// Total global shards across the fleet (shard `s` is owned by worker
    /// `s % workers`).
    pub total_shards: usize,
    /// The fleet model version this assignment ships.
    pub model_version: u64,
    /// The serving configuration (must match the coordinator's own fold).
    pub config: Cnt2CrdConfig,
    /// The containment model.
    pub model: CrnModel,
    /// The owned shards' anchors.
    pub shards: Vec<ShardPayload>,
}

/// Worker → coordinator acknowledgement of an [`Assignment`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssignAck {
    /// Echoed worker index.
    pub worker_id: usize,
    /// Shards the worker now serves.
    pub shards: usize,
    /// The worker's model version after applying the assignment.
    pub model_version: u64,
}

/// Coordinator → worker: evaluate a scattered batch slice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRequest {
    /// The fleet model version this batch MUST be served under.  A worker whose
    /// version differs answers [`ErrorReply`] instead of silently blending model
    /// generations into one batch.
    pub model_version: u64,
    /// The queries scattered to this worker (those whose FROM-clause group matches at
    /// least one of its owned shards).
    pub queries: Vec<Query>,
}

/// One owned shard's per-query entry-estimate lists (the worker-side half of layer 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardLists {
    /// Global shard index the lists came from.
    pub index: usize,
    /// One ε-filtered entry-estimate list per scattered query, in request order.
    pub lists: Vec<Vec<f64>>,
}

/// Worker → coordinator: the evaluated batch slice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResponse {
    /// The model version the lists were computed under (echo of the request's).
    pub model_version: u64,
    /// Per owned shard, ascending by global shard index.
    pub shards: Vec<ShardLists>,
}

/// Coordinator → worker: apply one feedback upsert to the owning shard's anchors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpsertRequest {
    /// Global shard index the query routes to (`query_hash % total_shards`).
    pub shard: usize,
    /// The executed query.
    pub query: Query,
    /// Its observed true cardinality.
    pub cardinality: u64,
}

/// Worker → coordinator: a request could not be served (version mismatch, unknown
/// shard, pre-assignment eval).  The coordinator treats it like a lost worker for the
/// affected batch, then re-ships state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable reason (journaled, never parsed).
    pub reason: String,
}

/// Every message of the protocol.  The type byte on the wire is the discriminant
/// below; payloadless variants ship an empty payload.
#[derive(Debug, Clone)]
pub enum Message {
    /// Ship (or re-ship) a worker's shard subset + model (boxed: it dwarfs every other
    /// variant).
    Assign(Box<Assignment>),
    /// Assignment applied.
    AssignAck(AssignAck),
    /// Evaluate a scattered batch slice.
    Eval(EvalRequest),
    /// The evaluated slice.
    EvalResult(EvalResponse),
    /// Apply a feedback upsert.
    Upsert(UpsertRequest),
    /// Upsert applied.
    UpsertAck,
    /// The request could not be served.
    Error(ErrorReply),
    /// Drain and exit the worker process.
    Shutdown,
}

impl Message {
    /// The on-wire type byte.
    fn type_byte(&self) -> u8 {
        match self {
            Message::Assign(_) => 1,
            Message::AssignAck(_) => 2,
            Message::Eval(_) => 3,
            Message::EvalResult(_) => 4,
            Message::Upsert(_) => 5,
            Message::UpsertAck => 6,
            Message::Error(_) => 7,
            Message::Shutdown => 8,
        }
    }

    /// Short kind label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Assign(_) => "assign",
            Message::AssignAck(_) => "assign_ack",
            Message::Eval(_) => "eval",
            Message::EvalResult(_) => "eval_result",
            Message::Upsert(_) => "upsert",
            Message::UpsertAck => "upsert_ack",
            Message::Error(_) => "error",
            Message::Shutdown => "shutdown",
        }
    }

    /// The payload's content tree, or `None` for a payloadless message.
    fn payload(&self) -> Option<Content> {
        Some(match self {
            Message::Assign(m) => m.to_content(),
            Message::AssignAck(m) => m.to_content(),
            Message::Eval(m) => m.to_content(),
            Message::EvalResult(m) => m.to_content(),
            Message::Upsert(m) => m.to_content(),
            Message::Error(m) => m.to_content(),
            Message::UpsertAck | Message::Shutdown => return None,
        })
    }
}

// The payload's node tags, one per `Content` variant (booleans fold their value in).
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Deepest seq/map nesting a payload may have.  Every message nests well under 16.
const MAX_DEPTH: usize = 64;
/// Most elements a seq or map pre-allocates before its items are read.
const MAX_PREALLOC: usize = 1 << 16;

/// Appends a count.  A count past `u32::MAX` truncates, but its frame is then past
/// [`MAX_FRAME`] too, which `encode` rejects.
fn put_count(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_content(out: &mut Vec<u8>, content: &Content) {
    match content {
        Content::Null => out.push(TAG_NULL),
        Content::Bool(false) => out.push(TAG_FALSE),
        Content::Bool(true) => out.push(TAG_TRUE),
        Content::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::UInt(v) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::Float(v) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Content::Seq(items) => {
            out.push(TAG_SEQ);
            put_count(out, items.len());
            for item in items {
                put_content(out, item);
            }
        }
        Content::Map(entries) => {
            out.push(TAG_MAP);
            put_count(out, entries.len());
            for (key, value) in entries {
                put_str(out, key);
                put_content(out, value);
            }
        }
    }
}

/// Encodes one message into a complete frame (length prefix + type byte + payload),
/// ready for a single socket write.  The payload is written straight into the frame
/// and the length prefix is patched in afterwards.
pub fn encode(message: &Message) -> Result<Bytes, WireError> {
    let mut frame = vec![0u8; 4];
    frame.push(message.type_byte());
    if let Some(payload) = message.payload() {
        put_content(&mut frame, &payload);
    }
    let body_len = frame.len() - 4;
    if body_len > MAX_FRAME {
        return Err(WireError::BadLength(body_len));
    }
    frame[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(Bytes::from(frame))
}

fn bad(reason: impl Into<String>) -> WireError {
    WireError::BadPayload(reason.into())
}

/// The depth of a seq's or map's items, or an error past [`MAX_DEPTH`].
fn nested(depth: usize) -> Result<usize, WireError> {
    if depth == MAX_DEPTH {
        return Err(bad(format!("nesting deeper than {MAX_DEPTH}")));
    }
    Ok(depth + 1)
}

/// The payload decoder: a cursor over the unread bytes.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if len > self.rest.len() {
            return Err(bad(format!(
                "{len} bytes announced, {} left",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn word(&mut self) -> Result<[u8; 8], WireError> {
        Ok(self.take(8)?.try_into().expect("8 bytes"))
    }

    /// Reads a count of items that take at least `min_item` bytes each, and rejects it
    /// unless that many items fit in the unread bytes.
    fn count(&mut self, min_item: usize) -> Result<usize, WireError> {
        let count = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        if count.saturating_mul(min_item) > self.rest.len() {
            return Err(bad(format!(
                "count {count} overruns the {} bytes left",
                self.rest.len()
            )));
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| bad(e.to_string()))
    }

    fn content(&mut self, depth: usize) -> Result<Content, WireError> {
        Ok(match self.u8()? {
            TAG_NULL => Content::Null,
            TAG_FALSE => Content::Bool(false),
            TAG_TRUE => Content::Bool(true),
            TAG_INT => Content::Int(i64::from_le_bytes(self.word()?)),
            TAG_UINT => Content::UInt(u64::from_le_bytes(self.word()?)),
            TAG_FLOAT => Content::Float(f64::from_bits(u64::from_le_bytes(self.word()?))),
            TAG_STR => Content::Str(self.string()?),
            TAG_SEQ => {
                let depth = nested(depth)?;
                // An item is at least its tag byte.
                let count = self.count(1)?;
                let mut items = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    items.push(self.content(depth)?);
                }
                Content::Seq(items)
            }
            TAG_MAP => {
                let depth = nested(depth)?;
                // An entry is at least its key's count and its value's tag.
                let count = self.count(5)?;
                let mut entries = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    let key = self.string()?;
                    entries.push((key, self.content(depth)?));
                }
                Content::Map(entries)
            }
            tag => return Err(bad(format!("unknown node tag {tag}"))),
        })
    }
}

fn parse<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let mut reader = Reader { rest: payload };
    let content = reader.content(0)?;
    if !reader.rest.is_empty() {
        return Err(bad(format!(
            "{} trailing bytes after the payload",
            reader.rest.len()
        )));
    }
    T::from_content(&content).map_err(|e| bad(e.to_string()))
}

/// Decodes one frame's body (the bytes after the length prefix) into a message.
pub fn decode_body(body: &[u8]) -> Result<Message, WireError> {
    let Some((&type_byte, payload)) = body.split_first() else {
        return Err(WireError::BadLength(0));
    };
    let payloadless = |message: Message| match payload {
        [] => Ok(message),
        _ => Err(bad("payload bytes on a payloadless frame")),
    };
    match type_byte {
        1 => Ok(Message::Assign(Box::new(parse(payload)?))),
        2 => Ok(Message::AssignAck(parse(payload)?)),
        3 => Ok(Message::Eval(parse(payload)?)),
        4 => Ok(Message::EvalResult(parse(payload)?)),
        5 => Ok(Message::Upsert(parse(payload)?)),
        6 => payloadless(Message::UpsertAck),
        7 => Ok(Message::Error(parse(payload)?)),
        8 => payloadless(Message::Shutdown),
        other => Err(WireError::BadType(other)),
    }
}

/// Writes one message as a single frame.
pub fn write_message<W: Write>(writer: &mut W, message: &Message) -> Result<(), WireError> {
    let frame = encode(message)?;
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads exactly one frame and decodes it.  A length outside `1..=MAX_FRAME` is
/// rejected *before* any payload allocation; a connection that dies mid-frame surfaces
/// as [`WireError::Io`] (the coordinator's lost-worker path).
pub fn read_message<R: Read>(reader: &mut R) -> Result<Message, WireError> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if body_len == 0 || body_len > MAX_FRAME {
        return Err(WireError::BadLength(body_len));
    }
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body)?;
    decode_body(&body)
}

/// In-memory encode → decode roundtrip (the proptest surface: no sockets involved).
pub fn roundtrip(message: &Message) -> Result<Message, WireError> {
    let frame = encode(message)?;
    let mut cursor = std::io::Cursor::new(frame.as_ref().to_vec());
    read_message(&mut cursor)
}
