//! The cluster wire protocol: hand-rolled length-prefixed frames over `std::net` TCP.
//!
//! Every message is one frame: a 4-byte little-endian length, one message-type byte,
//! then a `serde_json` payload (possibly empty for payloadless acks).  JSON inside a
//! binary frame sounds lossy for a bit-parity system — it is not here: the vendored
//! `serde_json` round-trips `f64` exactly (shortest `{:?}` formatting parses back to
//! the identical bits), so estimate lists, pool cardinalities and model parameters all
//! survive the wire losslessly.  The framing test suite pins this with a proptest
//! roundtrip over queries, estimate lists and snapshot shard payloads.
//!
//! The length prefix counts the type byte plus the payload, is bounded by
//! [`MAX_FRAME`] (a malformed or hostile peer cannot make a worker allocate
//! unboundedly), and is written through the vendored `bytes` [`BytesMut`]/[`BufMut`]
//! so the frame is assembled once and handed to the socket as one contiguous write.

use bytes::{BufMut, Bytes, BytesMut};
use crn_core::{Cnt2CrdConfig, CrnModel, QueriesPool};
use crn_query::ast::Query;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Upper bound on one frame's `type byte + payload` length.  Large enough for a
/// serialized pool-shard assignment at demo scale, small enough that a corrupt length
/// prefix fails fast instead of allocating gigabytes.
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

/// Coordinator → worker: stage a candidate model (not served yet).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageModel {
    /// The version the candidate will serve under if promoted.
    pub version: u64,
    /// The candidate model.
    pub model: CrnModel,
}

/// Coordinator → canary worker: mirror this probe traffic through the live model AND
/// the staged candidate, and report both probe medians.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeRequest {
    /// The probe queries.
    pub queries: Vec<Query>,
    /// Their observed true cardinalities (the q-error denominators).
    pub truths: Vec<u64>,
}

/// Canary worker → coordinator: the mirrored probe medians.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeResponse {
    /// Median q-error of the live model over the probe set (worker-local anchors).
    pub live_median: f64,
    /// Median q-error of the staged candidate over the same probe set and anchors.
    pub candidate_median: f64,
}

/// Coordinator → worker: promote the staged candidate to live under this version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapModel {
    /// The fleet version being promoted (must match the staged candidate's).
    pub version: u64,
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
    /// Ship (or re-ship) a worker's shard subset + model.
    Assign(Assignment),
    /// Assignment applied.
    AssignAck(AssignAck),
    /// Evaluate a scattered batch slice.
    Eval(EvalRequest),
    /// The evaluated slice.
    EvalResult(EvalResponse),
    /// Stage a candidate model.
    Stage(StageModel),
    /// Candidate staged.
    StageAck,
    /// Mirror probe traffic through live + staged candidate.
    Probe(ProbeRequest),
    /// The probe medians.
    ProbeResult(ProbeResponse),
    /// Promote the staged candidate.
    Swap(SwapModel),
    /// Promotion applied.
    SwapAck,
    /// Discard the staged candidate (rejected at canary).
    Discard,
    /// Staged candidate discarded.
    DiscardAck,
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
            Message::Stage(_) => 5,
            Message::StageAck => 6,
            Message::Probe(_) => 7,
            Message::ProbeResult(_) => 8,
            Message::Swap(_) => 9,
            Message::SwapAck => 10,
            Message::Discard => 11,
            Message::DiscardAck => 12,
            Message::Upsert(_) => 13,
            Message::UpsertAck => 14,
            Message::Error(_) => 15,
            Message::Shutdown => 16,
        }
    }

    /// Short kind label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Assign(_) => "assign",
            Message::AssignAck(_) => "assign_ack",
            Message::Eval(_) => "eval",
            Message::EvalResult(_) => "eval_result",
            Message::Stage(_) => "stage",
            Message::StageAck => "stage_ack",
            Message::Probe(_) => "probe",
            Message::ProbeResult(_) => "probe_result",
            Message::Swap(_) => "swap",
            Message::SwapAck => "swap_ack",
            Message::Discard => "discard",
            Message::DiscardAck => "discard_ack",
            Message::Upsert(_) => "upsert",
            Message::UpsertAck => "upsert_ack",
            Message::Error(_) => "error",
            Message::Shutdown => "shutdown",
        }
    }
}

fn payload_json(message: &Message) -> Result<String, WireError> {
    let encode =
        |r: Result<String, serde_json::Error>| r.map_err(|e| WireError::BadPayload(e.to_string()));
    match message {
        Message::Assign(m) => encode(serde_json::to_string(m)),
        Message::AssignAck(m) => encode(serde_json::to_string(m)),
        Message::Eval(m) => encode(serde_json::to_string(m)),
        Message::EvalResult(m) => encode(serde_json::to_string(m)),
        Message::Stage(m) => encode(serde_json::to_string(m)),
        Message::Probe(m) => encode(serde_json::to_string(m)),
        Message::ProbeResult(m) => encode(serde_json::to_string(m)),
        Message::Swap(m) => encode(serde_json::to_string(m)),
        Message::Upsert(m) => encode(serde_json::to_string(m)),
        Message::Error(m) => encode(serde_json::to_string(m)),
        Message::StageAck
        | Message::SwapAck
        | Message::Discard
        | Message::DiscardAck
        | Message::UpsertAck
        | Message::Shutdown => Ok(String::new()),
    }
}

/// Encodes one message into a complete frame (length prefix + type byte + payload),
/// ready for a single socket write.
pub fn encode(message: &Message) -> Result<Bytes, WireError> {
    let payload = payload_json(message)?;
    let body_len = 1 + payload.len();
    if body_len > MAX_FRAME {
        return Err(WireError::BadLength(body_len));
    }
    let mut frame = BytesMut::with_capacity(4 + body_len);
    frame.put_slice(&(body_len as u32).to_le_bytes());
    frame.put_u8(message.type_byte());
    frame.put_slice(payload.as_bytes());
    Ok(frame.freeze())
}

fn parse<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::BadPayload(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| WireError::BadPayload(e.to_string()))
}

/// Decodes one frame's body (the bytes after the length prefix) into a message.
pub fn decode_body(body: &[u8]) -> Result<Message, WireError> {
    let Some((&type_byte, payload)) = body.split_first() else {
        return Err(WireError::BadLength(0));
    };
    Ok(match type_byte {
        1 => Message::Assign(parse(payload)?),
        2 => Message::AssignAck(parse(payload)?),
        3 => Message::Eval(parse(payload)?),
        4 => Message::EvalResult(parse(payload)?),
        5 => Message::Stage(parse(payload)?),
        6 => Message::StageAck,
        7 => Message::Probe(parse(payload)?),
        8 => Message::ProbeResult(parse(payload)?),
        9 => Message::Swap(parse(payload)?),
        10 => Message::SwapAck,
        11 => Message::Discard,
        12 => Message::DiscardAck,
        13 => Message::Upsert(parse(payload)?),
        14 => Message::UpsertAck,
        15 => Message::Error(parse(payload)?),
        16 => Message::Shutdown,
        other => return Err(WireError::BadType(other)),
    })
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
