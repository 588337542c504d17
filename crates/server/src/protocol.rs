//! The wire protocol: length-prefixed binary frames over any
//! byte stream (`std::net::TcpStream` in practice).
//!
//! ## Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts the payload only and must be ≤ [`MAX_FRAME`]; a peer
//! sending a larger length is malformed and the connection is dropped.
//! All integers are little-endian.
//!
//! ## Request payloads
//!
//! ```text
//! LOOKUP          (0x01): key u64
//! INSERT          (0x02): key u64, sat_len u32, sat_len × word u64
//! DELETE          (0x03): key u64
//! PING            (0x04): (empty)
//! SHARD_OP        (0x05): shard u32, epoch u64, then one of
//!                         LOOKUP/INSERT/DELETE encodings above
//! STATUS          (0x06): (empty)
//! EPOCH_SET       (0x07): epoch u64
//! MIGRATE_EXPORT  (0x08): shard u32, chunk u32
//! MIGRATE_INSTALL (0x09): shard u32, total u32, chunk u32,
//!                         byte_len u32, byte_len × u8
//! ```
//!
//! The cluster opcodes (`SHARD_OP` and up) address a *global* shard on a
//! multi-tenant node and carry the sender's cluster-map epoch; a
//! single-engine [`TcpServer`](crate::TcpServer) answers them with
//! [`ServeError::Protocol`]. Shard images larger than [`MAX_FRAME`]
//! migrate as numbered chunks: the receiver pulls `MIGRATE_EXPORT`
//! chunk-by-chunk (the source snapshots on chunk 0 and serves the rest
//! from that staging image) and pushes `MIGRATE_INSTALL` chunks, with
//! the install taking effect when the last chunk lands.
//!
//! ## Response payloads
//!
//! ```text
//! FOUND        (0x01): sat_len u32, sat_len × word u64
//! MISS         (0x02): (empty)
//! INSERT_OK    (0x03): (empty)
//! DELETE_FOUND (0x04): (empty)
//! DELETE_MISS  (0x05): (empty)
//! PONG         (0x06): (empty)
//! NODE_STATUS  (0x07): epoch u64, n u32, n × shard u32
//! EPOCH_OK     (0x08): (empty)
//! EXPORT_CHUNK (0x09): total u32, chunk u32, byte_len u32, byte_len × u8
//! INSTALL_OK   (0x0A): installed u8 (1 once the last chunk landed)
//! ERROR        (0xFF): code u8, code-specific payload (see
//!                      [`ServeError`] encoding below)
//! ```
//!
//! Error codes: `OVERLOADED=1` (shard u32, depth u32), `TIMED_OUT=2`,
//! `SHUTTING_DOWN=3`, `DISCONNECTED=4`, `DICT=5` (tag u8 + payload),
//! `PROTOCOL=6` (string), `WRONG_SHARD=7` (shard u32), `STALE_EPOCH=8`
//! (request u64, node u64). Dictionary tags mirror
//! [`pdm_dict::DictError`]; strings are `len u32` + UTF-8 bytes, and
//! I/O faults carry their stable [`pdm::IoFaultKind::label`].

use crate::scheduler::{Op, Reply};
use crate::ServeError;
use pdm::{IoFaultKind, Word};
use pdm_dict::DictError;
use std::io::{self, Read, Write};

/// Hard cap on a frame payload (1 MiB) — far above any legitimate
/// message (the widest satellite payload is a few KiB) and small enough
/// that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Request opcodes.
pub mod opcode {
    /// Look up a key.
    pub const LOOKUP: u8 = 0x01;
    /// Insert a key with satellite words.
    pub const INSERT: u8 = 0x02;
    /// Delete a key.
    pub const DELETE: u8 = 0x03;
    /// Liveness probe.
    pub const PING: u8 = 0x04;
    /// A shard-addressed operation on a multi-tenant cluster node.
    pub const SHARD_OP: u8 = 0x05;
    /// Ask a node for its epoch and hosted shards.
    pub const STATUS: u8 = 0x06;
    /// Raise a node's cluster-map epoch.
    pub const EPOCH_SET: u8 = 0x07;
    /// Pull one chunk of a shard's frozen image.
    pub const MIGRATE_EXPORT: u8 = 0x08;
    /// Push one chunk of a shard image to install.
    pub const MIGRATE_INSTALL: u8 = 0x09;
}

/// Response status bytes.
pub mod status {
    /// Lookup hit; satellite words follow.
    pub const FOUND: u8 = 0x01;
    /// Lookup miss.
    pub const MISS: u8 = 0x02;
    /// Insert acknowledged durable.
    pub const INSERT_OK: u8 = 0x03;
    /// Delete applied; the key had been present.
    pub const DELETE_FOUND: u8 = 0x04;
    /// Delete applied; the key was absent.
    pub const DELETE_MISS: u8 = 0x05;
    /// Reply to [`super::opcode::PING`].
    pub const PONG: u8 = 0x06;
    /// Reply to [`super::opcode::STATUS`]: epoch + hosted shards.
    pub const NODE_STATUS: u8 = 0x07;
    /// Reply to [`super::opcode::EPOCH_SET`].
    pub const EPOCH_OK: u8 = 0x08;
    /// Reply to [`super::opcode::MIGRATE_EXPORT`]: one image chunk.
    pub const EXPORT_CHUNK: u8 = 0x09;
    /// Reply to [`super::opcode::MIGRATE_INSTALL`].
    pub const INSTALL_OK: u8 = 0x0A;
    /// A [`super::ServeError`] follows.
    pub const ERROR: u8 = 0xFF;
}

mod errcode {
    pub const OVERLOADED: u8 = 1;
    pub const TIMED_OUT: u8 = 2;
    pub const SHUTTING_DOWN: u8 = 3;
    pub const DISCONNECTED: u8 = 4;
    pub const DICT: u8 = 5;
    pub const PROTOCOL: u8 = 6;
    pub const WRONG_SHARD: u8 = 7;
    pub const STALE_EPOCH: u8 = 8;
}

mod dicttag {
    pub const CAPACITY: u8 = 1;
    pub const DUPLICATE: u8 = 2;
    pub const BUCKET_OVERFLOW: u8 = 3;
    pub const LEVELS: u8 = 4;
    pub const EXPANSION: u8 = 5;
    pub const UNSUPPORTED: u8 = 6;
    pub const SAT_WIDTH: u8 = 7;
    pub const IO: u8 = 8;
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// A dictionary operation.
    Op(Op),
    /// A liveness probe.
    Ping,
    /// A dictionary operation addressed to a global shard on a
    /// multi-tenant cluster node, carrying the sender's map epoch.
    ShardOp {
        /// Global shard index.
        shard: u32,
        /// The cluster-map epoch the sender routed under.
        epoch: u64,
        /// The operation itself.
        op: Op,
    },
    /// Ask the node for its epoch and hosted shards.
    Status,
    /// Raise the node's cluster-map epoch (idempotent; never lowers).
    EpochSet {
        /// The epoch to raise to.
        epoch: u64,
    },
    /// Pull chunk `chunk` of `shard`'s frozen image. Chunk 0 freezes
    /// the snapshot; later chunks read from the same staging image.
    MigrateExport {
        /// Global shard index.
        shard: u32,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Push chunk `chunk` of `total` of a shard image; the install
    /// takes effect when the last chunk lands.
    MigrateInstall {
        /// Global shard index.
        shard: u32,
        /// Total number of chunks in this image.
        total: u32,
        /// Zero-based chunk index.
        chunk: u32,
        /// This chunk's bytes.
        bytes: Vec<u8>,
    },
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// The operation succeeded.
    Reply(Reply),
    /// Answer to [`WireRequest::Ping`].
    Pong,
    /// Answer to [`WireRequest::Status`].
    NodeStatus {
        /// The node's cluster-map epoch.
        epoch: u64,
        /// Global shard indices the node currently hosts.
        shards: Vec<u32>,
    },
    /// Answer to [`WireRequest::EpochSet`].
    EpochOk,
    /// Answer to [`WireRequest::MigrateExport`]: one image chunk.
    ExportChunk {
        /// Total number of chunks in the frozen image.
        total: u32,
        /// The chunk index this answers.
        chunk: u32,
        /// The chunk's bytes.
        bytes: Vec<u8>,
    },
    /// Answer to [`WireRequest::MigrateInstall`].
    InstallOk {
        /// True once the final chunk landed and the shard is live.
        installed: bool,
    },
    /// The operation failed.
    Err(ServeError),
}

// ---------------------------------------------------------------- framing

/// Write one frame (length prefix + payload).
///
/// # Errors
/// Propagates stream write failures; refuses payloads over [`MAX_FRAME`]
/// with [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on clean EOF **before** the length
/// prefix (the peer closed between messages); EOF mid-frame is an error.
///
/// # Errors
/// Propagates stream read failures; rejects length prefixes over
/// [`MAX_FRAME`] with [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a clean close is distinguishable from a
    // truncated frame.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ------------------------------------------------------------- primitives

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(ServeError::Protocol(format!(
                "truncated frame: wanted {n} bytes at offset {}",
                self.at
            )));
        };
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn words(&mut self) -> Result<Vec<Word>, ServeError> {
        let n = self.u32()? as usize;
        // The frame cap already bounds n, but check against the
        // remaining bytes so a lying count fails cleanly.
        if n > (self.buf.len() - self.at) / 8 {
            return Err(ServeError::Protocol(format!(
                "satellite count {n} exceeds frame remainder"
            )));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ServeError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ServeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Protocol("non-utf8 string in frame".into()))
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes in frame",
                self.buf.len() - self.at
            )))
        }
    }
}

fn put_words(out: &mut Vec<u8>, words: &[Word]) {
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Lookup(key) => {
            out.push(opcode::LOOKUP);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Op::Insert(key, sat) => {
            out.push(opcode::INSERT);
            out.extend_from_slice(&key.to_le_bytes());
            put_words(out, sat);
        }
        Op::Delete(key) => {
            out.push(opcode::DELETE);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
}

fn take_op(c: &mut Cursor<'_>) -> Result<Op, ServeError> {
    Ok(match c.u8()? {
        opcode::LOOKUP => Op::Lookup(c.u64()?),
        opcode::INSERT => {
            let key = c.u64()?;
            let sat = c.words()?;
            Op::Insert(key, sat)
        }
        opcode::DELETE => Op::Delete(c.u64()?),
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown inner opcode {other:#04x}"
            )))
        }
    })
}

// --------------------------------------------------------------- requests

/// Encode a request payload.
#[must_use]
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        WireRequest::Op(op) => put_op(&mut out, op),
        WireRequest::Ping => out.push(opcode::PING),
        WireRequest::ShardOp { shard, epoch, op } => {
            out.push(opcode::SHARD_OP);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            put_op(&mut out, op);
        }
        WireRequest::Status => out.push(opcode::STATUS),
        WireRequest::EpochSet { epoch } => {
            out.push(opcode::EPOCH_SET);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        WireRequest::MigrateExport { shard, chunk } => {
            out.push(opcode::MIGRATE_EXPORT);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
        }
        WireRequest::MigrateInstall {
            shard,
            total,
            chunk,
            bytes,
        } => {
            out.push(opcode::MIGRATE_INSTALL);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&total.to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
            put_bytes(&mut out, bytes);
        }
    }
    out
}

/// Decode a request payload.
///
/// # Errors
/// [`ServeError::Protocol`] on unknown opcodes, truncation, or trailing
/// bytes.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, ServeError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        opcode::LOOKUP => WireRequest::Op(Op::Lookup(c.u64()?)),
        opcode::INSERT => {
            let key = c.u64()?;
            let sat = c.words()?;
            WireRequest::Op(Op::Insert(key, sat))
        }
        opcode::DELETE => WireRequest::Op(Op::Delete(c.u64()?)),
        opcode::PING => WireRequest::Ping,
        opcode::SHARD_OP => {
            let shard = c.u32()?;
            let epoch = c.u64()?;
            let op = take_op(&mut c)?;
            WireRequest::ShardOp { shard, epoch, op }
        }
        opcode::STATUS => WireRequest::Status,
        opcode::EPOCH_SET => WireRequest::EpochSet { epoch: c.u64()? },
        opcode::MIGRATE_EXPORT => WireRequest::MigrateExport {
            shard: c.u32()?,
            chunk: c.u32()?,
        },
        opcode::MIGRATE_INSTALL => {
            let shard = c.u32()?;
            let total = c.u32()?;
            let chunk = c.u32()?;
            let bytes = c.bytes()?;
            WireRequest::MigrateInstall {
                shard,
                total,
                chunk,
                bytes,
            }
        }
        other => return Err(ServeError::Protocol(format!("unknown opcode {other:#04x}"))),
    };
    c.done()?;
    Ok(req)
}

// -------------------------------------------------------------- responses

/// Encode a response payload.
#[must_use]
pub fn encode_response(resp: &WireResponse) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        WireResponse::Reply(Reply::Lookup(Some(sat))) => {
            out.push(status::FOUND);
            put_words(&mut out, sat);
        }
        WireResponse::Reply(Reply::Lookup(None)) => out.push(status::MISS),
        WireResponse::Reply(Reply::Inserted) => out.push(status::INSERT_OK),
        WireResponse::Reply(Reply::Deleted(true)) => out.push(status::DELETE_FOUND),
        WireResponse::Reply(Reply::Deleted(false)) => out.push(status::DELETE_MISS),
        WireResponse::Pong => out.push(status::PONG),
        WireResponse::NodeStatus { epoch, shards } => {
            out.push(status::NODE_STATUS);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
            for s in shards {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        WireResponse::EpochOk => out.push(status::EPOCH_OK),
        WireResponse::ExportChunk {
            total,
            chunk,
            bytes,
        } => {
            out.push(status::EXPORT_CHUNK);
            out.extend_from_slice(&total.to_le_bytes());
            out.extend_from_slice(&chunk.to_le_bytes());
            put_bytes(&mut out, bytes);
        }
        WireResponse::InstallOk { installed } => {
            out.push(status::INSTALL_OK);
            out.push(u8::from(*installed));
        }
        WireResponse::Err(e) => {
            out.push(status::ERROR);
            encode_error(&mut out, e);
        }
    }
    out
}

fn encode_error(out: &mut Vec<u8>, e: &ServeError) {
    match e {
        ServeError::Overloaded { shard, depth } => {
            out.push(errcode::OVERLOADED);
            out.extend_from_slice(&(*shard as u32).to_le_bytes());
            out.extend_from_slice(&(*depth as u32).to_le_bytes());
        }
        ServeError::TimedOut => out.push(errcode::TIMED_OUT),
        ServeError::ShuttingDown => out.push(errcode::SHUTTING_DOWN),
        ServeError::Disconnected => out.push(errcode::DISCONNECTED),
        ServeError::Dict(d) => {
            out.push(errcode::DICT);
            encode_dict_error(out, d);
        }
        ServeError::Protocol(msg) => {
            out.push(errcode::PROTOCOL);
            put_string(out, msg);
        }
        ServeError::WrongShard { shard } => {
            out.push(errcode::WRONG_SHARD);
            out.extend_from_slice(&shard.to_le_bytes());
        }
        ServeError::StaleEpoch { request, node } => {
            out.push(errcode::STALE_EPOCH);
            out.extend_from_slice(&request.to_le_bytes());
            out.extend_from_slice(&node.to_le_bytes());
        }
    }
}

fn encode_dict_error(out: &mut Vec<u8>, d: &DictError) {
    match d {
        DictError::CapacityExhausted { capacity } => {
            out.push(dicttag::CAPACITY);
            out.extend_from_slice(&(*capacity as u64).to_le_bytes());
        }
        DictError::DuplicateKey(key) => {
            out.push(dicttag::DUPLICATE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        DictError::BucketOverflow { key } => {
            out.push(dicttag::BUCKET_OVERFLOW);
            out.extend_from_slice(&key.to_le_bytes());
        }
        DictError::LevelsExhausted { key } => {
            out.push(dicttag::LEVELS);
            out.extend_from_slice(&key.to_le_bytes());
        }
        DictError::ExpansionFailure(msg) => {
            out.push(dicttag::EXPANSION);
            put_string(out, msg);
        }
        DictError::UnsupportedParams(msg) => {
            out.push(dicttag::UNSUPPORTED);
            put_string(out, msg);
        }
        DictError::SatelliteWidth { expected, got } => {
            out.push(dicttag::SAT_WIDTH);
            out.extend_from_slice(&(*expected as u32).to_le_bytes());
            out.extend_from_slice(&(*got as u32).to_le_bytes());
        }
        DictError::Io { kind, disk, addr } => {
            out.push(dicttag::IO);
            put_string(out, kind.label());
            out.extend_from_slice(&(*disk as u32).to_le_bytes());
            out.extend_from_slice(&(*addr as u64).to_le_bytes());
        }
        // Both error enums are non_exhaustive; unknown variants cross
        // the wire as their display string.
        other => {
            out.push(dicttag::EXPANSION);
            put_string(out, &other.to_string());
        }
    }
}

/// Decode a response payload.
///
/// # Errors
/// [`ServeError::Protocol`] on unknown status bytes, truncation, or
/// trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, ServeError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        status::FOUND => WireResponse::Reply(Reply::Lookup(Some(c.words()?))),
        status::MISS => WireResponse::Reply(Reply::Lookup(None)),
        status::INSERT_OK => WireResponse::Reply(Reply::Inserted),
        status::DELETE_FOUND => WireResponse::Reply(Reply::Deleted(true)),
        status::DELETE_MISS => WireResponse::Reply(Reply::Deleted(false)),
        status::PONG => WireResponse::Pong,
        status::NODE_STATUS => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if n > (payload.len()) / 4 {
                return Err(ServeError::Protocol(format!(
                    "shard count {n} exceeds frame remainder"
                )));
            }
            let shards = (0..n).map(|_| c.u32()).collect::<Result<_, _>>()?;
            WireResponse::NodeStatus { epoch, shards }
        }
        status::EPOCH_OK => WireResponse::EpochOk,
        status::EXPORT_CHUNK => {
            let total = c.u32()?;
            let chunk = c.u32()?;
            let bytes = c.bytes()?;
            WireResponse::ExportChunk {
                total,
                chunk,
                bytes,
            }
        }
        status::INSTALL_OK => WireResponse::InstallOk {
            installed: c.u8()? != 0,
        },
        status::ERROR => WireResponse::Err(decode_error(&mut c)?),
        other => return Err(ServeError::Protocol(format!("unknown status {other:#04x}"))),
    };
    c.done()?;
    Ok(resp)
}

fn decode_error(c: &mut Cursor<'_>) -> Result<ServeError, ServeError> {
    Ok(match c.u8()? {
        errcode::OVERLOADED => ServeError::Overloaded {
            shard: c.u32()? as usize,
            depth: c.u32()? as usize,
        },
        errcode::TIMED_OUT => ServeError::TimedOut,
        errcode::SHUTTING_DOWN => ServeError::ShuttingDown,
        errcode::DISCONNECTED => ServeError::Disconnected,
        errcode::DICT => ServeError::Dict(decode_dict_error(c)?),
        errcode::PROTOCOL => ServeError::Protocol(c.string()?),
        errcode::WRONG_SHARD => ServeError::WrongShard { shard: c.u32()? },
        errcode::STALE_EPOCH => ServeError::StaleEpoch {
            request: c.u64()?,
            node: c.u64()?,
        },
        other => return Err(ServeError::Protocol(format!("unknown error code {other}"))),
    })
}

fn decode_dict_error(c: &mut Cursor<'_>) -> Result<DictError, ServeError> {
    Ok(match c.u8()? {
        dicttag::CAPACITY => DictError::CapacityExhausted {
            capacity: c.u64()? as usize,
        },
        dicttag::DUPLICATE => DictError::DuplicateKey(c.u64()?),
        dicttag::BUCKET_OVERFLOW => DictError::BucketOverflow { key: c.u64()? },
        dicttag::LEVELS => DictError::LevelsExhausted { key: c.u64()? },
        dicttag::EXPANSION => DictError::ExpansionFailure(c.string()?),
        dicttag::UNSUPPORTED => DictError::UnsupportedParams(c.string()?),
        dicttag::SAT_WIDTH => DictError::SatelliteWidth {
            expected: c.u32()? as usize,
            got: c.u32()? as usize,
        },
        dicttag::IO => {
            let label = c.string()?;
            let kind = match label.as_str() {
                "disk_dead" => IoFaultKind::DiskDead,
                "transient" => IoFaultKind::TransientError,
                "checksum_mismatch" => IoFaultKind::ChecksumMismatch,
                "torn_write" => IoFaultKind::TornWrite,
                "misconfigured" => IoFaultKind::Misconfigured,
                other => {
                    return Err(ServeError::Protocol(format!("unknown fault label {other:?}")))
                }
            };
            DictError::Io {
                kind,
                disk: c.u32()? as usize,
                addr: c.u64()? as usize,
            }
        }
        other => return Err(ServeError::Protocol(format!("unknown dict tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: WireRequest) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: WireResponse) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(WireRequest::Op(Op::Lookup(u64::MAX)));
        roundtrip_req(WireRequest::Op(Op::Insert(7, vec![])));
        roundtrip_req(WireRequest::Op(Op::Insert(7, vec![1, 2, u64::MAX])));
        roundtrip_req(WireRequest::Op(Op::Delete(0)));
        roundtrip_req(WireRequest::Ping);
    }

    #[test]
    fn cluster_requests_roundtrip() {
        for op in [Op::Lookup(9), Op::Insert(3, vec![1, 2]), Op::Delete(u64::MAX)] {
            roundtrip_req(WireRequest::ShardOp {
                shard: 17,
                epoch: 3,
                op,
            });
        }
        roundtrip_req(WireRequest::Status);
        roundtrip_req(WireRequest::EpochSet { epoch: u64::MAX });
        roundtrip_req(WireRequest::MigrateExport { shard: 0, chunk: 7 });
        roundtrip_req(WireRequest::MigrateInstall {
            shard: 2,
            total: 3,
            chunk: 1,
            bytes: vec![0xAB; 100],
        });
        roundtrip_req(WireRequest::MigrateInstall {
            shard: 2,
            total: 1,
            chunk: 0,
            bytes: vec![],
        });
    }

    #[test]
    fn cluster_responses_roundtrip() {
        roundtrip_resp(WireResponse::NodeStatus {
            epoch: 5,
            shards: vec![0, 7, 31],
        });
        roundtrip_resp(WireResponse::NodeStatus {
            epoch: 0,
            shards: vec![],
        });
        roundtrip_resp(WireResponse::EpochOk);
        roundtrip_resp(WireResponse::ExportChunk {
            total: 4,
            chunk: 3,
            bytes: vec![1, 2, 3],
        });
        roundtrip_resp(WireResponse::InstallOk { installed: true });
        roundtrip_resp(WireResponse::InstallOk { installed: false });
        roundtrip_resp(WireResponse::Err(ServeError::WrongShard { shard: 8 }));
        roundtrip_resp(WireResponse::Err(ServeError::StaleEpoch {
            request: 1,
            node: 2,
        }));
    }

    #[test]
    fn malformed_cluster_frames_are_typed_errors() {
        // ShardOp with an unknown inner opcode.
        let mut bad = vec![opcode::SHARD_OP];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(opcode::PING); // ping is not a valid inner op
        assert!(matches!(decode_request(&bad), Err(ServeError::Protocol(_))));
        // Install whose byte count exceeds the frame.
        let mut lying = vec![opcode::MIGRATE_INSTALL];
        lying.extend_from_slice(&0u32.to_le_bytes());
        lying.extend_from_slice(&1u32.to_le_bytes());
        lying.extend_from_slice(&0u32.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(ServeError::Protocol(_))
        ));
        // NodeStatus whose shard count exceeds the frame.
        let mut lying = vec![status::NODE_STATUS];
        lying.extend_from_slice(&0u64.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&lying),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(WireResponse::Reply(Reply::Lookup(None)));
        roundtrip_resp(WireResponse::Reply(Reply::Lookup(Some(vec![9, 8]))));
        roundtrip_resp(WireResponse::Reply(Reply::Inserted));
        roundtrip_resp(WireResponse::Reply(Reply::Deleted(true)));
        roundtrip_resp(WireResponse::Reply(Reply::Deleted(false)));
        roundtrip_resp(WireResponse::Pong);
    }

    #[test]
    fn errors_roundtrip() {
        for e in [
            ServeError::Overloaded { shard: 3, depth: 256 },
            ServeError::TimedOut,
            ServeError::ShuttingDown,
            ServeError::Disconnected,
            ServeError::Protocol("bad frame".into()),
            ServeError::Dict(DictError::CapacityExhausted { capacity: 1024 }),
            ServeError::Dict(DictError::DuplicateKey(42)),
            ServeError::Dict(DictError::BucketOverflow { key: 5 }),
            ServeError::Dict(DictError::LevelsExhausted { key: 6 }),
            ServeError::Dict(DictError::ExpansionFailure("graph".into())),
            ServeError::Dict(DictError::UnsupportedParams("d too small".into())),
            ServeError::Dict(DictError::SatelliteWidth { expected: 2, got: 5 }),
            ServeError::Dict(DictError::Io {
                kind: IoFaultKind::ChecksumMismatch,
                disk: 7,
                addr: 99,
            }),
        ] {
            roundtrip_resp(WireResponse::Err(e));
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(matches!(
            decode_request(&[]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            decode_request(&[0xEE]),
            Err(ServeError::Protocol(_))
        ));
        // Truncated lookup key.
        assert!(matches!(
            decode_request(&[opcode::LOOKUP, 1, 2]),
            Err(ServeError::Protocol(_))
        ));
        // Trailing garbage.
        let mut ok = encode_request(&WireRequest::Ping);
        ok.push(0);
        assert!(matches!(decode_request(&ok), Err(ServeError::Protocol(_))));
        // Satellite count exceeding the frame.
        let mut lying = vec![opcode::INSERT];
        lying.extend_from_slice(&7u64.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            decode_response(&[0x77]),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn framing_roundtrips_over_a_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversized_and_truncated_frames_rejected() {
        let mut r = io::Cursor::new((MAX_FRAME as u32 + 1).to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Length prefix promises 10 bytes, stream has 2.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2]);
        let mut r = io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // EOF splitting the length prefix itself.
        let mut r = io::Cursor::new(vec![5u8, 0]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1])
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
    }
}
