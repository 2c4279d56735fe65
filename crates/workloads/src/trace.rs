//! The `lnuca-trace/v1` binary trace format and its streaming replay.
//!
//! Real-program memory traces enter the repository through two steps
//! (DESIGN.md §16): `lnuca ingest` converts textual dump lines into the
//! compact indexed binary described here, and [`AccessPattern::Trace`]
//! profiles replay the binary through [`crate::TraceGenerator`] exactly like
//! a synthetic pattern — deterministically, so every engine sees the
//! identical instruction stream.
//!
//! # Layout (`lnuca-trace/v1`)
//!
//! All integers are little-endian. The file is a 32-byte header, a chunk
//! index, and one delta-encoded payload per chunk:
//!
//! ```text
//! header   magic "LNUCATR1" (8) · version u32 · chunk_count u32
//!          · record_count u64 · index_checksum u64 (FNV-1a over the index)
//! index    chunk_count × 48 bytes: payload_offset u64 · payload_len u64
//!          · records u64 · base_addr u64 · base_pc u64
//!          · payload_checksum u64 (FNV-1a over the payload)
//! payload  op streams (see below), one independent stream per chunk
//! ```
//!
//! The header and index carry absolute offsets and per-chunk bases, so a
//! reader can map the file and decode any chunk without touching the
//! others — the format is mmap-able by construction even though this
//! `#![forbid(unsafe_code)]` crate reads it through owned buffers.
//!
//! Each chunk covers up to [`CHUNK_RECORDS`] records. Within a chunk,
//! addresses and PCs are delta-encoded (zigzag + LEB128 varint) against the
//! previous record, starting from the chunk's `base_addr`/`base_pc` (the
//! first record's values, so the first delta is zero). Two op kinds exist:
//!
//! * `0x00`/`0x01` — one read/write: `svarint addr_delta · svarint pc_delta`
//! * `0x02`/`0x03` — a read/write **run** of `count ≥ 3` records with a
//!   constant address stride and one shared PC:
//!   `varint count · svarint first_delta · svarint stride · svarint pc_delta`
//!
//! Runs are what make strided dumps (array sweeps, block copies) compress
//! by an order of magnitude; irregular traces degrade gracefully to the
//! single-record ops.

use crate::profile::{AccessPattern, WorkloadProfile};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every `lnuca-trace/v1` file.
pub const TRACE_MAGIC: [u8; 8] = *b"LNUCATR1";
/// Format version this module reads and writes.
pub const TRACE_VERSION: u32 = 1;
/// Maximum records per chunk (the decode/streaming granularity).
pub const CHUNK_RECORDS: usize = 4096;
/// Exclusive upper bound on addresses and PCs: 2^56, so deltas always fit
/// comfortably in an `i64` and corrupt files cannot smuggle in pointer-width
/// garbage.
pub const ADDR_LIMIT: u64 = 1 << 56;

const HEADER_BYTES: usize = 32;
const INDEX_ENTRY_BYTES: usize = 48;
/// Minimum run length worth a run op (a run op costs ≥ 4 bytes, three
/// singles cost ≥ 6).
const MIN_RUN: usize = 3;

/// One memory reference of an ingested trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Byte address of the access.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
    /// Program counter of the access (0 when the dump has no PC column).
    pub pc: u64,
}

/// Why a binary trace was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// The bytes violate the `lnuca-trace/v1` layout (truncation, bad
    /// magic/version, checksum mismatch, out-of-range values).
    Format {
        /// Byte offset of the violation.
        offset: usize,
        /// What is wrong there.
        message: String,
    },
}

impl TraceError {
    fn format(offset: usize, message: impl Into<String>) -> Self {
        TraceError::Format {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            TraceError::Format { offset, message } => {
                write!(f, "invalid lnuca-trace/v1 at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Why a textual dump line was rejected, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for IngestError {}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_svarint(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign encode in one byte.
    push_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn read_varint(bytes: &[u8], pos: &mut usize, base: usize) -> Result<u64, TraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(TraceError::format(base + *pos, "payload truncated inside a varint"));
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(TraceError::format(base + *pos, "varint overflows 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn read_svarint(bytes: &[u8], pos: &mut usize, base: usize) -> Result<i64, TraceError> {
    let raw = read_varint(bytes, pos, base)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// FNV-1a over a byte slice — the checksum pinning the index and each
/// chunk payload.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], offset: usize) -> Result<u32, TraceError> {
    bytes
        .get(offset..offset + 4)
        .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
        .ok_or_else(|| TraceError::format(offset, "file truncated"))
}

fn get_u64(bytes: &[u8], offset: usize) -> Result<u64, TraceError> {
    bytes
        .get(offset..offset + 8)
        .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
        .ok_or_else(|| TraceError::format(offset, "file truncated"))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Length of the greedy run starting at `records[i]`: same write flag, same
/// PC, constant signed address stride.
fn run_len(records: &[TraceRecord], i: usize) -> usize {
    let first = records[i];
    let Some(second) = records.get(i + 1) else { return 1 };
    if second.write != first.write || second.pc != first.pc {
        return 1;
    }
    let stride = second.addr.wrapping_sub(first.addr) as i64;
    let mut len = 2;
    while let Some(next) = records.get(i + len) {
        let prev = records[i + len - 1];
        if next.write != first.write
            || next.pc != first.pc
            || next.addr.wrapping_sub(prev.addr) as i64 != stride
        {
            break;
        }
        len += 1;
    }
    len
}

/// Encodes records as a complete `lnuca-trace/v1` file.
///
/// # Errors
///
/// Returns a [`TraceError`] if `records` is empty or any address/PC reaches
/// [`ADDR_LIMIT`].
pub fn encode(records: &[TraceRecord]) -> Result<Vec<u8>, TraceError> {
    if records.is_empty() {
        return Err(TraceError::format(0, "a trace needs at least one record"));
    }
    for (i, r) in records.iter().enumerate() {
        if r.addr >= ADDR_LIMIT || r.pc >= ADDR_LIMIT {
            return Err(TraceError::format(
                0,
                format!("record {i}: address/pc must be below 2^56, got addr {:#x} pc {:#x}", r.addr, r.pc),
            ));
        }
    }
    let chunks: Vec<&[TraceRecord]> = records.chunks(CHUNK_RECORDS).collect();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let mut payload = Vec::new();
        let mut prev_addr = chunk[0].addr as i64;
        let mut prev_pc = chunk[0].pc as i64;
        let mut i = 0;
        while i < chunk.len() {
            let len = run_len(chunk, i).min(chunk.len() - i);
            let r = chunk[i];
            if len >= MIN_RUN {
                let stride = chunk[i + 1].addr.wrapping_sub(r.addr) as i64;
                payload.push(if r.write { 3 } else { 2 });
                push_varint(&mut payload, len as u64);
                push_svarint(&mut payload, r.addr as i64 - prev_addr);
                push_svarint(&mut payload, stride);
                push_svarint(&mut payload, r.pc as i64 - prev_pc);
                prev_addr = chunk[i + len - 1].addr as i64;
                prev_pc = r.pc as i64;
                i += len;
            } else {
                payload.push(u8::from(r.write));
                push_svarint(&mut payload, r.addr as i64 - prev_addr);
                push_svarint(&mut payload, r.pc as i64 - prev_pc);
                prev_addr = r.addr as i64;
                prev_pc = r.pc as i64;
                i += 1;
            }
        }
        payloads.push(payload);
    }

    let index_bytes = chunks.len() * INDEX_ENTRY_BYTES;
    let mut index = Vec::with_capacity(index_bytes);
    let mut offset = (HEADER_BYTES + index_bytes) as u64;
    for (chunk, payload) in chunks.iter().zip(&payloads) {
        push_u64(&mut index, offset);
        push_u64(&mut index, payload.len() as u64);
        push_u64(&mut index, chunk.len() as u64);
        push_u64(&mut index, chunk[0].addr);
        push_u64(&mut index, chunk[0].pc);
        push_u64(&mut index, fnv1a(payload));
        offset += payload.len() as u64;
    }

    let mut out = Vec::with_capacity(HEADER_BYTES + index.len() + payloads.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(&TRACE_MAGIC);
    push_u32(&mut out, TRACE_VERSION);
    push_u32(&mut out, chunks.len() as u32);
    push_u64(&mut out, records.len() as u64);
    push_u64(&mut out, fnv1a(&index));
    out.extend_from_slice(&index);
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// Encodes records and writes them to `path`.
///
/// # Errors
///
/// Returns a [`TraceError`] on encoding or I/O failure.
pub fn write_file(path: impl AsRef<Path>, records: &[TraceRecord]) -> Result<(), TraceError> {
    let path = path.as_ref();
    let bytes = encode(records)?;
    std::fs::write(path, bytes).map_err(|e| TraceError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkIndex {
    offset: usize,
    len: usize,
    records: usize,
    base_addr: u64,
    base_pc: u64,
}

/// A validated, immutable in-memory `lnuca-trace/v1` file. Cloning is cheap
/// (the bytes are shared), so every run and engine can hold its own handle
/// onto one loaded corpus.
#[derive(Debug, Clone)]
pub struct TraceData {
    bytes: Arc<[u8]>,
    chunks: Arc<[ChunkIndex]>,
    records: u64,
}

impl TraceData {
    /// Parses and fully validates a trace file image: magic, version,
    /// counts, index bounds, the index checksum and every chunk payload
    /// checksum. A file that loads successfully decodes successfully.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError::Format`] describing the first violation.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        if bytes.len() < HEADER_BYTES {
            return Err(TraceError::format(
                bytes.len(),
                format!("file is {} bytes, shorter than the {HEADER_BYTES}-byte header", bytes.len()),
            ));
        }
        if bytes[..8] != TRACE_MAGIC {
            return Err(TraceError::format(0, "bad magic (expected \"LNUCATR1\")"));
        }
        let version = get_u32(&bytes, 8)?;
        if version != TRACE_VERSION {
            return Err(TraceError::format(
                8,
                format!("unsupported version {version} (this reader handles {TRACE_VERSION})"),
            ));
        }
        let chunk_count = get_u32(&bytes, 12)? as usize;
        let record_count = get_u64(&bytes, 16)?;
        let index_checksum = get_u64(&bytes, 24)?;
        if chunk_count == 0 || record_count == 0 {
            return Err(TraceError::format(12, "a trace needs at least one chunk and one record"));
        }
        let index_end = HEADER_BYTES + chunk_count * INDEX_ENTRY_BYTES;
        let Some(index) = bytes.get(HEADER_BYTES..index_end) else {
            return Err(TraceError::format(
                bytes.len(),
                format!("file truncated inside the {chunk_count}-entry chunk index"),
            ));
        };
        if fnv1a(index) != index_checksum {
            return Err(TraceError::format(24, "chunk index checksum mismatch"));
        }
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut expected_offset = index_end;
        let mut total_records = 0u64;
        for i in 0..chunk_count {
            let entry = HEADER_BYTES + i * INDEX_ENTRY_BYTES;
            let offset = get_u64(&bytes, entry)? as usize;
            let len = get_u64(&bytes, entry + 8)? as usize;
            let records = get_u64(&bytes, entry + 16)? as usize;
            let base_addr = get_u64(&bytes, entry + 24)?;
            let base_pc = get_u64(&bytes, entry + 32)?;
            let checksum = get_u64(&bytes, entry + 40)?;
            if offset != expected_offset {
                return Err(TraceError::format(
                    entry,
                    format!("chunk {i} starts at {offset}, expected {expected_offset}"),
                ));
            }
            if records == 0 || records > CHUNK_RECORDS {
                return Err(TraceError::format(
                    entry + 16,
                    format!("chunk {i} claims {records} records (1..={CHUNK_RECORDS} allowed)"),
                ));
            }
            if base_addr >= ADDR_LIMIT || base_pc >= ADDR_LIMIT {
                return Err(TraceError::format(entry + 24, format!("chunk {i} base beyond 2^56")));
            }
            let Some(payload) = bytes.get(offset..offset + len) else {
                return Err(TraceError::format(
                    bytes.len(),
                    format!("file truncated inside chunk {i}'s payload"),
                ));
            };
            if fnv1a(payload) != checksum {
                return Err(TraceError::format(offset, format!("chunk {i} payload checksum mismatch")));
            }
            chunks.push(ChunkIndex {
                offset,
                len,
                records,
                base_addr,
                base_pc,
            });
            expected_offset = offset + len;
            total_records += records as u64;
        }
        if total_records != record_count {
            return Err(TraceError::format(
                16,
                format!("header claims {record_count} records, chunks hold {total_records}"),
            ));
        }
        if expected_offset != bytes.len() {
            return Err(TraceError::format(
                expected_offset,
                format!("{} trailing bytes after the last chunk", bytes.len() - expected_offset),
            ));
        }
        Ok(TraceData {
            bytes: bytes.into(),
            chunks: chunks.into(),
            records: record_count,
        })
    }

    /// Loads and validates a trace file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, [`TraceError::Format`]
    /// if it is not a valid `lnuca-trace/v1` image.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_bytes(bytes)
    }

    /// Total records in the trace.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Number of chunks in the trace.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Decodes one chunk into `out` (cleared first).
    ///
    /// Validation happened at load time, so decoding cannot fail on a
    /// loaded trace; an inconsistency here would mean the bytes changed
    /// underneath us and is reported as an error anyway.
    fn decode_chunk_into(&self, chunk: usize, out: &mut Vec<TraceRecord>) -> Result<(), TraceError> {
        let idx = self.chunks[chunk];
        let payload = &self.bytes[idx.offset..idx.offset + idx.len];
        out.clear();
        let mut prev_addr = idx.base_addr as i64;
        let mut prev_pc = idx.base_pc as i64;
        let mut pos = 0;
        while out.len() < idx.records {
            let Some(&op) = payload.get(pos) else {
                return Err(TraceError::format(idx.offset + pos, "payload ends before its record count"));
            };
            pos += 1;
            match op {
                0 | 1 => {
                    prev_addr += read_svarint(payload, &mut pos, idx.offset)?;
                    prev_pc += read_svarint(payload, &mut pos, idx.offset)?;
                    out.push(checked_record(prev_addr, op == 1, prev_pc, idx.offset + pos)?);
                }
                2 | 3 => {
                    let count = read_varint(payload, &mut pos, idx.offset)?;
                    let first = prev_addr + read_svarint(payload, &mut pos, idx.offset)?;
                    let stride = read_svarint(payload, &mut pos, idx.offset)?;
                    let pc = prev_pc + read_svarint(payload, &mut pos, idx.offset)?;
                    if count < MIN_RUN as u64 || out.len() as u64 + count > idx.records as u64 {
                        return Err(TraceError::format(
                            idx.offset + pos,
                            format!("run of {count} records overflows its chunk"),
                        ));
                    }
                    let mut addr = first;
                    for _ in 0..count {
                        out.push(checked_record(addr, op == 3, pc, idx.offset + pos)?);
                        addr += stride;
                    }
                    prev_addr = first + stride * (count as i64 - 1);
                    prev_pc = pc;
                }
                other => {
                    return Err(TraceError::format(
                        idx.offset + pos - 1,
                        format!("unknown op byte {other:#x}"),
                    ));
                }
            }
        }
        if pos != payload.len() {
            return Err(TraceError::format(
                idx.offset + pos,
                format!("{} trailing bytes after the chunk's records", payload.len() - pos),
            ));
        }
        Ok(())
    }

    /// Decodes the whole trace (tests and tools; the simulator streams
    /// through [`TraceReplay`] instead).
    ///
    /// # Errors
    ///
    /// See [`TraceData::from_bytes`] — a loaded trace decodes fully.
    pub fn decode_all(&self) -> Result<Vec<TraceRecord>, TraceError> {
        let mut all = Vec::with_capacity(usize::try_from(self.records).unwrap_or(0));
        let mut buf = Vec::new();
        for chunk in 0..self.chunks.len() {
            self.decode_chunk_into(chunk, &mut buf)?;
            all.extend_from_slice(&buf);
        }
        Ok(all)
    }
}

fn checked_record(addr: i64, write: bool, pc: i64, offset: usize) -> Result<TraceRecord, TraceError> {
    if !(0..ADDR_LIMIT as i64).contains(&addr) || !(0..ADDR_LIMIT as i64).contains(&pc) {
        return Err(TraceError::format(
            offset,
            format!("decoded address/pc out of range (addr {addr:#x}, pc {pc:#x})"),
        ));
    }
    Ok(TraceRecord {
        addr: addr as u64,
        write,
        pc: pc as u64,
    })
}

/// A streaming, infinitely-wrapping reader over a loaded trace: one chunk
/// is decoded at a time, and reaching the end restarts from the first
/// record — matching the synthetic generators' infinite-iterator contract,
/// so a short trace can still drive an arbitrarily long run.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    data: TraceData,
    chunk: usize,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl TraceReplay {
    /// Starts a replay at the first record.
    #[must_use]
    pub fn new(data: TraceData) -> Self {
        TraceReplay {
            data,
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next record, wrapping at the end of the trace.
    pub fn next_record(&mut self) -> TraceRecord {
        if self.pos >= self.buf.len() {
            if self.chunk >= self.data.chunk_count() {
                self.chunk = 0;
            }
            let chunk = self.chunk;
            self.data
                .decode_chunk_into(chunk, &mut self.buf)
                .expect("loaded traces decode (validated at load time)");
            self.chunk += 1;
            self.pos = 0;
        }
        let record = self.buf[self.pos];
        self.pos += 1;
        record
    }
}

// ---------------------------------------------------------------------------
// Textual ingestion
// ---------------------------------------------------------------------------

fn parse_number(raw: &str, line: usize, what: &str) -> Result<u64, IngestError> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    let value = parsed.map_err(|_| IngestError {
        line,
        message: format!("{what} {raw:?} is not a decimal or 0x-prefixed hex integer"),
    })?;
    if value >= ADDR_LIMIT {
        return Err(IngestError {
            line,
            message: format!("{what} {raw} is at or above the 2^56 limit"),
        });
    }
    Ok(value)
}

/// Parses a textual dump into records, auto-detecting its dialect.
///
/// Two dialects are recognised:
///
/// * **Native** — each non-empty, non-`#`-comment line is
///   `<kind> <addr> [pc]` with whitespace separators; `kind` is one of
///   `r`/`read`/`l`/`ld`/`load` or `w`/`write`/`s`/`st`/`store`
///   (case-insensitive); numbers are decimal or `0x`-prefixed hex.
/// * **Valgrind lackey** (`valgrind --tool=lackey --trace-mem=yes`) —
///   lines are `<kind> <addr>,<size>` where `kind` is uppercase `I`
///   (instruction fetch), `L` (load), `S` (store) or `M` (modify);
///   addresses are bare hex. `I` lines emit no record but set the pc
///   attached to the data records that follow; `M` expands to a load
///   followed by a store at the same address; the access size is
///   validated and discarded (the simulator works in whole lines).
///   Valgrind `==pid==` banner lines ride along in real dumps and are
///   skipped.
///
/// The dialect is decided by the first content line: an uppercase
/// `I`/`L`/`S`/`M` kind whose operand contains a comma selects lackey,
/// anything else the native dialect.
///
/// # Errors
///
/// Returns an [`IngestError`] carrying the 1-based line number of the first
/// malformed line, or of line 0 when the dump holds no records at all.
pub fn ingest_text(text: &str) -> Result<Vec<TraceRecord>, IngestError> {
    if looks_like_lackey(text) {
        ingest_lackey(text)
    } else {
        ingest_native(text)
    }
}

/// True when the first content line carries an uppercase lackey kind with a
/// comma-joined `addr,size` operand. The native dialect also accepts
/// uppercase `L`/`S` kinds, but never a comma, so the pair is unambiguous.
fn looks_like_lackey(text: &str) -> bool {
    for raw_line in text.lines() {
        let content = raw_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() || content.starts_with("==") {
            continue;
        }
        let mut fields = content.split_whitespace();
        let kind = fields.next().unwrap_or("");
        return matches!(kind, "I" | "L" | "S" | "M")
            && fields.next().is_some_and(|operand| operand.contains(','));
    }
    false
}

fn parse_lackey_hex(raw: &str, line: usize, what: &str) -> Result<u64, IngestError> {
    let digits = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")).unwrap_or(raw);
    let value = u64::from_str_radix(digits, 16).map_err(|_| IngestError {
        line,
        message: format!("{what} {raw:?} is not a hex integer"),
    })?;
    if value >= ADDR_LIMIT {
        return Err(IngestError {
            line,
            message: format!("{what} {raw} is at or above the 2^56 limit"),
        });
    }
    Ok(value)
}

fn ingest_lackey(text: &str) -> Result<Vec<TraceRecord>, IngestError> {
    let mut records = Vec::new();
    // Lackey interleaves `I` fetch lines with the data records the decoded
    // instruction performs, so the last fetch address is the natural pc.
    let mut pc = 0u64;
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() || content.starts_with("==") {
            continue;
        }
        let mut fields = content.split_whitespace();
        let kind = fields.next().expect("non-empty line has a first field");
        let Some(operand) = fields.next() else {
            return Err(IngestError {
                line,
                message: format!("lackey record {kind:?} is missing its `addr,size` operand"),
            });
        };
        if let Some(extra) = fields.next() {
            return Err(IngestError {
                line,
                message: format!("unexpected trailing field {extra:?} (lackey lines are `<kind> <addr>,<size>`)"),
            });
        }
        let Some((addr_raw, size_raw)) = operand.split_once(',') else {
            return Err(IngestError {
                line,
                message: format!("lackey operand {operand:?} is not an `addr,size` pair"),
            });
        };
        let addr = parse_lackey_hex(addr_raw, line, "address")?;
        let size: u64 = size_raw.parse().map_err(|_| IngestError {
            line,
            message: format!("access size {size_raw:?} is not a decimal integer"),
        })?;
        if size == 0 {
            return Err(IngestError {
                line,
                message: "access size 0 is not a memory access".to_owned(),
            });
        }
        match kind {
            "I" => pc = addr,
            "L" => records.push(TraceRecord { addr, write: false, pc }),
            "S" => records.push(TraceRecord { addr, write: true, pc }),
            "M" => {
                records.push(TraceRecord { addr, write: false, pc });
                records.push(TraceRecord { addr, write: true, pc });
            }
            other => {
                return Err(IngestError {
                    line,
                    message: format!("unknown lackey access kind {other:?} (expected I, L, S or M)"),
                })
            }
        }
    }
    if records.is_empty() {
        return Err(IngestError {
            line: 0,
            message: "the dump holds no records".to_owned(),
        });
    }
    Ok(records)
}

fn ingest_native(text: &str) -> Result<Vec<TraceRecord>, IngestError> {
    let mut records = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut fields = content.split_whitespace();
        let kind = fields.next().expect("non-empty line has a first field");
        let write = match kind.to_ascii_lowercase().as_str() {
            "r" | "read" | "l" | "ld" | "load" => false,
            "w" | "write" | "s" | "st" | "store" => true,
            other => {
                return Err(IngestError {
                    line,
                    message: format!(
                        "unknown access kind {other:?} (expected r/read/l/ld/load or w/write/s/st/store)"
                    ),
                })
            }
        };
        let Some(addr_raw) = fields.next() else {
            return Err(IngestError {
                line,
                message: "missing address after the access kind".to_owned(),
            });
        };
        let addr = parse_number(addr_raw, line, "address")?;
        let pc = match fields.next() {
            Some(pc_raw) => parse_number(pc_raw, line, "pc")?,
            None => 0,
        };
        if let Some(extra) = fields.next() {
            return Err(IngestError {
                line,
                message: format!("unexpected trailing field {extra:?} (lines are `<kind> <addr> [pc]`)"),
            });
        }
        records.push(TraceRecord { addr, write, pc });
    }
    if records.is_empty() {
        return Err(IngestError {
            line: 0,
            message: "the dump holds no records".to_owned(),
        });
    }
    Ok(records)
}

/// The workload profile replaying the trace at `path`: name and
/// `trace_path` are the path itself, pattern [`AccessPattern::Trace`],
/// every other knob at the defaults. The file is opened when a
/// [`crate::TraceGenerator`] is constructed, not here, so profiles can be
/// built (and scenarios parsed) away from the corpus directory.
#[must_use]
pub fn trace_profile(path: &str) -> WorkloadProfile {
    let mut profile = WorkloadProfile::default();
    profile.name = path.to_owned();
    profile.pattern = AccessPattern::Trace;
    profile.trace_path = Some(path.to_owned());
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_records(n: usize) -> Vec<TraceRecord> {
        // Interleave a strided sweep (run-compressible), a constant-stride
        // store burst, and irregular singles.
        let mut records = Vec::with_capacity(n);
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let record = match i % 16 {
                0..=7 => TraceRecord { addr: 0x1000 + i as u64 * 64, write: false, pc: 0x400100 },
                8..=11 => TraceRecord { addr: 0x8_0000 + i as u64 * 8, write: true, pc: 0x400200 },
                _ => TraceRecord { addr: x % ADDR_LIMIT, write: x & 1 == 0, pc: x >> 9 & (ADDR_LIMIT - 1) },
            };
            records.push(record);
        }
        records
    }

    #[test]
    fn encode_decode_round_trip_is_identity() {
        for n in [1, 2, 3, 100, CHUNK_RECORDS, CHUNK_RECORDS + 1, 3 * CHUNK_RECORDS + 17] {
            let records = mixed_records(n);
            let bytes = encode(&records).unwrap();
            let data = TraceData::from_bytes(bytes).unwrap();
            assert_eq!(data.record_count(), n as u64);
            assert_eq!(data.decode_all().unwrap(), records, "n = {n}");
        }
    }

    #[test]
    fn runs_compress_strided_traces() {
        let strided: Vec<TraceRecord> = (0..2000)
            .map(|i| TraceRecord { addr: 0x1000 + i * 64, write: false, pc: 0x400 })
            .collect();
        let bytes = encode(&strided).unwrap();
        // One run op per chunk: far below a byte per record.
        assert!(bytes.len() < strided.len(), "strided trace encodes to {} bytes", bytes.len());
        assert_eq!(TraceData::from_bytes(bytes).unwrap().decode_all().unwrap(), strided);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let records = mixed_records(600);
        let bytes = encode(&records).unwrap();
        for cut in [0, 4, HEADER_BYTES - 1, HEADER_BYTES + 10, bytes.len() / 2, bytes.len() - 1] {
            let err = TraceData::from_bytes(bytes[..cut].to_vec());
            assert!(err.is_err(), "truncation at {cut} must be rejected");
        }
    }

    #[test]
    fn corruption_is_rejected_with_offsets() {
        let bytes = encode(&mixed_records(100)).unwrap();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(TraceData::from_bytes(bad).unwrap_err().to_string().contains("magic"));
        // Version.
        let mut bad = bytes.clone();
        bad[8] = 9;
        assert!(TraceData::from_bytes(bad).unwrap_err().to_string().contains("version"));
        // Index bytes (checksum catches it).
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 3] ^= 0x55;
        assert!(TraceData::from_bytes(bad).unwrap_err().to_string().contains("checksum"));
        // Payload bytes (per-chunk checksum catches it).
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        assert!(TraceData::from_bytes(bad).unwrap_err().to_string().contains("checksum"));
    }

    #[test]
    fn empty_and_out_of_range_traces_are_rejected() {
        assert!(encode(&[]).is_err());
        let err = encode(&[TraceRecord { addr: ADDR_LIMIT, write: false, pc: 0 }]).unwrap_err();
        assert!(err.to_string().contains("2^56"), "{err}");
    }

    #[test]
    fn replay_wraps_deterministically() {
        let records = mixed_records(10);
        let data = TraceData::from_bytes(encode(&records).unwrap()).unwrap();
        let mut replay = TraceReplay::new(data);
        let first_lap: Vec<TraceRecord> = (0..10).map(|_| replay.next_record()).collect();
        let second_lap: Vec<TraceRecord> = (0..10).map(|_| replay.next_record()).collect();
        assert_eq!(first_lap, records);
        assert_eq!(second_lap, records, "the replay wraps back to the first record");
    }

    #[test]
    fn ingest_parses_kinds_numbers_and_comments() {
        let text = "# a comment\n\
                    r 0x1000 0x400\n\
                    W 4096\n\
                    load 0x2000 0x404  # trailing comment\n\
                    \n\
                    st 0x3000 16\n";
        let records = ingest_text(text).unwrap();
        assert_eq!(
            records,
            vec![
                TraceRecord { addr: 0x1000, write: false, pc: 0x400 },
                TraceRecord { addr: 4096, write: true, pc: 0 },
                TraceRecord { addr: 0x2000, write: false, pc: 0x404 },
                TraceRecord { addr: 0x3000, write: true, pc: 16 },
            ]
        );
    }

    #[test]
    fn ingest_errors_carry_line_numbers() {
        let err = ingest_text("r 0x10\nq 0x20\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(ingest_text("r\n").unwrap_err().message.contains("missing address"));
        assert_eq!(ingest_text("r 0x10\nw zzz\n").unwrap_err().line, 2);
        assert_eq!(ingest_text("r 0x10 0x20 0x30\n").unwrap_err().line, 1);
        let err = ingest_text("# nothing\n\n").unwrap_err();
        assert!(err.message.contains("no records"), "{err}");
    }

    #[test]
    fn ingest_auto_detects_and_parses_lackey_dumps() {
        let text = "==1234== Lackey, an example Valgrind tool\n\
                    I  0400d7d4,8\n\
                     L 04f0a828,8\n\
                     S 04f0a7f0,8\n\
                    I  0400d7e0,4\n\
                     M 0421b7f0,4\n\
                    ==1234== exiting\n";
        let records = ingest_text(text).unwrap();
        assert_eq!(
            records,
            vec![
                TraceRecord { addr: 0x04f0_a828, write: false, pc: 0x0400_d7d4 },
                TraceRecord { addr: 0x04f0_a7f0, write: true, pc: 0x0400_d7d4 },
                TraceRecord { addr: 0x0421_b7f0, write: false, pc: 0x0400_d7e0 },
                TraceRecord { addr: 0x0421_b7f0, write: true, pc: 0x0400_d7e0 },
            ]
        );
    }

    #[test]
    fn lackey_detection_needs_both_the_kind_and_the_comma() {
        // Uppercase native kinds without a comma stay native.
        assert_eq!(
            ingest_text("L 0x1000 0x400\n").unwrap(),
            vec![TraceRecord { addr: 0x1000, write: false, pc: 0x400 }]
        );
        // Data records with no preceding fetch carry pc 0.
        assert_eq!(
            ingest_text("S 1000,4\n").unwrap(),
            vec![TraceRecord { addr: 0x1000, write: true, pc: 0 }]
        );
    }

    #[test]
    fn lackey_errors_carry_line_numbers() {
        let err = ingest_text("I 400,4\n L 500,8\n X 600,4\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown lackey access kind"), "{err}");
        let err = ingest_text("I 400,4\n L 500\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("addr,size"), "{err}");
        let err = ingest_text("L zz,4\n").unwrap_err();
        assert!(err.message.contains("not a hex integer"), "{err}");
        let err = ingest_text("L 500,0\n").unwrap_err();
        assert!(err.message.contains("size 0"), "{err}");
        let err = ingest_text("L 500,4 extra\n").unwrap_err();
        assert!(err.message.contains("trailing field"), "{err}");
        let err = ingest_text("I 400,4\nL\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("missing its"), "{err}");
        // A dump of only fetches holds no data records.
        let err = ingest_text("I 400,4\nI 404,4\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("no records"), "{err}");
    }

    #[test]
    fn trace_profiles_validate_and_carry_the_path() {
        let profile = trace_profile("traces/sample.lnt");
        profile.validate().expect("trace profiles are valid");
        assert_eq!(profile.pattern, AccessPattern::Trace);
        assert_eq!(profile.trace_path.as_deref(), Some("traces/sample.lnt"));
        assert_eq!(profile.name, "traces/sample.lnt");
    }
}
