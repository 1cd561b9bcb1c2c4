//! Frame I/O over byte streams: blocking readers for the client, and the
//! incremental [`FrameAccumulator`] the server's event loop parses with.
//!
//! The blocking side (the client's) reads whole frames; a timeout *inside*
//! a frame is an error once the patience window is spent. The incremental
//! side accepts whatever bytes a nonblocking read produced and yields
//! complete frames as they form, against the same length/limit validation.

use crate::error::ServerError;
use crate::protocol::{parse_header, ErrorCode, Frame, FrameHeader, FRAME_HEADER_BYTES};
use std::io::{ErrorKind, Read, Write};

/// `true` for the error kinds a timed-out socket read surfaces.
fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Serializes `frame` to `writer` and flushes: the fixed header goes out
/// from a stack buffer and the payload is written in place — no per-frame
/// allocation or payload copy on the hot path.
///
/// # Errors
///
/// Returns [`ServerError::Io`] if the write fails (including a write
/// timeout, if one is set on the stream).
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), ServerError> {
    writer.write_all(&frame.header_bytes())?;
    writer.write_all(&frame.payload)?;
    writer.flush()?;
    Ok(())
}

/// Fills `buf` from `reader`, tolerating up to `max_idle_polls` consecutive
/// timed-out reads (each one costs the stream's read timeout of wall clock).
///
/// # Errors
///
/// * [`ServerError::Io`] with kind `UnexpectedEof` if the stream ends first.
/// * [`ServerError::Io`] with the timeout kind once the patience runs out.
fn read_full<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    max_idle_polls: u32,
) -> Result<(), ServerError> {
    let mut filled = 0usize;
    let mut idle_polls = 0u32;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ServerError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("stream ended after {filled} of {} frame bytes", buf.len()),
                )))
            }
            Ok(n) => {
                filled += n;
                idle_polls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                idle_polls += 1;
                if idle_polls > max_idle_polls {
                    return Err(ServerError::Io(e));
                }
            }
            Err(e) => return Err(ServerError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one complete frame, header then payload, with the payload length
/// validated against `max_payload` before the payload buffer is allocated.
///
/// Socket timeouts are retried up to `max_idle_polls` times at every
/// position, so this blocks until a frame arrives or the patience window
/// (`max_idle_polls` x the stream's read timeout) elapses.
///
/// # Errors
///
/// * [`ServerError::Io`] on stream failure, timeout or mid-frame EOF.
/// * [`ServerError::Protocol`] for header violations (see
///   [`parse_header`]).
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_payload: usize,
    max_idle_polls: u32,
) -> Result<(FrameHeader, Vec<u8>), ServerError> {
    let mut header_bytes = [0u8; FRAME_HEADER_BYTES];
    read_full(reader, &mut header_bytes, max_idle_polls)?;
    let header = parse_header(&header_bytes)?;
    header.ensure_within(max_payload)?;
    let mut payload = vec![0u8; header.payload_len];
    read_full(reader, &mut payload, max_idle_polls)?;
    Ok((header, payload))
}

/// Converts a validated `(header, payload)` pair into a [`Frame`], rejecting
/// unknown op codes.
///
/// # Errors
///
/// Returns [`ServerError::Protocol`] with [`ErrorCode::UnknownOp`] if the
/// op byte is not one this build speaks.
pub fn into_frame(header: FrameHeader, payload: Vec<u8>) -> Result<Frame, ServerError> {
    let op =
        crate::protocol::Op::from_code(header.op_code).ok_or_else(|| ServerError::Protocol {
            code: ErrorCode::UnknownOp,
            message: format!("unknown op code 0x{:02X}", header.op_code),
        })?;
    Ok(Frame { op, request_id: header.request_id, payload })
}

/// One complete unit the [`FrameAccumulator`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame: header validated, payload within the limit.
    Frame(FrameHeader, Vec<u8>),
    /// A syntactically valid header declaring a payload beyond the limit.
    /// The payload bytes are **not** consumed (the frame boundary is lost
    /// — the accumulator is dead afterwards), but the header's request id
    /// lets the caller address its error reply before closing.
    Oversized(FrameHeader),
}

/// Incremental frame reassembly for nonblocking reads.
///
/// Feed whatever bytes the socket produced with
/// [`FrameAccumulator::push_bytes`], then drain [`FrameAccumulator::next_event`]
/// until it yields `Ok(None)`. Validation matches the blocking readers
/// exactly: the declared payload length is checked against the limit
/// *before* any payload-sized buffer exists, and header violations (bad
/// magic, bad version) surface as the same typed
/// [`ServerError::Protocol`] errors. After an error or an
/// [`FrameEvent::Oversized`] the frame boundary is unrecoverable and the
/// accumulator stays dead — the connection must close.
#[derive(Debug)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    pos: usize,
    max_payload: usize,
    dead: bool,
}

/// Consumed-prefix size beyond which the accumulator compacts its buffer
/// even while bytes remain, bounding memory at one frame plus this slack.
const COMPACT_THRESHOLD: usize = 64 << 10;

impl FrameAccumulator {
    /// Creates an accumulator enforcing `max_payload` per frame.
    #[must_use]
    pub fn new(max_payload: usize) -> Self {
        Self { buf: Vec::new(), pos: 0, max_payload, dead: false }
    }

    /// Appends freshly read bytes. Bytes arriving after a violation are
    /// ignored (the caller is only draining toward close).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` while a started frame is incomplete — the caller's slow-loris
    /// clock should be running.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        !self.dead && self.buffered() > 0
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// [`ServerError::Protocol`] for bad magic or an unsupported version —
    /// the stream cannot be resynchronized; reply (request id 0) and close.
    pub fn next_event(&mut self) -> Result<Option<FrameEvent>, ServerError> {
        if self.dead || self.buffered() < FRAME_HEADER_BYTES {
            self.compact();
            return Ok(None);
        }
        let header = match parse_header(&self.buf[self.pos..]) {
            Ok(header) => header,
            Err(e) => {
                self.dead = true;
                return Err(e);
            }
        };
        if header.ensure_within(self.max_payload).is_err() {
            self.dead = true;
            return Ok(Some(FrameEvent::Oversized(header)));
        }
        if self.buffered() < FRAME_HEADER_BYTES + header.payload_len {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + FRAME_HEADER_BYTES;
        let payload = self.buf[start..start + header.payload_len].to_vec();
        self.pos = start + header.payload_len;
        self.compact();
        Ok(Some(FrameEvent::Frame(header, payload)))
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let frames = [
            Frame { op: Op::Compress, request_id: 1, payload: vec![9; 100] },
            Frame { op: Op::Stats, request_id: 2, payload: vec![] },
            Frame::error(3, ErrorCode::Busy, "later"),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut cursor = wire.as_slice();
        for frame in &frames {
            let (header, payload) = read_frame(&mut cursor, 1 << 20, 0).unwrap();
            assert_eq!(into_frame(header, payload).unwrap(), *frame);
        }
        // The stream is exactly consumed; one more read is a clean EOF.
        let err = read_frame(&mut cursor, 1 << 20, 0).unwrap_err();
        assert!(err.is_disconnect(), "{err}");
    }

    #[test]
    fn truncated_frames_are_mid_frame_eof() {
        let bytes = Frame { op: Op::Compress, request_id: 1, payload: vec![7; 32] }.encode();
        for len in [1, FRAME_HEADER_BYTES - 1, FRAME_HEADER_BYTES + 5] {
            let mut cursor = &bytes[..len];
            let err = read_frame(&mut cursor, 1 << 20, 0).unwrap_err();
            assert!(matches!(err, ServerError::Io(_)), "prefix of {len} bytes: {err}");
        }
    }

    #[test]
    fn oversized_payloads_fail_before_the_payload_reads() {
        let bytes = Frame { op: Op::Compress, request_id: 1, payload: vec![7; 64] }.encode();
        // Limit below the declared length: the strict reader must bail.
        let mut cursor = bytes.as_slice();
        let err = read_frame(&mut cursor, 16, 0).unwrap_err();
        assert!(matches!(err, ServerError::Protocol { code: ErrorCode::FrameTooLarge, .. }));
    }

    #[test]
    fn accumulator_reassembles_frames_from_any_chunking() {
        let frames = [
            Frame { op: Op::Compress, request_id: 1, payload: vec![9; 300] },
            Frame { op: Op::Stats, request_id: 2, payload: vec![] },
            Frame::error(3, ErrorCode::Busy, "later"),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&frame.encode());
        }
        for chunk in [1, 2, 7, 17, wire.len()] {
            let mut acc = FrameAccumulator::new(1 << 20);
            let mut seen = Vec::new();
            for piece in wire.chunks(chunk) {
                acc.push_bytes(piece);
                while let Some(event) = acc.next_event().unwrap() {
                    let FrameEvent::Frame(header, payload) = event else {
                        panic!("unexpected oversize")
                    };
                    seen.push(into_frame(header, payload).unwrap());
                }
            }
            assert_eq!(seen, frames, "chunk size {chunk}");
            assert_eq!(acc.buffered(), 0);
            assert!(!acc.mid_frame());
        }
    }

    #[test]
    fn accumulator_flags_mid_frame_and_recovers_between_frames() {
        let bytes = Frame { op: Op::Compress, request_id: 5, payload: vec![1; 40] }.encode();
        let mut acc = FrameAccumulator::new(1 << 20);
        acc.push_bytes(&bytes[..FRAME_HEADER_BYTES + 10]);
        assert!(acc.next_event().unwrap().is_none());
        assert!(acc.mid_frame(), "started frame, payload missing");
        acc.push_bytes(&bytes[FRAME_HEADER_BYTES + 10..]);
        assert!(matches!(acc.next_event().unwrap(), Some(FrameEvent::Frame(_, _))));
        assert!(!acc.mid_frame(), "boundary reached: the idle clock resets");
    }

    #[test]
    fn accumulator_reports_oversize_once_and_goes_dead() {
        let bytes = Frame { op: Op::Compress, request_id: 9, payload: vec![0; 64] }.encode();
        let mut acc = FrameAccumulator::new(16);
        acc.push_bytes(&bytes);
        match acc.next_event().unwrap() {
            Some(FrameEvent::Oversized(header)) => {
                assert_eq!(header.request_id, 9);
                assert_eq!(header.payload_len, 64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Dead: the boundary is lost, later bytes must not resurface frames.
        acc.push_bytes(&bytes);
        assert!(acc.next_event().unwrap().is_none());
        assert!(!acc.mid_frame());
    }

    #[test]
    fn accumulator_surfaces_header_violations_as_typed_errors() {
        let mut bad_magic = Frame { op: Op::Stats, request_id: 0, payload: vec![] }.encode();
        bad_magic[0] ^= 0xFF;
        let mut acc = FrameAccumulator::new(1 << 20);
        acc.push_bytes(&bad_magic);
        let err = acc.next_event().unwrap_err();
        assert!(matches!(err, ServerError::Protocol { code: ErrorCode::MalformedFrame, .. }));
        // Dead after the violation.
        acc.push_bytes(&Frame { op: Op::Stats, request_id: 1, payload: vec![] }.encode());
        assert!(acc.next_event().unwrap().is_none());

        let mut bad_version = Frame { op: Op::Stats, request_id: 0, payload: vec![] }.encode();
        bad_version[4] = 99;
        let mut acc = FrameAccumulator::new(1 << 20);
        acc.push_bytes(&bad_version);
        let err = acc.next_event().unwrap_err();
        assert!(matches!(err, ServerError::Protocol { code: ErrorCode::UnsupportedVersion, .. }));
    }
}
