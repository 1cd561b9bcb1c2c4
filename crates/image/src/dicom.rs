//! Minimal, dependency-free DICOM ingest for uncompressed little-endian
//! transfer syntaxes.
//!
//! Real studies arrive as DICOM Part 10 files, not PGM, so the corpus
//! harness needs just enough of the standard to pull pixel data out of the
//! common uncompressed encodings:
//!
//! * **Explicit VR Little Endian** (`1.2.840.10008.1.2.1`) and
//!   **Implicit VR Little Endian** (`1.2.840.10008.1.2`) — every other
//!   transfer syntax (all the compressed ones, big endian) is a typed
//!   [`ImageError::UnsupportedDicom`],
//! * single-frame and multi-frame monochrome pixel data, 8 or 16 bits
//!   allocated, 1–16 bits stored,
//! * signed pixel data (`PixelRepresentation == 1`): samples are
//!   sign-extended from *Bits Stored* and shifted by `+2^(bits_stored-1)`
//!   into the unsigned range [`Image`] requires; [`DicomImage::signed`]
//!   records the shift so callers can undo it,
//! * *Rescale Intercept*/*Slope* (`0028,1052`/`0028,1053`) are parsed and
//!   surfaced (they map stored values to modality units, e.g. Hounsfield),
//!   never applied — the codec compresses stored values.
//!
//! The parser follows the same discipline as the PGM reader: every length is
//! validated against the remaining stream **before** any allocation is sized
//! from it (decompression-bomb guard — the pixel buffer is only allocated
//! once a pixel-data slice of exactly the implied byte length is in hand),
//! structural problems surface as [`ImageError::MalformedDicom`], and
//! out-of-subset features as [`ImageError::UnsupportedDicom`] — never a
//! panic.
//!
//! [`encode`] is the matching fixture writer: it emits a well-formed Part 10
//! stream in either supported syntax, used by the corpus smoke tests and by
//! `reproduce corpus` to build an in-tree test corpus.

use crate::{Image, ImageError, ImageStack};
use std::io::{Read, Write};
use std::path::Path;

/// Transfer syntax UID for Explicit VR Little Endian.
pub const EXPLICIT_VR_LE: &str = "1.2.840.10008.1.2.1";

/// Transfer syntax UID for Implicit VR Little Endian.
pub const IMPLICIT_VR_LE: &str = "1.2.840.10008.1.2";

/// Byte length of the Part 10 preamble preceding the `DICM` magic.
const PREAMBLE_LEN: usize = 128;

/// A decoded DICOM object: the pixel data as an [`ImageStack`] (depth 1 for
/// single-frame objects) plus the attributes a codec or metrics harness
/// needs to interpret the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct DicomImage {
    /// The frames, slice-major, at `bits_stored` bit depth. Signed source
    /// samples are shifted by `+2^(bits_stored-1)` into the unsigned range.
    pub stack: ImageStack,
    /// *Bits Stored* (0028,0101): the nominal sample depth.
    pub bits_stored: u32,
    /// `true` if the source declared two's-complement pixels
    /// (*Pixel Representation* (0028,0103) = 1) and the samples were shifted.
    pub signed: bool,
    /// *Rescale Intercept* (0028,1052), 0.0 when absent.
    pub rescale_intercept: f64,
    /// *Rescale Slope* (0028,1053), 1.0 when absent.
    pub rescale_slope: f64,
    /// The transfer syntax UID the object was encoded with.
    pub transfer_syntax: String,
}

impl DicomImage {
    /// Consumes the object and returns its first (often only) frame as an
    /// [`Image`]. Slice 0 is moved, not copied; for a multi-frame object the
    /// buffer is truncated to that slice and shrunk, so the other frames are
    /// freed. Read [`DicomImage::stack`] first to keep them.
    ///
    /// # Errors
    ///
    /// Cannot fail for a parsed object (the stack always has a slice 0).
    pub fn frame0(self) -> Result<Image, ImageError> {
        Ok(self.stack.into_first_slice())
    }
}

/// Attribute values the element walk collects before pixel assembly.
#[derive(Default)]
struct Attributes {
    rows: Option<u16>,
    columns: Option<u16>,
    frames: Option<usize>,
    bits_allocated: Option<u16>,
    bits_stored: Option<u16>,
    pixel_representation: Option<u16>,
    rescale_intercept: Option<f64>,
    rescale_slope: Option<f64>,
    pixel_data: Option<std::ops::Range<usize>>,
}

fn malformed(msg: impl Into<String>) -> ImageError {
    ImageError::MalformedDicom(msg.into())
}

fn unsupported(msg: impl Into<String>) -> ImageError {
    ImageError::UnsupportedDicom(msg.into())
}

/// Bounds-checked little-endian cursor over the raw stream.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ImageError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "truncated stream: {what} needs {n} bytes but {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self, what: &str) -> Result<u16, ImageError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ImageError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// One parsed data element header plus the location of its value field.
struct Element {
    group: u16,
    element: u16,
    value: std::ops::Range<usize>,
}

/// VRs that use the 12-byte explicit header (2 reserved bytes + 32-bit
/// length) instead of the short 8-byte form.
fn is_long_vr(vr: &[u8]) -> bool {
    matches!(vr, b"OB" | b"OW" | b"OF" | b"SQ" | b"UT" | b"UN")
}

/// Reads one data element in the given encoding. `explicit` selects the
/// explicit-VR header layout. Undefined lengths (`0xFFFF_FFFF`, used by
/// encapsulated pixel data and undelimited sequences) are outside the
/// supported subset.
fn read_element(cursor: &mut Cursor<'_>, explicit: bool) -> Result<Element, ImageError> {
    let group = cursor.u16("element tag group")?;
    let element = cursor.u16("element tag number")?;
    let length = if explicit {
        let vr: [u8; 2] = cursor.take(2, "element VR")?.try_into().expect("2-byte VR");
        if !vr.iter().all(u8::is_ascii_uppercase) {
            return Err(malformed(format!(
                "implausible VR {:02X}{:02X} for element ({group:04X},{element:04X})",
                vr[0], vr[1]
            )));
        }
        if is_long_vr(&vr) {
            cursor.take(2, "long-VR reserved bytes")?;
            cursor.u32("element length")?
        } else {
            u32::from(cursor.u16("element length")?)
        }
    } else {
        cursor.u32("element length")?
    };
    if length == 0xFFFF_FFFF {
        return Err(unsupported(format!(
            "element ({group:04X},{element:04X}) has undefined length (encapsulated or \
             undelimited data)"
        )));
    }
    let length = length as usize;
    if cursor.remaining() < length {
        return Err(malformed(format!(
            "element ({group:04X},{element:04X}) claims {length} bytes but {} remain",
            cursor.remaining()
        )));
    }
    let start = cursor.pos;
    cursor.pos += length;
    Ok(Element { group, element, value: start..start + length })
}

/// Parses a decimal string (`IS`/`DS`) value field, tolerating the trailing
/// space/NUL padding DICOM uses to even out lengths.
fn decimal_text(bytes: &[u8]) -> Option<&str> {
    std::str::from_utf8(bytes).ok().map(|s| s.trim_matches(['\0', ' ']))
}

/// Parses a Part 10 DICOM stream into a [`DicomImage`].
///
/// # Errors
///
/// * [`ImageError::MalformedDicom`] for structural problems: missing `DICM`
///   magic, truncated element headers, lengths past the end of the stream,
///   a pixel module whose geometry and pixel-data size disagree,
/// * [`ImageError::UnsupportedDicom`] for well-formed streams outside the
///   subset: any transfer syntax other than explicit/implicit VR little
///   endian, undefined-length elements, bits allocated other than 8/16.
pub fn parse(bytes: &[u8]) -> Result<DicomImage, ImageError> {
    if bytes.len() < PREAMBLE_LEN + 4 || &bytes[PREAMBLE_LEN..PREAMBLE_LEN + 4] != b"DICM" {
        return Err(malformed("missing DICM magic after the 128-byte preamble"));
    }
    let mut cursor = Cursor { bytes, pos: PREAMBLE_LEN + 4 };

    // File meta information (group 0002) is always explicit VR little
    // endian, whatever the dataset uses. Walk it until the group changes.
    let mut transfer_syntax: Option<String> = None;
    loop {
        if cursor.remaining() == 0 {
            return Err(malformed("stream ends inside the file meta group"));
        }
        let peek = &bytes[cursor.pos..];
        if peek.len() < 2 || u16::from_le_bytes([peek[0], peek[1]]) != 0x0002 {
            break;
        }
        let element = read_element(&mut cursor, true)?;
        if (element.group, element.element) == (0x0002, 0x0010) {
            let uid = decimal_text(&bytes[element.value])
                .ok_or_else(|| malformed("transfer syntax UID is not ASCII"))?;
            transfer_syntax = Some(uid.to_owned());
        }
    }
    let transfer_syntax =
        transfer_syntax.ok_or_else(|| malformed("file meta group lacks a transfer syntax UID"))?;
    let explicit = match transfer_syntax.as_str() {
        EXPLICIT_VR_LE => true,
        IMPLICIT_VR_LE => false,
        other => {
            return Err(unsupported(format!(
                "transfer syntax {other} (only uncompressed little-endian syntaxes are read)"
            )))
        }
    };

    // Dataset walk: collect the pixel-module attributes, skip everything
    // else by length.
    let mut attrs = Attributes::default();
    while cursor.remaining() > 0 {
        let element = read_element(&mut cursor, explicit)?;
        let value = &bytes[element.value.clone()];
        let us = || -> Result<u16, ImageError> {
            let b: [u8; 2] = value.try_into().map_err(|_| {
                malformed(format!(
                    "element ({:04X},{:04X}) holds {} bytes, expected a 2-byte US",
                    element.group,
                    element.element,
                    value.len()
                ))
            })?;
            Ok(u16::from_le_bytes(b))
        };
        match (element.group, element.element) {
            (0x0028, 0x0008) => {
                let text = decimal_text(value)
                    .ok_or_else(|| malformed("number of frames is not ASCII"))?;
                let frames: usize = text
                    .trim()
                    .parse()
                    .map_err(|_| malformed(format!("implausible number of frames {text:?}")))?;
                attrs.frames = Some(frames);
            }
            (0x0028, 0x0010) => attrs.rows = Some(us()?),
            (0x0028, 0x0011) => attrs.columns = Some(us()?),
            (0x0028, 0x0100) => attrs.bits_allocated = Some(us()?),
            (0x0028, 0x0101) => attrs.bits_stored = Some(us()?),
            (0x0028, 0x0103) => attrs.pixel_representation = Some(us()?),
            (0x0028, 0x1052) => {
                let text = decimal_text(value)
                    .ok_or_else(|| malformed("rescale intercept is not ASCII"))?;
                attrs.rescale_intercept =
                    Some(text.trim().parse().map_err(|_| {
                        malformed(format!("implausible rescale intercept {text:?}"))
                    })?);
            }
            (0x0028, 0x1053) => {
                let text =
                    decimal_text(value).ok_or_else(|| malformed("rescale slope is not ASCII"))?;
                attrs.rescale_slope = Some(
                    text.trim()
                        .parse()
                        .map_err(|_| malformed(format!("implausible rescale slope {text:?}")))?,
                );
            }
            (0x7FE0, 0x0010) => attrs.pixel_data = Some(element.value),
            _ => {}
        }
    }
    assemble(bytes, &attrs, transfer_syntax)
}

/// Validates the collected pixel module and decodes the pixel data.
fn assemble(
    bytes: &[u8],
    attrs: &Attributes,
    transfer_syntax: String,
) -> Result<DicomImage, ImageError> {
    let require = |field: Option<u16>, name: &str| {
        field.ok_or_else(|| malformed(format!("pixel module lacks {name}")))
    };
    let rows = usize::from(require(attrs.rows, "Rows (0028,0010)")?);
    let columns = usize::from(require(attrs.columns, "Columns (0028,0011)")?);
    let bits_allocated = u32::from(require(attrs.bits_allocated, "Bits Allocated (0028,0100)")?);
    let bits_stored = attrs.bits_stored.map_or(bits_allocated, u32::from).min(u32::from(u16::MAX));
    let signed = attrs.pixel_representation.unwrap_or(0) == 1;
    let frames = attrs.frames.unwrap_or(1);
    let pixel_range = attrs
        .pixel_data
        .clone()
        .ok_or_else(|| malformed("dataset lacks Pixel Data (7FE0,0010)"))?;

    if rows == 0 || columns == 0 || frames == 0 {
        return Err(malformed(format!("zero-sized pixel matrix {columns}x{rows}x{frames}")));
    }
    if bits_allocated != 8 && bits_allocated != 16 {
        return Err(unsupported(format!(
            "{bits_allocated} bits allocated (only 8 and 16 are read)"
        )));
    }
    if bits_stored == 0 || bits_stored > bits_allocated || bits_stored > 16 {
        return Err(malformed(format!(
            "{bits_stored} bits stored does not fit {bits_allocated} bits allocated"
        )));
    }
    let bytes_per_sample = (bits_allocated / 8) as usize;
    let expected = rows
        .checked_mul(columns)
        .and_then(|p| p.checked_mul(frames))
        .and_then(|p| p.checked_mul(bytes_per_sample))
        .ok_or_else(|| {
            malformed(format!("pixel matrix {columns}x{rows}x{frames} overflows addressing"))
        })?;
    let pixel_bytes = &bytes[pixel_range];
    // DICOM pads value fields to even length; tolerate exactly one pad byte.
    if pixel_bytes.len() != expected && !(expected % 2 == 1 && pixel_bytes.len() == expected + 1) {
        return Err(malformed(format!(
            "pixel data holds {} bytes but {columns}x{rows}x{frames} at {bits_allocated} bits \
             allocated needs {expected}",
            pixel_bytes.len()
        )));
    }
    let pixel_bytes = &pixel_bytes[..expected];

    // Only now — with a pixel slice of exactly the implied size in hand — is
    // the sample buffer allocated. Widening masks to Bits Stored and, for
    // signed data, sign-extends from it and adds 2^(bits_stored-1), so every
    // sample lands in [0, 2^bits_stored) by construction and the stack needs
    // no range pass.
    let samples: Vec<i32> = if bytes_per_sample == 1 {
        widen(pixel_bytes.iter().map(|&b| u32::from(b)), bits_stored, signed)
    } else {
        let raw = pixel_bytes.chunks_exact(2).map(|p| u32::from(u16::from_le_bytes([p[0], p[1]])));
        widen(raw, bits_stored, signed)
    };
    let stack = ImageStack::from_checked_parts(columns, rows, frames, bits_stored, samples);
    Ok(DicomImage {
        stack,
        bits_stored,
        signed,
        rescale_intercept: attrs.rescale_intercept.unwrap_or(0.0),
        rescale_slope: attrs.rescale_slope.unwrap_or(1.0),
        transfer_syntax,
    })
}

/// Maps raw stored words to unsigned samples of `bits_stored` (1–16) bits:
/// the word is masked to Bits Stored; a signed word is sign-extended from
/// that width and shifted up by `2^(bits_stored-1)`. Either way the result
/// lies in `[0, 2^bits_stored)`.
fn widen(raw: impl ExactSizeIterator<Item = u32>, bits_stored: u32, signed: bool) -> Vec<i32> {
    let shift = 32 - bits_stored;
    if signed {
        let offset = 1i32 << (bits_stored - 1);
        raw.map(|word| (((word << shift) as i32) >> shift) + offset).collect()
    } else {
        let mask = u32::MAX >> shift;
        raw.map(|word| (word & mask) as i32).collect()
    }
}

/// Reads and parses a DICOM stream from `reader`.
///
/// # Errors
///
/// See [`parse`]; additionally [`ImageError::Io`] for read failures.
pub fn read_dicom<R: Read>(mut reader: R) -> Result<DicomImage, ImageError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse(&bytes)
}

/// Loads a DICOM file from `path`.
///
/// # Errors
///
/// See [`read_dicom`].
pub fn load<P: AsRef<Path>>(path: P) -> Result<DicomImage, ImageError> {
    read_dicom(std::fs::File::open(path)?)
}

/// `true` if `bytes` carries the Part 10 `DICM` magic — the cheap router
/// between DICOM and PGM inputs in the corpus walker.
#[must_use]
pub fn is_dicom(bytes: &[u8]) -> bool {
    bytes.len() >= PREAMBLE_LEN + 4 && &bytes[PREAMBLE_LEN..PREAMBLE_LEN + 4] == b"DICM"
}

/// Appends one data element in the chosen encoding, padding odd-length
/// values with a NUL byte as Part 5 requires.
fn put_element(out: &mut Vec<u8>, explicit: bool, tag: (u16, u16), vr: &[u8; 2], value: &[u8]) {
    out.extend_from_slice(&tag.0.to_le_bytes());
    out.extend_from_slice(&tag.1.to_le_bytes());
    let padded = value.len() + value.len() % 2;
    if explicit {
        out.extend_from_slice(vr);
        if is_long_vr(vr) {
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(&(padded as u32).to_le_bytes());
        } else {
            out.extend_from_slice(&(padded as u16).to_le_bytes());
        }
    } else {
        out.extend_from_slice(&(padded as u32).to_le_bytes());
    }
    out.extend_from_slice(value);
    if value.len() % 2 == 1 {
        out.push(0);
    }
}

/// Serializes `stack` as a minimal monochrome Part 10 stream — the fixture
/// writer behind the in-tree corpus and the ingest tests. `explicit` selects
/// the transfer syntax; with `signed` the samples are shifted down by
/// `2^(bits_stored-1)` and stored two's complement, exactly inverting what
/// [`parse`] does on ingest.
///
/// # Errors
///
/// Returns [`ImageError::InvalidDimensions`] if a stack dimension exceeds
/// the 16-bit Rows/Columns fields.
pub fn encode(stack: &ImageStack, explicit: bool, signed: bool) -> Result<Vec<u8>, ImageError> {
    if stack.width() > usize::from(u16::MAX) || stack.height() > usize::from(u16::MAX) {
        return Err(ImageError::InvalidDimensions {
            width: stack.width(),
            height: stack.height(),
            samples: stack.voxel_count(),
        });
    }
    let syntax = if explicit { EXPLICIT_VR_LE } else { IMPLICIT_VR_LE };
    let bits_stored = stack.bit_depth();
    let bits_allocated: u16 = if bits_stored <= 8 { 8 } else { 16 };

    let mut out = vec![0u8; PREAMBLE_LEN];
    out.extend_from_slice(b"DICM");
    // File meta group (always explicit VR): group length, then the transfer
    // syntax UID the dataset uses.
    let mut meta = Vec::new();
    put_element(&mut meta, true, (0x0002, 0x0010), b"UI", syntax.as_bytes());
    put_element(&mut out, true, (0x0002, 0x0000), b"UL", &(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta);

    let us = |v: u16| v.to_le_bytes();
    if stack.depth() > 1 {
        let frames = stack.depth().to_string();
        put_element(&mut out, explicit, (0x0028, 0x0008), b"IS", frames.as_bytes());
    }
    put_element(&mut out, explicit, (0x0028, 0x0010), b"US", &us(stack.height() as u16));
    put_element(&mut out, explicit, (0x0028, 0x0011), b"US", &us(stack.width() as u16));
    put_element(&mut out, explicit, (0x0028, 0x0100), b"US", &us(bits_allocated));
    put_element(&mut out, explicit, (0x0028, 0x0101), b"US", &us(bits_stored as u16));
    put_element(&mut out, explicit, (0x0028, 0x0102), b"US", &us(bits_stored as u16 - 1));
    put_element(&mut out, explicit, (0x0028, 0x0103), b"US", &us(u16::from(signed)));

    let offset = if signed { 1i32 << (bits_stored - 1) } else { 0 };
    let mask = if bits_allocated == 8 { 0xFFu32 } else { 0xFFFFu32 };
    let mut pixels = Vec::with_capacity(stack.voxel_count() * usize::from(bits_allocated / 8));
    for &sample in stack.samples() {
        let stored = ((sample - offset) as u32) & mask;
        if bits_allocated == 8 {
            pixels.push(stored as u8);
        } else {
            pixels.extend_from_slice(&(stored as u16).to_le_bytes());
        }
    }
    put_element(&mut out, explicit, (0x7FE0, 0x0010), b"OW", &pixels);
    Ok(out)
}

/// Writes `stack` as a DICOM file at `path`; see [`encode`].
///
/// # Errors
///
/// See [`encode`]; additionally [`ImageError::Io`] for write failures.
pub fn save<P: AsRef<Path>>(
    path: P,
    stack: &ImageStack,
    explicit: bool,
    signed: bool,
) -> Result<(), ImageError> {
    let bytes = encode(stack, explicit, signed)?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn sample_stack(depth: usize) -> ImageStack {
        let slices: Vec<Image> =
            (0..depth).map(|z| synth::ct_phantom(40, 30, 12, z as u64)).collect();
        ImageStack::from_slices(&slices).unwrap()
    }

    #[test]
    fn explicit_and_implicit_roundtrips_are_exact() {
        let stack = sample_stack(1);
        for explicit in [true, false] {
            let bytes = encode(&stack, explicit, false).unwrap();
            assert!(is_dicom(&bytes));
            let parsed = parse(&bytes).unwrap();
            assert_eq!(parsed.stack, stack, "explicit={explicit}");
            assert_eq!(parsed.bits_stored, 12);
            assert!(!parsed.signed);
            assert_eq!(
                parsed.transfer_syntax,
                if explicit { EXPLICIT_VR_LE } else { IMPLICIT_VR_LE }
            );
        }
    }

    #[test]
    fn multi_frame_objects_become_stacks() {
        let stack = sample_stack(5);
        let bytes = encode(&stack, true, false).unwrap();
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.stack.depth(), 5);
        assert_eq!(parsed.stack, stack);
    }

    #[test]
    fn signed_pixels_shift_into_the_unsigned_range_and_back() {
        let stack = sample_stack(1);
        for explicit in [true, false] {
            let bytes = encode(&stack, explicit, true).unwrap();
            let parsed = parse(&bytes).unwrap();
            assert!(parsed.signed);
            // encode shifts down, parse shifts back: samples survive exactly.
            assert_eq!(parsed.stack, stack, "explicit={explicit}");
        }
    }

    #[test]
    fn eight_bit_objects_roundtrip() {
        let image = synth::random_image(17, 9, 8, 3);
        let stack = ImageStack::from_slices(std::slice::from_ref(&image)).unwrap();
        let bytes = encode(&stack, true, false).unwrap();
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.stack, stack);
        // 17x9 = 153 bytes of pixels: odd, so the value field carries a pad
        // byte the parser must tolerate.
        let back = parsed.frame0().unwrap();
        assert_eq!(back.samples(), image.samples());
    }

    #[test]
    fn rescale_attributes_are_surfaced_not_applied() {
        let stack = sample_stack(1);
        let mut bytes = encode(&stack, true, false).unwrap();
        // Splice a rescale intercept/slope pair in front of the pixel data
        // element (tags stay ascending: 0028,1052 < 7FE0,0010).
        let pixel_tag = [0xE0u8, 0x7F, 0x10, 0x00];
        let at = (0..bytes.len() - 4).find(|&i| bytes[i..i + 4] == pixel_tag).unwrap();
        let mut extra = Vec::new();
        put_element(&mut extra, true, (0x0028, 0x1052), b"DS", b"-1024");
        put_element(&mut extra, true, (0x0028, 0x1053), b"DS", b"1.5");
        bytes.splice(at..at, extra);
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.rescale_intercept, -1024.0);
        assert_eq!(parsed.rescale_slope, 1.5);
        assert_eq!(parsed.stack, stack, "stored values are untouched");
    }

    #[test]
    fn non_dicom_streams_are_rejected_cheaply() {
        assert!(!is_dicom(&[]));
        assert!(!is_dicom(b"P5 2 2 255"));
        assert!(matches!(parse(&[]), Err(ImageError::MalformedDicom(_))));
        let mut no_magic = vec![0u8; 200];
        no_magic[128..132].copy_from_slice(b"DICX");
        assert!(matches!(parse(&no_magic), Err(ImageError::MalformedDicom(_))));
    }

    #[test]
    fn unsupported_transfer_syntaxes_are_typed_errors() {
        let stack = sample_stack(1);
        let mut bytes = encode(&stack, true, false).unwrap();
        // The fixture writes the UID at a known spot; forge a JPEG-LS UID of
        // equal length ("1.2.840.10008.1.2.4.80__" won't fit, so rewrite the
        // element wholesale).
        let uid = EXPLICIT_VR_LE.as_bytes();
        let at = (0..bytes.len() - uid.len()).find(|&i| &bytes[i..i + uid.len()] == uid).unwrap();
        bytes[at..at + uid.len()].copy_from_slice(b"1.2.840.10008.1.2.4"); // same length
        match parse(&bytes) {
            Err(ImageError::UnsupportedDicom(msg)) => {
                assert!(msg.contains("transfer syntax"), "{msg}");
            }
            other => panic!("expected UnsupportedDicom, got {other:?}"),
        }
    }

    #[test]
    fn truncations_at_every_boundary_are_typed_errors() {
        let stack = sample_stack(2);
        let bytes = encode(&stack, true, false).unwrap();
        for len in [0, 64, 131, 132, 140, 160, bytes.len() / 2, bytes.len() - 1] {
            match parse(&bytes[..len.min(bytes.len())]) {
                Err(ImageError::MalformedDicom(_)) => {}
                other => panic!("prefix of {len} bytes: expected MalformedDicom, got {other:?}"),
            }
        }
    }

    #[test]
    fn forged_lengths_and_dimensions_are_rejected_before_allocation() {
        let stack = sample_stack(1);
        let bytes = encode(&stack, true, false).unwrap();
        // Forge the pixel-data element length to claim bytes past the end.
        let pixel_tag = [0xE0u8, 0x7F, 0x10, 0x00];
        let at = (0..bytes.len() - 4).find(|&i| bytes[i..i + 4] == pixel_tag).unwrap();
        let mut forged = bytes.clone();
        forged[at + 8..at + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse(&forged), Err(ImageError::UnsupportedDicom(_))), "undefined len");
        let mut forged = bytes.clone();
        forged[at + 8..at + 12].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        match parse(&forged) {
            Err(ImageError::MalformedDicom(msg)) => assert!(msg.contains("claims"), "{msg}"),
            other => panic!("expected MalformedDicom, got {other:?}"),
        }
        // Forge Rows to zero: geometry must be rejected, not allocated.
        let rows_tag = [0x28u8, 0x00, 0x10, 0x00];
        let at = (0..bytes.len() - 4).find(|&i| bytes[i..i + 4] == rows_tag).unwrap();
        let mut forged = bytes.clone();
        forged[at + 8..at + 10].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(parse(&forged), Err(ImageError::MalformedDicom(_))));
        // Forge Rows huge: the geometry/pixel-length consistency check fires.
        let mut forged = bytes;
        forged[at + 8..at + 10].copy_from_slice(&u16::MAX.to_le_bytes());
        match parse(&forged) {
            Err(ImageError::MalformedDicom(msg)) => assert!(msg.contains("pixel"), "{msg}"),
            other => panic!("expected MalformedDicom, got {other:?}"),
        }
    }

    #[test]
    fn frame0_of_a_multi_frame_object_is_slice_0_exactly() {
        let stack = sample_stack(3);
        let parsed = parse(&encode(&stack, true, false).unwrap()).unwrap();
        let slice0 = parsed.stack.slice_image(0).unwrap();
        assert_eq!(slice0, stack.slice_image(0).unwrap());
        assert_eq!(parsed.frame0().unwrap(), slice0);
    }

    /// Byte offset of the value field of the first element tagged `tag`
    /// (both syntaxes put it 8 bytes past the tag for a short value).
    fn value_offset(bytes: &[u8], tag: (u16, u16)) -> usize {
        let mut pattern = tag.0.to_le_bytes().to_vec();
        pattern.extend_from_slice(&tag.1.to_le_bytes());
        (PREAMBLE_LEN..bytes.len() - 4).find(|&i| bytes[i..i + 4] == pattern[..]).unwrap() + 8
    }

    /// Parses `bytes`, which must not panic, and checks the invariant the
    /// stack construction relies on instead of a range pass: every sample of
    /// an `Ok` object lies in `[0, 2^bits_stored)`.
    fn parse_within_bits_stored(bytes: &[u8], what: &str) {
        if let Ok(parsed) = parse(bytes) {
            assert_eq!(parsed.stack.bit_depth(), parsed.bits_stored, "{what}");
            let end = 1i32 << parsed.bits_stored;
            if let Some(v) = parsed.stack.samples().iter().find(|v| !(0..end).contains(*v)) {
                panic!("{what}: sample {v} outside [0, {end}) at {} bits", parsed.bits_stored);
            }
        }
    }

    /// Objects at every Bits Stored 1–16, signed and unsigned, in both
    /// syntaxes, with 8 and 16 bits allocated: every bit of the meta group
    /// and the pixel-module elements flipped, and every truncation, parses
    /// to a typed error or to samples inside `[0, 2^bits_stored)`, never a
    /// panic.
    #[test]
    fn flipped_and_truncated_headers_never_panic_and_stay_in_range() {
        for explicit in [true, false] {
            for signed in [false, true] {
                for bits_stored in 1..=16u32 {
                    // Natively coded: 8 bits allocated up to 8 stored.
                    let slices: Vec<Image> = (0..2)
                        .map(|z| synth::random_image(5, 3, bits_stored, u64::from(bits_stored) + z))
                        .collect();
                    let native = ImageStack::from_slices(&slices).unwrap();
                    let mut objects = vec![encode(&native, explicit, signed).unwrap()];
                    if bits_stored <= 8 {
                        // 16 bits allocated with fewer stored: the words
                        // carry bits above Bits Stored, which must be masked.
                        let wide: Vec<Image> =
                            (0..2).map(|z| synth::random_image(5, 3, 16, 40 + z)).collect();
                        let mut bytes =
                            encode(&ImageStack::from_slices(&wide).unwrap(), explicit, signed)
                                .unwrap();
                        let at = value_offset(&bytes, (0x0028, 0x0101));
                        bytes[at..at + 2].copy_from_slice(&(bits_stored as u16).to_le_bytes());
                        objects.push(bytes);
                    }
                    for bytes in &objects {
                        let what =
                            format!("explicit {explicit} signed {signed} {bits_stored} bits");
                        let parsed = parse(bytes).unwrap();
                        assert_eq!((parsed.bits_stored, parsed.signed), (bits_stored, signed));
                        parse_within_bits_stored(bytes, &what);
                        let pixels = value_offset(bytes, (0x7FE0, 0x0010));
                        for at in PREAMBLE_LEN..pixels {
                            for bit in 0..8 {
                                let mut flipped = bytes.clone();
                                flipped[at] ^= 1 << bit;
                                parse_within_bits_stored(
                                    &flipped,
                                    &format!("{what}, flip {at}.{bit}"),
                                );
                            }
                        }
                        for len in 0..bytes.len() {
                            parse_within_bits_stored(&bytes[..len], &format!("{what}, cut {len}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn missing_pixel_module_attributes_are_named() {
        // A dataset with only the meta group and pixel data: the first
        // missing attribute (Rows) is called out by name.
        let mut bytes = vec![0u8; PREAMBLE_LEN];
        bytes.extend_from_slice(b"DICM");
        let mut meta = Vec::new();
        put_element(&mut meta, true, (0x0002, 0x0010), b"UI", EXPLICIT_VR_LE.as_bytes());
        put_element(&mut bytes, true, (0x0002, 0x0000), b"UL", &(meta.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&meta);
        put_element(&mut bytes, true, (0x7FE0, 0x0010), b"OW", &[0, 0]);
        match parse(&bytes) {
            Err(ImageError::MalformedDicom(msg)) => assert!(msg.contains("Rows"), "{msg}"),
            other => panic!("expected MalformedDicom, got {other:?}"),
        }
    }
}
