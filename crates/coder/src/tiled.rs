//! The versioned tiled container format (`LWCT`).
//!
//! A tiled stream wraps one independent [`LosslessCodec`](crate::LosslessCodec)
//! stream per tile of a [`TileGrid`] behind a fixed header and a per-tile
//! byte-offset directory, so tiles can be encoded, decoded and seeked
//! independently — the format backbone of the tile-parallel engine in
//! `lwc-pipeline`. Layout (all fields most-significant-bit first, written
//! with [`BitWriter`]; every field is a whole number of bits and the header
//! is a whole number of bytes):
//!
//! ```text
//! offset  field
//! 0       magic          32 bits  0x4C574354 ("LWCT")
//! 4       version         8 bits  1 = lossless, 2 = near-lossless
//! 5       image width    32 bits  pixels, >= 1
//! 9       image height   32 bits  pixels, >= 1
//! 13      bit depth       8 bits  1..=16
//! 14      scales          8 bits  1..=15 (the per-tile streams' depth)
//! 15      tile width     32 bits  1..=2^20 - 1, clipped to the image
//! 19      tile height    32 bits  1..=2^20 - 1, clipped to the image
//! 23      delta           8 bits  version 2 only: per-pixel bound, >= 1
//! 23/24   directory      (tile_count + 1) x 48-bit byte offsets
//! ...     payloads       tile_count concatenated LWC1/LWCQ streams
//! ```
//!
//! Version 2 appends a single quantizer byte: the near-lossless per-pixel
//! error bound `δ` every per-tile stream was encoded with (the per-tile
//! `LWCQ` headers carry the same value; the decoder cross-checks them). A
//! `δ = 0` engine writes version 1 with no delta byte — byte-identical to
//! every pre-near-lossless container — so a version-2 header whose delta is
//! zero is malformed by definition.
//!
//! `tile_count` is derived from the grid geometry, never stored. Directory
//! entry `i` is the absolute byte offset of tile `i`'s payload (row-major
//! tile order); the final entry is the total stream length, so tile `i`
//! occupies `bytes[offsets[i]..offsets[i + 1]]` and truncation or trailing
//! garbage is detectable. Tile dimensions are bounded by the inner format's
//! 20-bit fields; the outer 32-bit image dimensions are what lift the
//! whole-image limit — a 16k x 16k CR plate simply becomes a few thousand
//! independently coded tiles.
//!
//! Single-tile images are **not** wrapped: the engine emits the legacy
//! [`LWC1`](crate::StreamHeader) stream unchanged (byte-identical to
//! [`LosslessCodec::compress`](crate::LosslessCodec::compress)), and the
//! decoder sniffs the magic to route between the two formats, keeping every
//! pre-tiling stream readable.

use crate::bitio::{BitReader, BitWriter};
use crate::CoderError;
use lwc_image::TileGrid;

/// Magic number identifying a tiled `lwc` container ("LWCT").
pub const TILED_MAGIC: u32 = 0x4C57_4354;

/// The lossless container version (no quantizer field).
pub const TILED_VERSION: u8 = 1;

/// The near-lossless container version: the version-1 layout plus one
/// quantizer delta byte.
pub const TILED_QUANT_VERSION: u8 = 2;

/// Serialized size of the fixed version-1 tiled header, in bytes; a
/// version-2 header is one byte longer (see
/// [`TiledHeader::serialized_bytes`]).
pub const TILED_HEADER_BYTES: usize = 23;

/// Bits per directory entry (a 48-bit byte offset: containers beyond 256 TB
/// are out of scope). Shared with the fixed-path `LWCF` and volumetric
/// `LWCV` containers, which use the identical directory layout.
pub(crate) const OFFSET_BITS: u32 = 48;

/// Appends the `(payloads.len() + 1)`-entry 48-bit byte-offset directory and
/// the concatenated payloads to a writer that already holds a
/// `header_bytes`-byte container header. Shared by the `LWCT` and `LWCF`
/// writers so both formats' directories are one implementation.
pub(crate) fn append_directory_and_payloads(
    mut writer: BitWriter,
    header_bytes: usize,
    payloads: &[Vec<u8>],
) -> Vec<u8> {
    let directory_bytes = (payloads.len() + 1) * (OFFSET_BITS as usize / 8);
    let mut offset = header_bytes + directory_bytes;
    for payload in payloads {
        writer.write_bits(offset as u64, OFFSET_BITS);
        offset += payload.len();
    }
    writer.write_bits(offset as u64, OFFSET_BITS);
    let mut bytes = writer.into_bytes();
    debug_assert_eq!(bytes.len(), header_bytes + directory_bytes);
    bytes.reserve(offset - bytes.len());
    for payload in payloads {
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// Reads and cross-validates a tile directory of `claimed` tiles: first
/// bounds the entry count by what `stream_len` bytes can physically hold
/// (the header fields are attacker controlled — nothing is allocated from
/// them before this check), then verifies that the offsets start exactly at
/// the end of the directory, never decrease, and end exactly at the stream's
/// last byte. Shared by the `LWCT` and `LWCF` parsers.
pub(crate) fn read_directory(
    reader: &mut BitReader<'_>,
    stream_len: usize,
    header_bytes: usize,
    claimed: u128,
) -> Result<Vec<u64>, CoderError> {
    let entry_bytes = OFFSET_BITS as usize / 8;
    let available = (stream_len.saturating_sub(header_bytes) / entry_bytes) as u128;
    if claimed + 1 > available {
        return Err(CoderError::MalformedStream(format!(
            "tile directory needs {} entries but at most {available} fit the stream",
            claimed + 1
        )));
    }
    let tile_count = claimed as usize;
    let mut offsets = Vec::with_capacity(tile_count + 1);
    for index in 0..=tile_count {
        let offset = reader.read_bits(OFFSET_BITS).map_err(|_| {
            CoderError::MalformedStream(format!(
                "truncated tile directory: missing offset {index} of {}",
                tile_count + 1
            ))
        })?;
        offsets.push(offset);
    }
    let payload_start = (header_bytes + (tile_count + 1) * entry_bytes) as u64;
    if offsets[0] != payload_start {
        return Err(CoderError::MalformedStream(format!(
            "tile directory starts payloads at byte {} but the header implies {payload_start}",
            offsets[0]
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(CoderError::MalformedStream(
            "tile directory offsets are not monotonically non-decreasing".to_owned(),
        ));
    }
    if *offsets.last().expect("tile_count + 1 >= 1 offsets") != stream_len as u64 {
        return Err(CoderError::MalformedStream(format!(
            "tile directory ends payloads at byte {} but the container holds {} bytes",
            offsets.last().expect("nonempty"),
            stream_len
        )));
    }
    Ok(offsets)
}

/// Parsed fixed-size header of a tiled container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiledHeader {
    /// Full image width in pixels.
    pub width: usize,
    /// Full image height in pixels.
    pub height: usize,
    /// Nominal bit depth of the pixels.
    pub bit_depth: u32,
    /// Decomposition depth of every per-tile stream.
    pub scales: u32,
    /// Nominal (interior) tile width in pixels.
    pub tile_width: usize,
    /// Nominal (interior) tile height in pixels.
    pub tile_height: usize,
    /// Near-lossless per-pixel error bound of every per-tile stream; 0 means
    /// lossless (serialized as version 1 with no quantizer byte).
    pub delta: u8,
}

impl TiledHeader {
    /// Serialized header size in bytes: [`TILED_HEADER_BYTES`] for a
    /// lossless header, one quantizer byte more for a near-lossless one.
    #[must_use]
    pub fn serialized_bytes(&self) -> usize {
        if self.delta == 0 {
            TILED_HEADER_BYTES
        } else {
            TILED_HEADER_BYTES + 1
        }
    }

    /// The tile grid this header describes.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the geometry is invalid
    /// (zero dimensions).
    pub fn grid(&self) -> Result<TileGrid, CoderError> {
        TileGrid::new(self.width, self.height, self.tile_width, self.tile_height).map_err(|e| {
            CoderError::MalformedStream(format!("invalid tile geometry in header: {e}"))
        })
    }

    /// Validates the field ranges the writer enforces.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] or
    /// [`CoderError::UnsupportedFormat`] for out-of-range fields.
    pub fn validate(&self) -> Result<(), CoderError> {
        if self.width == 0 || self.height == 0 {
            return Err(CoderError::MalformedStream(format!(
                "implausible image dimensions {}x{}",
                self.width, self.height
            )));
        }
        if self.tile_width == 0 || self.tile_height == 0 {
            return Err(CoderError::MalformedStream("zero tile dimensions".to_owned()));
        }
        if self.tile_width >= (1 << 20) || self.tile_height >= (1 << 20) {
            return Err(CoderError::UnsupportedFormat(format!(
                "tile dimensions {}x{} exceed the per-tile stream format's 20-bit fields",
                self.tile_width, self.tile_height
            )));
        }
        if self.bit_depth == 0 || self.bit_depth > 16 {
            return Err(CoderError::MalformedStream(format!(
                "unsupported bit depth {}",
                self.bit_depth
            )));
        }
        if self.scales == 0 || self.scales >= (1 << 4) {
            return Err(CoderError::MalformedStream(format!(
                "unsupported scale count {}",
                self.scales
            )));
        }
        Ok(())
    }

    /// Serializes the header (fails validation first, so a malformed header
    /// can never be written).
    ///
    /// # Errors
    ///
    /// See [`TiledHeader::validate`]; additionally rejects images whose
    /// dimensions exceed the 32-bit header fields.
    pub fn write(&self, writer: &mut BitWriter) -> Result<(), CoderError> {
        self.validate()?;
        if self.width > u32::MAX as usize || self.height > u32::MAX as usize {
            return Err(CoderError::UnsupportedFormat(format!(
                "image dimensions {}x{} exceed the container's 32-bit fields",
                self.width, self.height
            )));
        }
        let version = if self.delta == 0 { TILED_VERSION } else { TILED_QUANT_VERSION };
        writer.write_bits(u64::from(TILED_MAGIC), 32);
        writer.write_bits(u64::from(version), 8);
        writer.write_bits(self.width as u64, 32);
        writer.write_bits(self.height as u64, 32);
        writer.write_bits(u64::from(self.bit_depth), 8);
        writer.write_bits(u64::from(self.scales), 8);
        writer.write_bits(self.tile_width as u64, 32);
        writer.write_bits(self.tile_height as u64, 32);
        if self.delta != 0 {
            writer.write_bits(u64::from(self.delta), 8);
        }
        Ok(())
    }

    /// Reads and validates a header.
    ///
    /// # Errors
    ///
    /// * [`CoderError::MalformedStream`] if the stream ends inside the header
    ///   or a field is out of range.
    /// * [`CoderError::UnsupportedFormat`] for a wrong magic number or an
    ///   unknown (newer) container version.
    pub fn read(reader: &mut BitReader<'_>) -> Result<Self, CoderError> {
        let mut field = |bits: u32, name: &str| {
            reader.read_bits(bits).map_err(|_| {
                CoderError::MalformedStream(format!("truncated tiled header: missing {name}"))
            })
        };
        let magic = field(32, "magic")?;
        if magic as u32 != TILED_MAGIC {
            return Err(CoderError::UnsupportedFormat("bad tiled magic number".to_owned()));
        }
        let version = field(8, "version")? as u8;
        if version != TILED_VERSION && version != TILED_QUANT_VERSION {
            return Err(CoderError::UnsupportedFormat(format!(
                "tiled container version {version} is not supported (this build reads \
                 {TILED_VERSION} and {TILED_QUANT_VERSION})"
            )));
        }
        let mut header = Self {
            width: field(32, "width")? as usize,
            height: field(32, "height")? as usize,
            bit_depth: field(8, "bit depth")? as u32,
            scales: field(8, "scale count")? as u32,
            tile_width: field(32, "tile width")? as usize,
            tile_height: field(32, "tile height")? as usize,
            delta: 0,
        };
        if version == TILED_QUANT_VERSION {
            header.delta = field(8, "quantizer delta")? as u8;
            if header.delta == 0 {
                return Err(CoderError::MalformedStream(
                    "malformed quantizer header: near-lossless container version with zero delta"
                        .to_owned(),
                ));
            }
        }
        header.validate()?;
        Ok(header)
    }
}

/// `true` if `bytes` starts with the tiled container magic (the router
/// between the legacy single-stream decoder and the tiled one).
#[must_use]
pub fn is_tiled(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == TILED_MAGIC.to_be_bytes()
}

/// Assembles a tiled container from a header and the per-tile payloads (one
/// legacy stream per tile, in row-major tile order).
///
/// # Errors
///
/// Returns an error if the header is invalid or the payload count does not
/// match the header's grid.
pub fn write_container(header: &TiledHeader, payloads: &[Vec<u8>]) -> Result<Vec<u8>, CoderError> {
    let grid = header.grid()?;
    if payloads.len() != grid.tile_count() {
        return Err(CoderError::MalformedStream(format!(
            "{} tile payloads supplied but the grid has {}",
            payloads.len(),
            grid.tile_count()
        )));
    }
    let mut writer = BitWriter::new();
    header.write(&mut writer)?;
    Ok(append_directory_and_payloads(writer, header.serialized_bytes(), payloads))
}

/// A parsed (but not yet decoded) tiled container: the header, the validated
/// tile directory and a borrow of the raw bytes. Tiles can be sliced out
/// individually — this is what the parallel decoder hands to its workers and
/// what the row-band streaming decoder seeks through.
#[derive(Debug, Clone)]
pub struct TiledStream<'a> {
    header: TiledHeader,
    offsets: Vec<u64>,
    bytes: &'a [u8],
}

impl<'a> TiledStream<'a> {
    /// Parses and validates the header and directory of a tiled container.
    ///
    /// The directory is checked for monotonically non-decreasing offsets that
    /// start right after the directory and end exactly at the stream's last
    /// byte, so truncated, padded or internally inconsistent containers are
    /// rejected before any tile is touched.
    ///
    /// # Errors
    ///
    /// * [`CoderError::UnsupportedFormat`] for a wrong magic or version.
    /// * [`CoderError::MalformedStream`] for invalid header fields, a
    ///   truncated directory, or inconsistent offsets.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CoderError> {
        let mut reader = BitReader::new(bytes);
        let header = TiledHeader::read(&mut reader)?;
        let grid = header.grid()?;
        // Same decompression-bomb guard as the legacy header: every sample
        // costs at least one payload bit across the per-tile streams, so a
        // pixel count beyond the stream's bit count is forged — reject it
        // before the frame buffer is sized from the 32-bit dimensions.
        let pixels = header.width as u128 * header.height as u128;
        if pixels > bytes.len() as u128 * 8 {
            return Err(CoderError::MalformedStream(format!(
                "header declares {}x{} pixels but the {}-byte container cannot encode even one \
                 bit per sample",
                header.width,
                header.height,
                bytes.len()
            )));
        }
        let claimed = grid.tiles_x() as u128 * grid.tiles_y() as u128;
        let offsets = read_directory(&mut reader, bytes.len(), header.serialized_bytes(), claimed)?;
        Ok(Self { header, offsets, bytes })
    }

    /// The container header.
    #[must_use]
    pub fn header(&self) -> &TiledHeader {
        &self.header
    }

    /// The tile grid of the container.
    ///
    /// # Errors
    ///
    /// See [`TiledHeader::grid`] (cannot fail after a successful parse).
    pub fn grid(&self) -> Result<TileGrid, CoderError> {
        self.header.grid()
    }

    /// Number of tiles in the container.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Consumes the parsed stream into its validated directory: `tile_count() + 1`
    /// byte offsets into the container, ascending, the last one its length —
    /// for owners of the bytes that keep the parse and drop the borrow.
    #[must_use]
    pub fn into_offsets(self) -> Vec<u64> {
        self.offsets
    }

    /// The raw payload (a legacy single-image stream) of tile `index`, in
    /// row-major tile order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= tile_count()`.
    #[must_use]
    pub fn tile_bytes(&self, index: usize) -> &'a [u8] {
        assert!(index < self.tile_count(), "tile index {index} out of bounds");
        &self.bytes[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LosslessCodec;
    use lwc_image::synth;

    fn sample_header() -> TiledHeader {
        TiledHeader {
            width: 70,
            height: 50,
            bit_depth: 12,
            scales: 3,
            tile_width: 32,
            tile_height: 32,
            delta: 0,
        }
    }

    fn sample_container() -> (TiledHeader, Vec<Vec<u8>>, Vec<u8>) {
        let header = sample_header();
        let grid = header.grid().unwrap();
        let codec = LosslessCodec::new(header.scales).unwrap();
        let image = synth::ct_phantom(header.width, header.height, 12, 1);
        let payloads: Vec<Vec<u8>> = grid
            .rects()
            .map(|rect| codec.compress_view(&image.view_rect(rect).unwrap()).unwrap())
            .collect();
        let bytes = write_container(&header, &payloads).unwrap();
        (header, payloads, bytes)
    }

    #[test]
    fn header_roundtrips() {
        let header = sample_header();
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        assert_eq!(bytes.len(), TILED_HEADER_BYTES);
        assert_eq!(&bytes[..4], &TILED_MAGIC.to_be_bytes());
        let mut reader = BitReader::new(&bytes);
        assert_eq!(TiledHeader::read(&mut reader).unwrap(), header);
    }

    #[test]
    fn container_slices_tiles_back_out() {
        let (header, payloads, bytes) = sample_container();
        assert!(is_tiled(&bytes));
        let stream = TiledStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        assert_eq!(stream.tile_count(), payloads.len());
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.tile_bytes(index), payload.as_slice(), "tile {index}");
        }
    }

    #[test]
    fn legacy_streams_are_not_tiled() {
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&synth::ct_phantom(32, 32, 12, 0)).unwrap();
        assert!(!is_tiled(&bytes));
        assert!(matches!(TiledStream::parse(&bytes), Err(CoderError::UnsupportedFormat(_))));
        assert!(!is_tiled(&[]));
        assert!(!is_tiled(&[0x4C, 0x57]));
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let (_, _, mut bytes) = sample_container();
        bytes[4] = TILED_QUANT_VERSION + 1;
        assert!(matches!(TiledStream::parse(&bytes), Err(CoderError::UnsupportedFormat(_))));
    }

    #[test]
    fn near_lossless_headers_roundtrip_with_the_delta_byte() {
        let header = TiledHeader { delta: 4, ..sample_header() };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        assert_eq!(bytes.len(), TILED_HEADER_BYTES + 1);
        assert_eq!(bytes[4], TILED_QUANT_VERSION);
        let mut reader = BitReader::new(&bytes);
        assert_eq!(TiledHeader::read(&mut reader).unwrap(), header);
    }

    #[test]
    fn near_lossless_containers_slice_tiles_back_out() {
        let header = TiledHeader { delta: 2, ..sample_header() };
        let grid = header.grid().unwrap();
        let codec = LosslessCodec::near_lossless(header.scales, header.delta).unwrap();
        let image = synth::ct_phantom(header.width, header.height, 12, 1);
        let payloads: Vec<Vec<u8>> = grid
            .rects()
            .map(|rect| codec.compress_view(&image.view_rect(rect).unwrap()).unwrap())
            .collect();
        let bytes = write_container(&header, &payloads).unwrap();
        let stream = TiledStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.tile_bytes(index), payload.as_slice(), "tile {index}");
        }
    }

    #[test]
    fn near_lossless_version_with_zero_delta_is_malformed() {
        // A version-2 header must carry a non-zero delta: delta == 0 encodes
        // as version 1, so a v2/zero-delta combination is a forgery.
        let header = TiledHeader { delta: 1, ..sample_header() };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let mut bytes = writer.into_bytes();
        *bytes.last_mut().unwrap() = 0;
        let mut reader = BitReader::new(&bytes);
        match TiledHeader::read(&mut reader) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("quantizer"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_padded_containers_are_rejected() {
        let (_, _, bytes) = sample_container();
        // Any truncation: inside the header, inside the directory, inside a
        // payload.
        for len in [0, 3, TILED_HEADER_BYTES - 1, TILED_HEADER_BYTES + 5, bytes.len() - 1] {
            assert!(TiledStream::parse(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        // Trailing garbage is equally inconsistent with the directory.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(TiledStream::parse(&padded), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn corrupt_directories_are_rejected() {
        let (_, _, bytes) = sample_container();
        // First offset not at the payload start.
        let mut wrong_start = bytes.clone();
        wrong_start[TILED_HEADER_BYTES + 5] ^= 0x01;
        assert!(matches!(TiledStream::parse(&wrong_start), Err(CoderError::MalformedStream(_))));
        // Non-monotone interior offsets.
        let mut non_monotone = bytes.clone();
        let second_entry = TILED_HEADER_BYTES + 6;
        non_monotone[second_entry..second_entry + 6].copy_from_slice(&[0, 0, 0, 0, 0, 1]);
        assert!(matches!(TiledStream::parse(&non_monotone), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn invalid_header_fields_are_rejected() {
        let base = sample_header();
        for (header, what) in [
            (TiledHeader { width: 0, ..base }, "zero width"),
            (TiledHeader { height: 0, ..base }, "zero height"),
            (TiledHeader { tile_width: 0, ..base }, "zero tile width"),
            (TiledHeader { tile_height: 0, ..base }, "zero tile height"),
            (TiledHeader { tile_width: 1 << 20, ..base }, "oversized tile"),
            (TiledHeader { bit_depth: 0, ..base }, "zero depth"),
            (TiledHeader { bit_depth: 17, ..base }, "oversized depth"),
            (TiledHeader { scales: 0, ..base }, "zero scales"),
            (TiledHeader { scales: 16, ..base }, "oversized scales"),
        ] {
            assert!(header.validate().is_err(), "{what}");
            let mut writer = BitWriter::new();
            assert!(header.write(&mut writer).is_err(), "{what} must not serialize");
        }
    }

    #[test]
    fn forged_headers_with_absurd_tile_counts_are_rejected_without_allocating() {
        // A crafted header claiming ~2^64 tiles must come back as a
        // malformed-stream error, not a capacity-overflow panic or a huge
        // allocation attempt.
        for (width, height) in [(u32::MAX, u32::MAX), (u32::MAX, 1), (1 << 20, 1 << 20)] {
            let header = TiledHeader {
                width: width as usize,
                height: height as usize,
                bit_depth: 12,
                scales: 3,
                tile_width: 1,
                tile_height: 1,
                delta: 0,
            };
            let mut writer = BitWriter::new();
            header.write(&mut writer).unwrap();
            let bytes = writer.into_bytes();
            assert!(
                matches!(TiledStream::parse(&bytes), Err(CoderError::MalformedStream(_))),
                "{width}x{height} forged header"
            );
        }
    }

    #[test]
    fn forged_pixel_counts_beyond_the_stream_bits_are_rejected() {
        // A structurally valid container (header + consistent directory)
        // whose 32-bit dimensions declare more pixels than the stream has
        // bits must be refused before the frame buffer is sized — the
        // container-level decompression-bomb guard.
        let header = TiledHeader {
            width: 1 << 31,
            height: 16,
            bit_depth: 12,
            scales: 3,
            tile_width: (1 << 20) - 1,
            tile_height: 16,
            delta: 0,
        };
        let grid = header.grid().unwrap();
        let payloads = vec![Vec::new(); grid.tile_count()];
        let bytes = write_container(&header, &payloads).unwrap();
        match TiledStream::parse(&bytes) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("cannot encode"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn payload_count_must_match_the_grid() {
        let header = sample_header();
        assert!(matches!(
            write_container(&header, &[vec![1, 2, 3]]),
            Err(CoderError::MalformedStream(_))
        ));
    }
}
