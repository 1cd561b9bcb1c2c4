//! The versioned tiled container format (`LWCT`).
//!
//! A tiled stream wraps one independent [`LosslessCodec`](crate::LosslessCodec)
//! stream per tile of a [`TileGrid`] in the shared container framing
//! ([`crate::container`]: magic and version, the near-lossless delta byte,
//! the 48-bit part directory and the one parser), so tiles can be encoded,
//! decoded and seeked independently — the format backbone of the
//! tile-parallel engine in `lwc-pipeline`. Layout:
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
//! The per-tile `LWCQ` headers of a version-2 container carry the same `δ`
//! as its delta byte; the decoder cross-checks them. Tiles are in row-major
//! order. Tile dimensions are bounded by the inner format's 20-bit fields;
//! the outer 32-bit image dimensions are what lift the whole-image limit — a
//! 16k x 16k CR plate simply becomes a few thousand independently coded
//! tiles.
//!
//! Single-tile images are **not** wrapped: the engine emits the legacy
//! [`LWC1`](crate::StreamHeader) stream unchanged (byte-identical to
//! [`LosslessCodec::compress`](crate::LosslessCodec::compress)), and the
//! decoder sniffs the magic to route between the two formats, keeping every
//! pre-tiling stream readable.

use crate::bitio::BitWriter;
use crate::container::{CommonFields, Container, ContainerHeader, FieldReader};
use crate::CoderError;
use lwc_image::TileGrid;

pub use crate::container::{write_container, NEAR_LOSSLESS_VERSION as TILED_QUANT_VERSION};

/// Magic number identifying a tiled `lwc` container ("LWCT").
pub const TILED_MAGIC: u32 = 0x4C57_4354;

/// Serialized size of the fixed version-1 tiled header, in bytes; a
/// version-2 header is one byte longer (see
/// [`ContainerHeader::serialized_bytes`]).
pub const TILED_HEADER_BYTES: usize = 23;

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

impl ContainerHeader for TiledHeader {
    const MAGIC: u32 = TILED_MAGIC;
    const NAME: &'static str = "tiled";
    const BYTES: usize = TILED_HEADER_BYTES;
    const NEAR_LOSSLESS: bool = true;
    type Grid = TileGrid;

    fn common(&self) -> CommonFields {
        CommonFields {
            width: self.width,
            height: self.height,
            depth: 1,
            tile_width: self.tile_width,
            tile_height: self.tile_height,
            brick_depth: 1,
            bit_depth: self.bit_depth,
            scales: self.scales,
            delta: self.delta,
        }
    }

    fn grid(&self) -> Result<TileGrid, CoderError> {
        Ok(*self.bricks()?.plane())
    }

    fn write_fields(&self, writer: &mut BitWriter) {
        writer.write_bits(self.width as u64, 32);
        writer.write_bits(self.height as u64, 32);
        writer.write_bits(u64::from(self.bit_depth), 8);
        writer.write_bits(u64::from(self.scales), 8);
        writer.write_bits(self.tile_width as u64, 32);
        writer.write_bits(self.tile_height as u64, 32);
    }

    fn read_fields(fields: &mut FieldReader<'_, '_>) -> Result<Self, CoderError> {
        Ok(Self {
            width: fields.read(32, "width")? as usize,
            height: fields.read(32, "height")? as usize,
            bit_depth: fields.read(8, "bit depth")? as u32,
            scales: fields.read(8, "scale count")? as u32,
            tile_width: fields.read(32, "tile width")? as usize,
            tile_height: fields.read(32, "tile height")? as usize,
            delta: fields.delta()?,
        })
    }
}

/// A parsed (but not yet decoded) tiled container; its parts are the
/// per-tile legacy streams in row-major tile order.
pub type TiledStream<'a> = Container<'a, TiledHeader>;

impl<'a> TiledStream<'a> {
    /// The payload of tile `index`: [`Container::part_bytes`] by its tile name.
    #[must_use]
    pub fn tile_bytes(&self, index: usize) -> &'a [u8] {
        self.part_bytes(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;
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
        assert!(TiledStream::sniff(&bytes));
        let stream = TiledStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        assert_eq!(stream.part_count(), payloads.len());
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.tile_bytes(index), payload.as_slice(), "tile {index}");
        }
    }

    #[test]
    fn legacy_streams_are_not_tiled() {
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&synth::ct_phantom(32, 32, 12, 0)).unwrap();
        assert!(!TiledStream::sniff(&bytes));
        assert!(matches!(TiledStream::parse(&bytes), Err(CoderError::UnsupportedFormat(_))));
        assert!(!TiledStream::sniff(&[]));
        assert!(!TiledStream::sniff(&[0x4C, 0x57]));
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
