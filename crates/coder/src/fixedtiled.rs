//! The versioned fixed-path container format (`LWCF`).
//!
//! `LWCF` is to the paper-exact fixed-point datapath what
//! [`LWCT`](crate::tiled) is to the lifting codec: the shared container
//! framing ([`crate::container`]: magic and version, the 48-bit part
//! directory and the one parser) around one entropy-coded payload per tile
//! of a [`TileGrid`]. Each payload is the tile's `Decomposition<i64>`
//! subbands in [`subband_order`](crate::subband_order), coded by
//! [`FixedSubbandCodec`](crate::FixedSubbandCodec). Layout (all fields
//! MSB-first, whole bytes):
//!
//! ```text
//! offset  field
//! 0       magic          32 bits  0x4C574346 ("LWCF")
//! 4       version         8 bits  currently 1
//! 5       image width    32 bits  pixels, >= 1
//! 9       image height   32 bits  pixels, >= 1
//! 13      bit depth       8 bits  1..=16
//! 14      scales          8 bits  1..=15 (the per-tile decomposition depth)
//! 15      filter          8 bits  Table I bank index, 0..=5
//! 16      tile width     32 bits  1..=2^20 - 1, clipped to the image
//! 20      tile height    32 bits  1..=2^20 - 1, clipped to the image
//! 24      directory      (tile_count + 1) x 48-bit byte offsets
//! ...     payloads       tile_count concatenated fixed-subband streams
//! ```
//!
//! The one field `LWCT` does not have is the **filter byte**: the lifting
//! codec has a single transform, but the fixed datapath is parameterized by
//! the six Table I banks, and the decoder must rebuild the exact
//! word-length plan the encoder used. Version 1 always pairs the stored
//! bank with the paper-default plan (32-bit words, 13-bit inputs), so the
//! bank index plus the scale count pins the whole datapath.
//!
//! Unlike `LWCT` there is no legacy single-stream format to stay compatible
//! with, so **every** `LWCF` stream is wrapped — a single-tile grid is simply
//! a one-entry directory. Because the fixed-point pyramid halves dimensions
//! exactly, every tile shape occurring in the grid must be divisible by
//! `2^scales`; the parser enforces this so a tampered scale count fails at
//! parse time, not mid-inverse-transform.

use crate::bitio::BitWriter;
use crate::container::{CommonFields, Container, ContainerHeader, FieldReader};
use crate::CoderError;
use lwc_image::TileGrid;

pub use crate::container::LOSSLESS_VERSION as FIXED_VERSION;

/// Magic number identifying a fixed-path `lwc` container ("LWCF").
pub const FIXED_MAGIC: u32 = 0x4C57_4346;

/// Serialized size of the fixed `LWCF` header, in bytes.
pub const FIXED_HEADER_BYTES: usize = 24;

/// Number of Table I filter banks the filter byte can name (indices `0..=5`).
pub const FIXED_FILTER_BANKS: u8 = 6;

/// Parsed fixed-size header of an `LWCF` container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedHeader {
    /// Full image width in pixels.
    pub width: usize,
    /// Full image height in pixels.
    pub height: usize,
    /// Nominal bit depth of the pixels.
    pub bit_depth: u32,
    /// Decomposition depth of every per-tile stream.
    pub scales: u32,
    /// Table I filter-bank index (0..=5) of the fixed-point transform.
    pub filter: u8,
    /// Nominal (interior) tile width in pixels.
    pub tile_width: usize,
    /// Nominal (interior) tile height in pixels.
    pub tile_height: usize,
}

impl ContainerHeader for FixedHeader {
    const MAGIC: u32 = FIXED_MAGIC;
    const NAME: &'static str = "fixed";
    const BYTES: usize = FIXED_HEADER_BYTES;
    const NEAR_LOSSLESS: bool = false;
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
            delta: 0,
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
        writer.write_bits(u64::from(self.filter), 8);
        writer.write_bits(self.tile_width as u64, 32);
        writer.write_bits(self.tile_height as u64, 32);
    }

    fn read_fields(fields: &mut FieldReader<'_, '_>) -> Result<Self, CoderError> {
        Ok(Self {
            width: fields.read(32, "width")? as usize,
            height: fields.read(32, "height")? as usize,
            bit_depth: fields.read(8, "bit depth")? as u32,
            scales: fields.read(8, "scale count")? as u32,
            filter: fields.read(8, "filter index")? as u8,
            tile_width: fields.read(32, "tile width")? as usize,
            tile_height: fields.read(32, "tile height")? as usize,
        })
    }

    /// The filter index names a Table I bank, and every tile shape occurring
    /// in the grid (nominal, ragged right/bottom/corner) is divisible by
    /// `2^scales`, because the fixed-point pyramid halves dimensions exactly.
    fn check_format(&self) -> Result<(), CoderError> {
        if self.filter >= FIXED_FILTER_BANKS {
            return Err(CoderError::UnsupportedFormat(format!(
                "filter index {} is not a Table I bank (0..={})",
                self.filter,
                FIXED_FILTER_BANKS - 1
            )));
        }
        let step = 1usize << self.scales;
        for (tw, th) in self.grid()?.tile_shapes() {
            if tw % step != 0 || th % step != 0 {
                return Err(CoderError::MalformedStream(format!(
                    "a {tw}x{th} tile of the grid cannot be decomposed {} times (dimensions must \
                     be divisible by {step})",
                    self.scales
                )));
            }
        }
        Ok(())
    }
}

/// A parsed (but not yet decoded) `LWCF` container; its parts are the
/// per-tile fixed-subband streams in row-major tile order.
pub type FixedStream<'a> = Container<'a, FixedHeader>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;
    use crate::container::write_container;

    fn sample_header() -> FixedHeader {
        FixedHeader {
            width: 96,
            height: 64,
            bit_depth: 12,
            scales: 3,
            filter: 0,
            tile_width: 32,
            tile_height: 32,
        }
    }

    /// A structurally complete container with synthetic payloads (the
    /// entropy layer has its own tests; here only the container matters).
    fn sample_container() -> (FixedHeader, Vec<Vec<u8>>, Vec<u8>) {
        let header = sample_header();
        let grid = header.grid().unwrap();
        // Payloads must be large enough to pass the one-bit-per-sample
        // plausibility guard (real Rice streams always are: every coded word
        // costs at least its one-bit unary terminator).
        let payloads: Vec<Vec<u8>> =
            (0..grid.tile_count()).map(|i| vec![i as u8 + 1; 200 + i]).collect();
        let bytes = write_container(&header, &payloads).unwrap();
        (header, payloads, bytes)
    }

    #[test]
    fn header_roundtrips() {
        let header = sample_header();
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        assert_eq!(bytes.len(), FIXED_HEADER_BYTES);
        assert_eq!(&bytes[..4], &FIXED_MAGIC.to_be_bytes());
        let mut reader = BitReader::new(&bytes);
        assert_eq!(FixedHeader::read(&mut reader).unwrap(), header);
    }

    #[test]
    fn container_slices_tiles_back_out() {
        let (header, payloads, bytes) = sample_container();
        assert!(FixedStream::sniff(&bytes));
        let stream = FixedStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        assert_eq!(stream.part_count(), payloads.len());
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.part_bytes(index), payload.as_slice(), "tile {index}");
        }
    }

    #[test]
    fn other_formats_are_not_fixed() {
        assert!(!FixedStream::sniff(&[]));
        assert!(!FixedStream::sniff(&[0x4C, 0x57, 0x43]));
        assert!(!FixedStream::sniff(&0x4C57_4354u32.to_be_bytes())); // LWCT
        assert!(!FixedStream::sniff(&0x4C57_4331u32.to_be_bytes())); // LWC1
        assert!(matches!(
            FixedStream::parse(&0x4C57_4354u32.to_be_bytes()),
            Err(CoderError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let (_, _, mut bytes) = sample_container();
        bytes[4] = FIXED_VERSION + 1;
        assert!(matches!(FixedStream::parse(&bytes), Err(CoderError::UnsupportedFormat(_))));
    }

    #[test]
    fn truncated_and_padded_containers_are_rejected() {
        let (_, _, bytes) = sample_container();
        for len in [0, 3, FIXED_HEADER_BYTES - 1, FIXED_HEADER_BYTES + 5, bytes.len() - 1] {
            assert!(FixedStream::parse(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(FixedStream::parse(&padded), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn corrupt_directories_are_rejected() {
        let (_, _, bytes) = sample_container();
        // First offset not at the payload start.
        let mut wrong_start = bytes.clone();
        wrong_start[FIXED_HEADER_BYTES + 5] ^= 0x01;
        assert!(matches!(FixedStream::parse(&wrong_start), Err(CoderError::MalformedStream(_))));
        // Non-monotone interior offsets.
        let mut non_monotone = bytes.clone();
        let second_entry = FIXED_HEADER_BYTES + 6;
        non_monotone[second_entry..second_entry + 6].copy_from_slice(&[0, 0, 0, 0, 0, 1]);
        assert!(matches!(FixedStream::parse(&non_monotone), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn invalid_header_fields_are_rejected() {
        let base = sample_header();
        for (header, what) in [
            (FixedHeader { width: 0, ..base }, "zero width"),
            (FixedHeader { height: 0, ..base }, "zero height"),
            (FixedHeader { tile_width: 0, ..base }, "zero tile width"),
            (FixedHeader { tile_height: 0, ..base }, "zero tile height"),
            (FixedHeader { tile_width: 1 << 20, ..base }, "oversized tile"),
            (FixedHeader { bit_depth: 0, ..base }, "zero depth"),
            (FixedHeader { bit_depth: 17, ..base }, "oversized depth"),
            (FixedHeader { scales: 0, ..base }, "zero scales"),
            (FixedHeader { scales: 16, ..base }, "oversized scales"),
            (FixedHeader { filter: FIXED_FILTER_BANKS, ..base }, "unknown filter"),
            (FixedHeader { width: 97, ..base }, "undecomposable ragged tile"),
            (FixedHeader { scales: 4, tile_width: 24, ..base }, "undecomposable nominal tile"),
        ] {
            assert!(header.validate().is_err(), "{what}");
            let mut writer = BitWriter::new();
            assert!(header.write(&mut writer).is_err(), "{what} must not serialize");
        }
    }

    #[test]
    fn forged_headers_with_absurd_tile_counts_are_rejected_without_allocating() {
        // 1x1 tiles dodge the divisibility rule only at scales >= 1, so use a
        // grid of minimal decomposable tiles: 2^scales-sized tiles over a
        // huge forged image.
        let header = FixedHeader {
            width: (1 << 20) * 8,
            height: (1 << 20) * 8,
            bit_depth: 12,
            scales: 3,
            filter: 0,
            tile_width: 8,
            tile_height: 8,
        };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        assert!(matches!(FixedStream::parse(&bytes), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn forged_pixel_counts_beyond_the_stream_bits_are_rejected() {
        // A structurally valid container whose dimensions declare more
        // pixels than the stream has bits: the bomb guard must fire before
        // any frame buffer is sized.
        let header = FixedHeader {
            width: 1 << 24,
            height: 1 << 8,
            bit_depth: 12,
            scales: 3,
            filter: 1,
            tile_width: (1 << 20) - 8, // divisible by 2^3, under the 20-bit bound
            tile_height: 1 << 8,
        };
        let grid = header.grid().unwrap();
        let payloads = vec![Vec::new(); grid.tile_count()];
        let bytes = write_container(&header, &payloads).unwrap();
        match FixedStream::parse(&bytes) {
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
