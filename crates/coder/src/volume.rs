//! The versioned volumetric container format (`LWCV`).
//!
//! A volume stream wraps one payload per brick of a [`BrickGrid`] in the
//! shared container framing ([`crate::container`]: magic and version, the
//! near-lossless delta byte, the 48-bit part directory and the one parser) —
//! the 2-D tile framing of `LWCT` plus a z axis — so bricks can be encoded,
//! decoded and seeked independently: the format backbone of the
//! brick-parallel volume engine in `lwc-pipeline`. Layout (all fields
//! most-significant-bit first, written with [`BitWriter`]):
//!
//! ```text
//! offset  field
//! 0       magic          32 bits  0x4C574356 ("LWCV")
//! 4       version         8 bits  1 = lossless, 2 = near-lossless
//! 5       image width    32 bits  pixels, >= 1
//! 9       image height   32 bits  pixels, >= 1
//! 13      image depth    32 bits  slices, >= 1
//! 17      bit depth       8 bits  1..=16
//! 18      scales          8 bits  1..=15 (the per-plane 2-D streams' depth)
//! 19      z scales        8 bits  0..=15 (z decomposition; 0 = pure 2-D)
//! 20      tile width     32 bits  1..=2^20 - 1, clipped to the image
//! 24      tile height    32 bits  1..=2^20 - 1, clipped to the image
//! 28      brick depth    32 bits  >= 1, clipped to the image depth
//! 32      delta           8 bits  version 2 only: per-voxel bound, >= 1
//! 32/33   directory      (brick_count + 1) x 48-bit byte offsets
//! ...     payloads       brick_count brick payloads
//! ```
//!
//! Bricks are ordered plane-major (all tiles of z-layer 0, then z-layer 1,
//! ...). Each brick payload is self-describing: the brick's z-transformed
//! coefficient planes are 2-D coded as one `LWC1` stream each, prefixed by
//! a table of `brick_depth` big-endian `u32` substream lengths:
//!
//! ```text
//! plane lengths   brick_depth x 32-bit byte lengths
//! plane streams   brick_depth concatenated LWC1 streams
//! ```
//!
//! With `z_scales = 0` the z transform is the identity, so every plane
//! substream is byte-identical to the 2-D tiled path's stream for the same
//! tile of the same slice — the property that pins the two datapaths
//! together (see the tests in `tests/volume_pipeline.rs`).

use crate::bitio::BitWriter;
use crate::container::{CommonFields, Container, ContainerHeader, FieldReader};
use crate::CoderError;
use lwc_image::BrickGrid;

pub use crate::container::NEAR_LOSSLESS_VERSION as VOLUME_QUANT_VERSION;

/// Magic number identifying a volumetric `lwc` container ("LWCV").
pub const VOLUME_MAGIC: u32 = 0x4C57_4356;

/// Serialized size of the fixed version-1 volume header, in bytes. A
/// version-2 header is one byte longer — see
/// [`ContainerHeader::serialized_bytes`].
pub const VOLUME_HEADER_BYTES: usize = 32;

/// The z-scale rule of every `LWCV` container and the volume engine: the
/// z decomposition depth is one of `0..=15` (0 = pure 2-D), the range the
/// format defines for its z-scale field.
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] for a count of 16 or more.
pub fn check_z_scales(z_scales: u32) -> Result<(), CoderError> {
    if z_scales >= 1 << 4 {
        return Err(CoderError::MalformedStream(format!("unsupported z scale count {z_scales}")));
    }
    Ok(())
}

/// Parsed fixed-size header of a volumetric container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeHeader {
    /// Slice width in pixels.
    pub width: usize,
    /// Slice height in pixels.
    pub height: usize,
    /// Number of slices.
    pub depth: usize,
    /// Nominal bit depth of the voxels.
    pub bit_depth: u32,
    /// 2-D decomposition depth of every per-plane stream.
    pub scales: u32,
    /// z-axis decomposition depth (0 = no inter-slice decorrelation).
    pub z_scales: u32,
    /// Nominal (interior) tile width in pixels.
    pub tile_width: usize,
    /// Nominal (interior) tile height in pixels.
    pub tile_height: usize,
    /// Nominal (interior) brick depth in slices.
    pub brick_depth: usize,
    /// Near-lossless per-voxel error bound `δ` (0 = lossless; the header
    /// serializes as version 1 and no delta byte is written).
    pub delta: u8,
}

impl ContainerHeader for VolumeHeader {
    const MAGIC: u32 = VOLUME_MAGIC;
    const NAME: &'static str = "volume";
    const BYTES: usize = VOLUME_HEADER_BYTES;
    const NEAR_LOSSLESS: bool = true;
    type Grid = BrickGrid;

    fn common(&self) -> CommonFields {
        CommonFields {
            width: self.width,
            height: self.height,
            depth: self.depth,
            tile_width: self.tile_width,
            tile_height: self.tile_height,
            brick_depth: self.brick_depth,
            bit_depth: self.bit_depth,
            scales: self.scales,
            delta: self.delta,
        }
    }

    fn grid(&self) -> Result<BrickGrid, CoderError> {
        self.bricks()
    }

    fn write_fields(&self, writer: &mut BitWriter) {
        writer.write_bits(self.width as u64, 32);
        writer.write_bits(self.height as u64, 32);
        writer.write_bits(self.depth as u64, 32);
        writer.write_bits(u64::from(self.bit_depth), 8);
        writer.write_bits(u64::from(self.scales), 8);
        writer.write_bits(u64::from(self.z_scales), 8);
        writer.write_bits(self.tile_width as u64, 32);
        writer.write_bits(self.tile_height as u64, 32);
        writer.write_bits(self.brick_depth as u64, 32);
    }

    fn read_fields(fields: &mut FieldReader<'_, '_>) -> Result<Self, CoderError> {
        Ok(Self {
            width: fields.read(32, "width")? as usize,
            height: fields.read(32, "height")? as usize,
            depth: fields.read(32, "depth")? as usize,
            bit_depth: fields.read(8, "bit depth")? as u32,
            scales: fields.read(8, "scale count")? as u32,
            z_scales: fields.read(8, "z scale count")? as u32,
            tile_width: fields.read(32, "tile width")? as usize,
            tile_height: fields.read(32, "tile height")? as usize,
            brick_depth: fields.read(32, "brick depth")? as usize,
            delta: fields.delta()?,
        })
    }

    /// The z scale count obeys [`check_z_scales`].
    fn check_format(&self) -> Result<(), CoderError> {
        check_z_scales(self.z_scales)
    }
}

/// Serializes one brick payload: the length table followed by the
/// concatenated per-plane `LWC1` streams.
#[must_use]
pub fn write_brick_payload(planes: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = planes.iter().map(Vec::len).sum();
    let mut payload = Vec::with_capacity(4 * planes.len() + total);
    for plane in planes {
        payload.extend_from_slice(&(plane.len() as u32).to_be_bytes());
    }
    for plane in planes {
        payload.extend_from_slice(plane);
    }
    payload
}

/// Splits a brick payload back into its `plane_count` per-plane `LWC1`
/// substreams, validating that the length table and the payload size agree
/// exactly (no truncation, no trailing garbage).
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] on any inconsistency.
pub fn split_brick_payload(payload: &[u8], plane_count: usize) -> Result<Vec<&[u8]>, CoderError> {
    let table_bytes = plane_count.checked_mul(4).ok_or_else(|| {
        CoderError::MalformedStream("brick plane count overflows the length table".to_owned())
    })?;
    if payload.len() < table_bytes {
        return Err(CoderError::MalformedStream(format!(
            "brick payload of {} bytes cannot hold its {plane_count}-entry length table",
            payload.len()
        )));
    }
    let mut planes = Vec::with_capacity(plane_count);
    let mut cursor = table_bytes;
    for index in 0..plane_count {
        let entry: [u8; 4] = payload[index * 4..index * 4 + 4].try_into().expect("4-byte entry");
        let len = u32::from_be_bytes(entry) as usize;
        let end = cursor.checked_add(len).filter(|&e| e <= payload.len()).ok_or_else(|| {
            CoderError::MalformedStream(format!(
                "brick plane {index} claims {len} bytes beyond the payload"
            ))
        })?;
        planes.push(&payload[cursor..end]);
        cursor = end;
    }
    if cursor != payload.len() {
        return Err(CoderError::MalformedStream(format!(
            "brick payload holds {} trailing bytes past its plane streams",
            payload.len() - cursor
        )));
    }
    Ok(planes)
}

/// A parsed (but not yet decoded) volumetric container; its parts are the
/// brick payloads in plane-major brick order.
pub type VolumeStream<'a> = Container<'a, VolumeHeader>;

impl<'a> VolumeStream<'a> {
    /// The payload of brick `index`: [`Container::part_bytes`] by its brick name.
    #[must_use]
    pub fn brick_bytes(&self, index: usize) -> &'a [u8] {
        self.part_bytes(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;
    use crate::container::write_container;

    fn sample_header() -> VolumeHeader {
        VolumeHeader {
            width: 48,
            height: 40,
            depth: 7,
            bit_depth: 12,
            scales: 3,
            z_scales: 1,
            tile_width: 32,
            tile_height: 32,
            brick_depth: 4,
            delta: 0,
        }
    }

    fn sample_container() -> (VolumeHeader, Vec<Vec<u8>>, Vec<u8>) {
        let header = sample_header();
        let grid = header.grid().unwrap();
        // Synthetic payloads are fine for format-level tests (the pipeline
        // tests exercise real brick streams); give every voxel one byte so
        // the plausibility guard is comfortably satisfied.
        let payloads: Vec<Vec<u8>> = grid
            .rects()
            .enumerate()
            .map(|(i, rect)| {
                let planes: Vec<Vec<u8>> = (0..rect.depth)
                    .map(|z| vec![(i + z) as u8; rect.plane.pixel_count()])
                    .collect();
                write_brick_payload(&planes)
            })
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
        assert_eq!(bytes.len(), VOLUME_HEADER_BYTES);
        assert_eq!(&bytes[..4], &VOLUME_MAGIC.to_be_bytes());
        let mut reader = BitReader::new(&bytes);
        assert_eq!(VolumeHeader::read(&mut reader).unwrap(), header);
    }

    #[test]
    fn container_slices_bricks_back_out() {
        let (header, payloads, bytes) = sample_container();
        assert!(VolumeStream::sniff(&bytes));
        let stream = VolumeStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        assert_eq!(stream.part_count(), payloads.len());
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.brick_bytes(index), payload.as_slice(), "brick {index}");
        }
    }

    #[test]
    fn brick_payloads_split_back_into_planes() {
        let planes = vec![vec![1u8, 2, 3], vec![], vec![9u8; 5]];
        let payload = write_brick_payload(&planes);
        let split = split_brick_payload(&payload, 3).unwrap();
        assert_eq!(split.len(), 3);
        for (got, want) in split.iter().zip(&planes) {
            assert_eq!(got, &want.as_slice());
        }
        // Wrong plane count, truncation, oversized entry, trailing garbage.
        assert!(split_brick_payload(&payload, 2).is_err());
        assert!(split_brick_payload(&payload, 4).is_err());
        assert!(split_brick_payload(&payload[..payload.len() - 1], 3).is_err());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(split_brick_payload(&padded, 3).is_err());
        let mut oversized = payload.clone();
        oversized[3] = 0xFF;
        assert!(split_brick_payload(&oversized, 3).is_err());
    }

    #[test]
    fn other_magics_are_not_volumes() {
        assert!(!VolumeStream::sniff(&[]));
        assert!(!VolumeStream::sniff(&crate::tiled::TILED_MAGIC.to_be_bytes()));
        assert!(matches!(
            VolumeStream::parse(&crate::tiled::TILED_MAGIC.to_be_bytes()),
            Err(CoderError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let (_, _, mut bytes) = sample_container();
        bytes[4] = VOLUME_QUANT_VERSION + 1;
        assert!(matches!(VolumeStream::parse(&bytes), Err(CoderError::UnsupportedFormat(_))));
    }

    #[test]
    fn near_lossless_headers_roundtrip_with_the_delta_byte() {
        let header = VolumeHeader { delta: 3, ..sample_header() };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        assert_eq!(bytes.len(), VOLUME_HEADER_BYTES + 1);
        assert_eq!(bytes[4], VOLUME_QUANT_VERSION);
        let mut reader = BitReader::new(&bytes);
        assert_eq!(VolumeHeader::read(&mut reader).unwrap(), header);
    }

    #[test]
    fn near_lossless_containers_slice_bricks_back_out() {
        let header = VolumeHeader { delta: 2, ..sample_header() };
        let grid = header.grid().unwrap();
        let payloads: Vec<Vec<u8>> = grid
            .rects()
            .enumerate()
            .map(|(i, rect)| {
                let planes: Vec<Vec<u8>> = (0..rect.depth)
                    .map(|z| vec![(i + z) as u8; rect.plane.pixel_count()])
                    .collect();
                write_brick_payload(&planes)
            })
            .collect();
        let bytes = write_container(&header, &payloads).unwrap();
        let stream = VolumeStream::parse(&bytes).unwrap();
        assert_eq!(stream.header(), &header);
        for (index, payload) in payloads.iter().enumerate() {
            assert_eq!(stream.brick_bytes(index), payload.as_slice(), "brick {index}");
        }
    }

    #[test]
    fn near_lossless_version_with_zero_delta_is_malformed() {
        let header = VolumeHeader { delta: 1, ..sample_header() };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let mut bytes = writer.into_bytes();
        *bytes.last_mut().unwrap() = 0;
        let mut reader = BitReader::new(&bytes);
        match VolumeHeader::read(&mut reader) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("quantizer"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_padded_containers_are_rejected() {
        let (_, _, bytes) = sample_container();
        for len in [0, 3, VOLUME_HEADER_BYTES - 1, VOLUME_HEADER_BYTES + 5, bytes.len() - 1] {
            assert!(VolumeStream::parse(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(VolumeStream::parse(&padded), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn corrupt_directories_are_rejected() {
        let (_, _, bytes) = sample_container();
        let mut wrong_start = bytes.clone();
        wrong_start[VOLUME_HEADER_BYTES + 5] ^= 0x01;
        assert!(matches!(VolumeStream::parse(&wrong_start), Err(CoderError::MalformedStream(_))));
        let mut non_monotone = bytes.clone();
        let second_entry = VOLUME_HEADER_BYTES + 6;
        non_monotone[second_entry..second_entry + 6].copy_from_slice(&[0, 0, 0, 0, 0, 1]);
        assert!(matches!(VolumeStream::parse(&non_monotone), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn invalid_header_fields_are_rejected() {
        let base = sample_header();
        for (header, what) in [
            (VolumeHeader { width: 0, ..base }, "zero width"),
            (VolumeHeader { height: 0, ..base }, "zero height"),
            (VolumeHeader { depth: 0, ..base }, "zero depth"),
            (VolumeHeader { tile_width: 0, ..base }, "zero tile width"),
            (VolumeHeader { tile_height: 0, ..base }, "zero tile height"),
            (VolumeHeader { brick_depth: 0, ..base }, "zero brick depth"),
            (VolumeHeader { tile_width: 1 << 20, ..base }, "oversized tile"),
            (VolumeHeader { bit_depth: 0, ..base }, "zero bit depth"),
            (VolumeHeader { bit_depth: 17, ..base }, "oversized bit depth"),
            (VolumeHeader { scales: 0, ..base }, "zero scales"),
            (VolumeHeader { scales: 16, ..base }, "oversized scales"),
            (VolumeHeader { z_scales: 16, ..base }, "oversized z scales"),
        ] {
            assert!(header.validate().is_err(), "{what}");
            let mut writer = BitWriter::new();
            assert!(header.write(&mut writer).is_err(), "{what} must not serialize");
        }
        // z_scales = 0 is legal: the pure per-slice 2-D configuration.
        assert!(VolumeHeader { z_scales: 0, ..base }.validate().is_ok());
    }

    #[test]
    fn forged_voxel_counts_are_rejected_before_any_allocation() {
        // A crafted 32-byte header declaring a 2^31 x 16 x 2^10 volume must
        // come back as a fast typed error — no buffer may ever be sized from
        // those dimensions.
        let header = VolumeHeader {
            width: 1 << 31,
            height: 16,
            depth: 1 << 10,
            bit_depth: 12,
            scales: 3,
            z_scales: 2,
            tile_width: (1 << 20) - 1,
            tile_height: 16,
            brick_depth: 8,
            delta: 0,
        };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let bytes = writer.into_bytes();
        match VolumeStream::parse(&bytes) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("cannot encode"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn forged_brick_counts_are_rejected_without_allocating() {
        // 1x1x1 bricks over a large-but-plausible volume: the voxel guard
        // passes only if the stream is huge, so craft a small container whose
        // directory cannot possibly hold the claimed brick count.
        let header = VolumeHeader {
            width: 512,
            height: 512,
            depth: 8,
            bit_depth: 12,
            scales: 3,
            z_scales: 1,
            tile_width: 1,
            tile_height: 1,
            brick_depth: 1,
            delta: 0,
        };
        let mut writer = BitWriter::new();
        header.write(&mut writer).unwrap();
        let mut bytes = writer.into_bytes();
        // Enough padding to pass the voxel plausibility guard (1 bit per
        // voxel) while staying far short of the two-million-entry directory.
        bytes.resize(512 * 512 * 8 / 8 + VOLUME_HEADER_BYTES, 0);
        match VolumeStream::parse(&bytes) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("directory"), "{msg}");
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
