//! The container framing shared by `LWCT`, `LWCF` and `LWCV`: one parser,
//! one writer, one directory.
//!
//! A multi-part container is a header, a byte-offset directory and the
//! concatenated part payloads (tiles of a [`TileGrid`](lwc_image::TileGrid)
//! or bricks of a [`BrickGrid`]). All fields are most-significant-bit first,
//! written with [`BitWriter`]; every field is a whole number of bits and the
//! header is a whole number of bytes:
//!
//! ```text
//! field        size                    meaning
//! magic        32 bits                 the format ("LWCT", "LWCF", "LWCV")
//! version       8 bits                 1 = lossless, 2 = near-lossless
//! fields       format-specific         see the format's module
//! delta         8 bits                 version 2 only: per-sample bound, >= 1
//! directory    (parts + 1) x 48 bits   absolute byte offsets
//! payloads     ...                     parts concatenated payloads
//! ```
//!
//! Only the lifting formats (`LWCT`, `LWCV`) have version 2. A `δ = 0`
//! header is written as version 1 with no delta byte, so a version-2 header
//! whose delta is zero is malformed by definition.
//!
//! `parts` is derived from the header geometry, never stored. Directory
//! entry `i` is the absolute byte offset of part `i`'s payload; the final
//! entry is the total stream length, so part `i` occupies
//! `bytes[offsets[i]..offsets[i + 1]]` and truncation or trailing garbage is
//! detectable. A 2-D header is one slice of one-slice bricks, so every
//! format has the same part grid ([`ContainerHeader::bricks`]).
//!
//! [`Container::parse`] defends against hostile bytes in a fixed order, and
//! nothing is sized from a header field before its check:
//!
//! 1. magic and version;
//! 2. the common field ranges ([`ContainerHeader::validate`]): nonzero
//!    dimensions, tile sides below 2^20 ([`check_tile_sides`]), bit depth
//!    1..=16, scales 1..=15, then the format's own rules;
//! 3. the decompression-bomb guard: every sample costs at least one payload
//!    bit, so a header declaring more samples than the stream has bits is
//!    forged;
//! 4. the directory: its entry count must fit the stream, and its offsets
//!    must start right after it, never decrease, and end at the last byte.

use crate::bitio::{BitReader, BitWriter};
use crate::CoderError;
use lwc_image::BrickGrid;

/// The lossless container version (no delta byte).
pub const LOSSLESS_VERSION: u8 = 1;

/// The near-lossless container version: the version-1 layout plus one
/// quantizer delta byte.
pub const NEAR_LOSSLESS_VERSION: u8 = 2;

/// Bits per directory entry (a 48-bit byte offset: containers beyond 256 TB
/// are out of scope).
const OFFSET_BITS: u32 = 48;

/// The tile-side rule of every container and engine: each tile (and each
/// brick plane) is coded as a stream whose dimension fields are 20 bits
/// wide, so a tile side must stay below 2^20.
///
/// # Errors
///
/// Returns [`CoderError::UnsupportedFormat`] for a side of 2^20 or more.
pub fn check_tile_sides(tile_width: usize, tile_height: usize) -> Result<(), CoderError> {
    if tile_width >= 1 << 20 || tile_height >= 1 << 20 {
        return Err(CoderError::UnsupportedFormat(format!(
            "tile dimensions {tile_width}x{tile_height} exceed the per-tile stream format's \
             20-bit fields"
        )));
    }
    Ok(())
}

/// The fields every container header carries, as the shared checks and the
/// decoders see them. A 2-D header is one slice deep, in one-slice bricks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonFields {
    /// Image width in samples.
    pub width: usize,
    /// Image height in samples.
    pub height: usize,
    /// Image depth in slices (1 for a 2-D header).
    pub depth: usize,
    /// Nominal (interior) tile width.
    pub tile_width: usize,
    /// Nominal (interior) tile height.
    pub tile_height: usize,
    /// Nominal (interior) brick depth in slices (1 for a 2-D header).
    pub brick_depth: usize,
    /// Nominal bit depth of the samples.
    pub bit_depth: u32,
    /// Decomposition depth of every part's 2-D transform.
    pub scales: u32,
    /// Near-lossless per-sample error bound; 0 means lossless.
    pub delta: u8,
}

/// Reads the fields of one container header, naming the missing field when
/// the stream ends inside the header.
pub struct FieldReader<'r, 'a> {
    reader: &'r mut BitReader<'a>,
    format: &'static str,
    version: u8,
}

impl FieldReader<'_, '_> {
    /// Reads one `bits`-wide field called `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream ends first.
    pub fn read(&mut self, bits: u32, name: &str) -> Result<u64, CoderError> {
        self.reader.read_bits(bits).map_err(|_| {
            CoderError::MalformedStream(format!("truncated {} header: missing {name}", self.format))
        })
    }

    /// Reads the delta byte of a version-2 header (0 for version 1). It is
    /// the header's last field.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the byte is missing or
    /// zero.
    pub fn delta(&mut self) -> Result<u8, CoderError> {
        if self.version != NEAR_LOSSLESS_VERSION {
            return Ok(0);
        }
        match self.read(8, "quantizer delta")? as u8 {
            0 => Err(CoderError::MalformedStream(
                "malformed quantizer header: near-lossless container version with zero delta"
                    .to_owned(),
            )),
            delta => Ok(delta),
        }
    }
}

/// One container format's header: its magic, its own fields and rules. The
/// prefix, the common checks and the delta byte are provided.
pub trait ContainerHeader: Copy + std::fmt::Debug {
    /// The format's magic number.
    const MAGIC: u32;
    /// The format's name in error messages.
    const NAME: &'static str;
    /// Serialized size of a version-1 header in bytes.
    const BYTES: usize;
    /// `true` if the format has the near-lossless version 2.
    const NEAR_LOSSLESS: bool;
    /// The part grid of the format.
    type Grid;

    /// The fields the shared checks read.
    fn common(&self) -> CommonFields;

    /// The part grid this header describes.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] for zero dimensions.
    fn grid(&self) -> Result<Self::Grid, CoderError>;

    /// Writes the format's fields between the version and the delta byte.
    fn write_fields(&self, writer: &mut BitWriter);

    /// Reads the format's fields after the version, ending with
    /// [`FieldReader::delta`] if the format has version 2.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream ends first.
    fn read_fields(fields: &mut FieldReader<'_, '_>) -> Result<Self, CoderError>;

    /// The format's own field rules, run after the common checks.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] or
    /// [`CoderError::UnsupportedFormat`] for a field out of range.
    fn check_format(&self) -> Result<(), CoderError> {
        Ok(())
    }

    /// Serialized header size in bytes: [`ContainerHeader::BYTES`], plus the
    /// delta byte of a near-lossless header.
    fn serialized_bytes(&self) -> usize {
        Self::BYTES + usize::from(self.common().delta != 0)
    }

    /// Checks the header's scale count against an engine's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::UnsupportedFormat`] on a mismatch.
    fn ensure_scales(&self, expected: u32) -> Result<(), CoderError> {
        let scales = self.common().scales;
        if scales != expected {
            return Err(CoderError::UnsupportedFormat(format!(
                "{} stream uses {scales} scales but the engine is configured for {expected}",
                Self::NAME
            )));
        }
        Ok(())
    }

    /// The part grid as bricks (a 2-D header is one slice deep).
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] for zero dimensions.
    fn bricks(&self) -> Result<BrickGrid, CoderError> {
        let c = self.common();
        BrickGrid::new(c.width, c.height, c.depth, c.tile_width, c.tile_height, c.brick_depth)
            .map_err(|e| {
                CoderError::MalformedStream(format!("invalid part geometry in header: {e}"))
            })
    }

    /// Validates the field ranges the writer enforces: the common checks,
    /// then [`ContainerHeader::check_format`].
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] or
    /// [`CoderError::UnsupportedFormat`] for out-of-range fields.
    fn validate(&self) -> Result<(), CoderError> {
        let c = self.common();
        if c.width == 0 || c.height == 0 || c.depth == 0 {
            return Err(CoderError::MalformedStream(format!(
                "implausible dimensions {}x{}x{}",
                c.width, c.height, c.depth
            )));
        }
        if c.tile_width == 0 || c.tile_height == 0 || c.brick_depth == 0 {
            return Err(CoderError::MalformedStream("zero tile dimensions".to_owned()));
        }
        check_tile_sides(c.tile_width, c.tile_height)?;
        if !(1..=16).contains(&c.bit_depth) {
            return Err(CoderError::MalformedStream(format!(
                "unsupported bit depth {}",
                c.bit_depth
            )));
        }
        if !(1..=15).contains(&c.scales) {
            return Err(CoderError::MalformedStream(format!(
                "unsupported scale count {}",
                c.scales
            )));
        }
        self.check_format()
    }

    /// Serializes the header (validation first, so a malformed header can
    /// never be written).
    ///
    /// # Errors
    ///
    /// See [`ContainerHeader::validate`]; additionally rejects dimensions
    /// beyond the 32-bit header fields.
    fn write(&self, writer: &mut BitWriter) -> Result<(), CoderError> {
        self.validate()?;
        let c = self.common();
        if [c.width, c.height, c.depth, c.brick_depth].into_iter().any(|v| v > u32::MAX as usize) {
            return Err(CoderError::UnsupportedFormat(format!(
                "dimensions {}x{}x{} exceed the container's 32-bit fields",
                c.width, c.height, c.depth
            )));
        }
        let version = if c.delta == 0 { LOSSLESS_VERSION } else { NEAR_LOSSLESS_VERSION };
        writer.write_bits(u64::from(Self::MAGIC), 32);
        writer.write_bits(u64::from(version), 8);
        self.write_fields(writer);
        if c.delta != 0 {
            writer.write_bits(u64::from(c.delta), 8);
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
    fn read(reader: &mut BitReader<'_>) -> Result<Self, CoderError> {
        let mut fields = FieldReader { reader, format: Self::NAME, version: 0 };
        if fields.read(32, "magic")? != u64::from(Self::MAGIC) {
            return Err(CoderError::UnsupportedFormat(format!("bad {} magic number", Self::NAME)));
        }
        let newest = if Self::NEAR_LOSSLESS { NEAR_LOSSLESS_VERSION } else { LOSSLESS_VERSION };
        fields.version = fields.read(8, "version")? as u8;
        if !(LOSSLESS_VERSION..=newest).contains(&fields.version) {
            return Err(CoderError::UnsupportedFormat(format!(
                "{} container version {} is not supported (this build reads \
                 {LOSSLESS_VERSION}..={newest})",
                Self::NAME,
                fields.version
            )));
        }
        let header = Self::read_fields(&mut fields)?;
        header.validate()?;
        Ok(header)
    }
}

/// The part count `header` declares, in `u128` so no forged geometry can
/// overflow it.
fn declared_parts<H: ContainerHeader>(header: &H) -> Result<u128, CoderError> {
    let bricks = header.bricks()?;
    let plane = bricks.plane();
    Ok(plane.tiles_x() as u128 * plane.tiles_y() as u128 * bricks.bricks_z() as u128)
}

/// Assembles a container from a header and one payload per part (in the
/// grid's part order).
///
/// # Errors
///
/// Returns an error if the header is invalid or the payload count does not
/// match the header's grid.
pub fn write_container<H: ContainerHeader>(
    header: &H,
    payloads: &[Vec<u8>],
) -> Result<Vec<u8>, CoderError> {
    let parts = declared_parts(header)?;
    if payloads.len() as u128 != parts {
        return Err(CoderError::MalformedStream(format!(
            "{} part payloads supplied but the grid has {parts}",
            payloads.len()
        )));
    }
    let mut writer = BitWriter::new();
    header.write(&mut writer)?;
    let header_bytes = header.serialized_bytes();
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
    Ok(bytes)
}

/// Reads and cross-validates the directory of `claimed` parts: first bounds
/// the entry count by what `stream_len` bytes can physically hold (nothing
/// is allocated from the header before this check), then verifies that the
/// offsets start exactly at the end of the directory, never decrease, and
/// end exactly at the stream's last byte.
fn read_directory(
    reader: &mut BitReader<'_>,
    stream_len: usize,
    header_bytes: usize,
    claimed: u128,
) -> Result<Vec<u64>, CoderError> {
    let entry_bytes = OFFSET_BITS as usize / 8;
    let available = (stream_len.saturating_sub(header_bytes) / entry_bytes) as u128;
    if claimed + 1 > available {
        return Err(CoderError::MalformedStream(format!(
            "part directory needs {} entries but at most {available} fit the stream",
            claimed + 1
        )));
    }
    let parts = claimed as usize;
    let mut offsets = Vec::with_capacity(parts + 1);
    for index in 0..=parts {
        let offset = reader.read_bits(OFFSET_BITS).map_err(|_| {
            CoderError::MalformedStream(format!(
                "truncated part directory: missing offset {index} of {}",
                parts + 1
            ))
        })?;
        offsets.push(offset);
    }
    let payload_start = (header_bytes + (parts + 1) * entry_bytes) as u64;
    if offsets[0] != payload_start {
        return Err(CoderError::MalformedStream(format!(
            "part directory starts payloads at byte {} but the header implies {payload_start}",
            offsets[0]
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(CoderError::MalformedStream(
            "part directory offsets are not monotonically non-decreasing".to_owned(),
        ));
    }
    let end = offsets[parts];
    if end != stream_len as u64 {
        return Err(CoderError::MalformedStream(format!(
            "part directory ends payloads at byte {end} but the container holds {stream_len} bytes"
        )));
    }
    Ok(offsets)
}

/// A parsed (but not yet decoded) container: the header, the validated part
/// directory and a borrow of the raw bytes. Parts can be sliced out one by
/// one — what the parallel decoders hand to their workers and what the
/// streaming decoders seek through.
#[derive(Debug, Clone)]
pub struct Container<'a, H> {
    header: H,
    offsets: Vec<u64>,
    bytes: &'a [u8],
}

impl<'a, H: ContainerHeader> Container<'a, H> {
    /// `true` if `bytes` starts with the format's magic: the one sniff that
    /// routes a stream to its decoder.
    #[must_use]
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.get(..4) == Some(&H::MAGIC.to_be_bytes()[..])
    }

    /// Parses and validates the header and the directory, in the order the
    /// [module docs](crate::container) set out.
    ///
    /// # Errors
    ///
    /// * [`CoderError::UnsupportedFormat`] for a wrong magic or version.
    /// * [`CoderError::MalformedStream`] for invalid header fields, an
    ///   implausible sample count, a truncated directory, or inconsistent
    ///   offsets.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CoderError> {
        let mut reader = BitReader::new(bytes);
        let header = H::read(&mut reader)?;
        let c = header.common();
        let samples = c.width as u128 * c.height as u128 * c.depth as u128;
        if samples > bytes.len() as u128 * 8 {
            return Err(CoderError::MalformedStream(format!(
                "header declares {}x{}x{} samples but the {}-byte container cannot encode even \
                 one bit per sample",
                c.width,
                c.height,
                c.depth,
                bytes.len()
            )));
        }
        let claimed = declared_parts(&header)?;
        let offsets = read_directory(&mut reader, bytes.len(), header.serialized_bytes(), claimed)?;
        Ok(Self { header, offsets, bytes })
    }

    /// The container header.
    #[must_use]
    pub fn header(&self) -> &H {
        &self.header
    }

    /// The part grid of the container.
    ///
    /// # Errors
    ///
    /// See [`ContainerHeader::grid`] (cannot fail after a successful parse).
    pub fn grid(&self) -> Result<H::Grid, CoderError> {
        self.header.grid()
    }

    /// Number of parts in the container.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The raw payload of part `index`, in the grid's part order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= part_count()`.
    #[must_use]
    pub fn part_bytes(&self, index: usize) -> &'a [u8] {
        assert!(index < self.part_count(), "part index {index} out of bounds");
        &self.bytes[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// Consumes the parsed stream into its validated directory:
    /// `part_count() + 1` byte offsets into the container, ascending, the
    /// last one its length — for owners of the bytes that keep the parse and
    /// drop the borrow.
    #[must_use]
    pub fn into_offsets(self) -> Vec<u64> {
        self.offsets
    }
}
