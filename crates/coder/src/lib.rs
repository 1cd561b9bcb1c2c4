//! # lwc-coder — lossless entropy coding of wavelet subbands
//!
//! The paper designs the *transform* hardware for a lossless medical-image
//! compression system; the entropy-coding back end is out of its scope. To
//! make this reproduction a complete, usable compressor, this crate adds:
//!
//! * [`bitio`] — bit-level writers/readers,
//! * [`rice`] — Rice/Golomb codes (the standard low-complexity choice for
//!   wavelet detail statistics): the one mean-based parameter rule, the
//!   block decode and the per-codeword reference,
//! * [`BlockRiceCodec`] — the one block-adaptive Rice subband coder, generic
//!   over the coded word ([`RiceWord`]); [`SubbandCodec`] is its `i32`
//!   instance, which serializes a multi-scale integer decomposition subband
//!   by subband,
//! * [`LosslessCodec`] — an end-to-end image codec built on the reversible
//!   5/3 lifting transform from `lwc-lifting`, byte-exact on decode; every
//!   encode is one streaming pass of the line-based cascade into per-subband
//!   Rice coders ([`RowEncoder`], also the push-style row API),
//! * [`quant`] — the near-lossless mode: deterministic detail-band
//!   quantization schedules derived from a per-pixel error bound `δ` and
//!   the 5/3 synthesis gain, carried in the `LWCQ` stream header
//!   ([`LosslessCodec::near_lossless`]; `δ = 0` stays bit-identical to
//!   the lossless streams),
//! * [`container`] — the framing every multi-part container shares: magic
//!   and version, the common field checks, the decompression-bomb guard,
//!   the 48-bit part directory, one writer and one parser ([`Container`]),
//! * [`tiled`] — the versioned tiled container format (`LWCT`): a tile-grid
//!   header wrapping independent per-tile streams, the format behind the
//!   tile-parallel engine in `lwc-pipeline`,
//! * [`fixedband`] — the fixed-word instance for the paper's own datapath:
//!   [`FixedSubbandCodec`] is [`BlockRiceCodec`] over the `i64` transform
//!   words the fixed-point DWT produces at the Table II word lengths (6-bit
//!   parameters, 64-bit zig-zag),
//! * [`fixedtiled`] — the versioned fixed-path container format (`LWCF`)
//!   that wraps per-tile fixed-subband payloads in the same framing,
//! * [`volume`] — the versioned volumetric container format (`LWCV`): the
//!   tile framing plus a z axis, one payload per brick.
//!
//! The fixed-point transform of the paper is validated for losslessness in
//! `lwc-dwt`; historically the end-to-end compression numbers used only the
//! reversible integer transform (see DESIGN.md §5), but with [`fixedband`]
//! and [`fixedtiled`] the paper-exact datapath now has a complete entropy
//! back end: the same subband coder, at 64-bit words.
//!
//! ```
//! use lwc_coder::LosslessCodec;
//! use lwc_image::synth;
//!
//! # fn main() -> Result<(), lwc_coder::CoderError> {
//! let image = synth::ct_phantom(64, 64, 12, 1);
//! let codec = LosslessCodec::new(4)?;
//! let bytes = codec.compress(&image)?;
//! let restored = codec.decompress(&bytes)?;
//! assert_eq!(image.samples(), restored.samples());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
mod codec;
pub mod container;
mod error;
pub mod fixedband;
pub mod fixedtiled;
mod line;
pub mod quant;
pub mod rice;
mod subband;
pub mod tiled;
pub mod volume;

pub use codec::{subband_order, CompressionReport, LosslessCodec, StreamHeader};
pub use container::{
    check_tile_sides, write_container, write_container as write_volume_container, Container,
    ContainerHeader,
};
pub use error::CoderError;
pub use fixedband::{FixedSubbandCodec, FIXED_PARAMETER_BITS, MAX_FIXED_RICE_PARAMETER};
pub use fixedtiled::{FixedHeader, FixedStream, FIXED_HEADER_BYTES, FIXED_MAGIC};
pub use line::RowEncoder;
pub use quant::{clamp_reconstruction, plane_delta_for_volume, QuantSchedule};
pub use subband::{
    BlockRiceCodec, RiceWord, StreamingSubbandEncoder, SubbandCodec, BLOCK_SIZE, MAX_UNARY_RUN_BITS,
};
pub use tiled::{TiledHeader, TiledStream};
pub use volume::{check_z_scales, VolumeHeader, VolumeStream, VOLUME_HEADER_BYTES, VOLUME_MAGIC};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LosslessCodec>();
        assert_send_sync::<CoderError>();
        assert_send_sync::<CompressionReport>();
    }
}
