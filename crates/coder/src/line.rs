//! The codec's encode session: the line-based fused DWT feeding one
//! incremental Rice coder per subband.
//!
//! [`RowEncoder`] pairs [`lwc_lifting::LineDwt53`] — the one-pass
//! multi-scale transform with an `O(width x levels)` coefficient working set
//! — with one [`StreamingSubbandEncoder`] per subband: coefficient rows flow
//! from the cascade through the near-lossless quantizer straight into the
//! per-band Rice coders, and [`RowEncoder::finish`] splices the finished
//! bands (in [`subband_order`]) behind the stream header at bit level.
//!
//! This is the codec's only forward transform: [`LosslessCodec::compress_view`]
//! runs a session over the view's rows, and [`LosslessCodec::begin`] opens
//! one for frames supplied row by row. The cascade computes every
//! coefficient with the integer formulas of the multi-pass
//! [`lwc_lifting::Lifting53`], [`quant::quantize`] maps each coefficient on
//! its own, and the block-adaptive Rice code is strictly sequential per band,
//! so the spliced stream is byte-identical to transforming the whole frame,
//! copying out each subband, quantizing and coding it — the multi-pass
//! composition the property tests keep as the reference.
//!
//! The session never allocates a frame-sized coefficient buffer: peak
//! coefficient state is the cascade's row slots, one quantizer row and at
//! most one partial Rice block per band ([`RowEncoder::working_set_samples`]).

use crate::bitio::BitWriter;
use crate::codec::subband_slot;
use crate::quant::{self, QuantSchedule};
use crate::{subband_order, StreamHeader, StreamingSubbandEncoder};
use lwc_lifting::{CoeffRow, LineDwt53};

#[cfg(doc)]
use crate::LosslessCodec;

/// An in-progress streaming encode, opened by [`LosslessCodec::begin`]: push
/// pixel rows top to bottom with [`RowEncoder::push_row`], collect the
/// stream with [`RowEncoder::finish`].
///
/// The stream is the codec's own: `LWC1` for a lossless codec, `LWCQ` with
/// the codec's per-pixel bound for a near-lossless one, byte-identical to
/// [`LosslessCodec::compress`] of the same frame either way.
///
/// ```
/// use lwc_coder::LosslessCodec;
/// use lwc_image::{stats, synth};
///
/// # fn main() -> Result<(), lwc_coder::CoderError> {
/// let image = synth::ct_phantom(96, 64, 12, 1);
/// let codec = LosslessCodec::near_lossless(4, 2)?;
/// let mut session = codec.begin(96, 64, 12)?;
/// for y in 0..64 {
///     session.push_row(image.view().row(y));
/// }
/// let bytes = session.finish();
/// assert_eq!(bytes, codec.compress(&image)?); // same stream
/// assert!(stats::max_abs_diff(&image, &codec.decompress(&bytes)?)? <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RowEncoder {
    header: StreamHeader,
    dwt: LineDwt53,
    bands: BandSinks,
}

/// Where the cascade's coefficient rows go: the quantizer, then the band's
/// Rice coder.
#[derive(Debug)]
struct BandSinks {
    scales: u32,
    schedule: QuantSchedule,
    /// One incremental Rice encoder per subband, indexed by the band's
    /// position in [`subband_order`].
    encoders: Vec<StreamingSubbandEncoder>,
    /// The row being quantized (bands with a nonzero allowance only).
    scratch: Vec<i32>,
}

impl BandSinks {
    fn accept(&mut self, row: CoeffRow<'_>) {
        let slot = subband_slot(self.scales, row.scale, row.band);
        let allowance = self.schedule.allowance(row.scale, row.band);
        if allowance == 0 {
            self.encoders[slot].push(row.samples);
        } else {
            self.scratch.clear();
            self.scratch.extend_from_slice(row.samples);
            quant::quantize(&mut self.scratch, allowance);
            self.encoders[slot].push(&self.scratch);
        }
    }
}

impl RowEncoder {
    /// Opens a session for a frame of `header`'s shape, quantizing with the
    /// schedule of the header's delta.
    pub(crate) fn new(header: StreamHeader) -> Result<Self, lwc_lifting::LiftingError> {
        let dwt = LineDwt53::new(header.width, header.height, header.scales)?;
        let encoders = subband_order(header.scales)
            .map(|(scale, band)| {
                StreamingSubbandEncoder::with_capacity(header.band_len(scale, band))
            })
            .collect();
        let bands = BandSinks {
            scales: header.scales,
            schedule: QuantSchedule::for_delta(header.delta, header.scales),
            encoders,
            scratch: Vec::new(),
        };
        Ok(Self { header, dwt, bands })
    }

    /// Coefficient samples currently buffered: the transform's row slots,
    /// the quantizer row and the partial Rice block pending in each band
    /// encoder. Bounded by `O(width x levels)` — the streaming tests assert
    /// it never approaches the frame's pixel count. (The accumulating
    /// *compressed* bits are excluded: they are the output, not working
    /// state.)
    #[must_use]
    pub fn working_set_samples(&self) -> usize {
        self.dwt.working_set_samples()
            + self.bands.scratch.capacity()
            + self
                .bands
                .encoders
                .iter()
                .map(StreamingSubbandEncoder::buffered_samples)
                .sum::<usize>()
    }

    /// Pushes the next pixel row (top to bottom); every coefficient row the
    /// cascade releases is quantized and Rice-coded immediately.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the frame width or more than
    /// `height` rows are pushed.
    pub fn push_row(&mut self, row: &[i32]) {
        let bands = &mut self.bands;
        self.dwt.push_row(row, &mut |c: CoeffRow<'_>| bands.accept(c));
    }

    /// Splices the per-band bitstreams (in [`subband_order`]) behind the
    /// header into the final stream — byte-identical to
    /// [`LosslessCodec::compress`] of the same frame. The last pushed row
    /// has already emitted every coefficient.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.dwt.finish();
        let streams: Vec<(Vec<u8>, u64)> =
            self.bands.encoders.into_iter().map(StreamingSubbandEncoder::finish).collect();
        // The header is a few bytes; one allocation holds the whole stream.
        let bits: u64 = streams.iter().map(|(_, bits)| bits).sum();
        let mut writer = BitWriter::with_capacity((bits / 8) as usize + 64);
        self.header.write(&mut writer);
        for (bytes, bits) in streams {
            writer.append(&bytes, bits);
        }
        writer.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CoderError, LosslessCodec};
    use lwc_image::{stats, synth};

    #[test]
    fn push_style_session_roundtrips_and_stays_bounded() {
        let (w, h) = (96usize, 256usize);
        let image = synth::ct_phantom(w, h, 12, 7);
        let codec = LosslessCodec::new(4).unwrap();
        let mut encoder = codec.begin(w, h, 12).unwrap();
        let mut peak = 0usize;
        for y in 0..h {
            encoder.push_row(image.view().row(y));
            peak = peak.max(encoder.working_set_samples());
        }
        let bytes = encoder.finish();
        assert!(peak < w * h / 4, "peak coefficient working set {peak} vs {} pixels", w * h);
        let back = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    /// A push-style session emits exactly the one-call `compress` stream,
    /// lossless and near-lossless. Regression: the retired opt-in line
    /// engine rebuilt every codec as lossless, so a near-lossless
    /// configuration silently produced `LWC1`; a session must carry the
    /// codec's bound into the `LWCQ` stream and decode within it.
    #[test]
    fn streamed_bytes_are_identical_to_the_sequential_codec() {
        for (w, h) in [(1usize, 1usize), (1, 17), (17, 1), (77, 61), (64, 37)] {
            for delta in [0u8, 2] {
                let image = synth::mr_slice(w, h, 12, (w * h) as u64 + u64::from(delta));
                let codec = LosslessCodec::near_lossless(3, delta).unwrap();
                let mut session = codec.begin(w, h, 12).unwrap();
                for y in 0..h {
                    session.push_row(image.view().row(y));
                }
                let bytes = session.finish();
                let magic: &[u8] = if delta == 0 { b"LWC1" } else { b"LWCQ" };
                assert_eq!(&bytes[..4], magic, "{w}x{h}, delta {delta}");
                assert_eq!(bytes, codec.compress(&image).unwrap(), "{w}x{h}, delta {delta}");
                let back = LosslessCodec::new(3).unwrap().decompress(&bytes).unwrap();
                let worst = stats::max_abs_diff(&image, &back).unwrap();
                assert!(worst <= i32::from(delta), "{w}x{h}: max error {worst} > {delta}");
            }
        }
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let codec = LosslessCodec::new(3).unwrap();
        assert!(matches!(codec.begin(0, 4, 12), Err(CoderError::Lifting(_))));
        assert!(matches!(codec.begin(1 << 20, 4, 12), Err(CoderError::UnsupportedFormat(_))));
        assert!(matches!(codec.begin(4, 4, 0), Err(CoderError::UnsupportedFormat(_))));
    }
}
