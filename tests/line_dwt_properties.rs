//! Property tests for the line-based fused DWT engines:
//!
//! * the lifting-path [`LineDwt53`] is bit-identical to the multi-pass
//!   [`Lifting53`] on arbitrary geometries (odd, prime, degenerate) at any
//!   decomposition depth,
//! * the fixed-point [`LineFixedDwt`] is bit-identical to the paper-exact
//!   multi-pass [`FixedDwt2d`] across every Table I bank and decomposable
//!   geometry,
//! * [`LosslessCodec::compress_view`], which encodes through the line
//!   cascade, produces byte-for-byte the multi-pass reference composition —
//!   whole-frame transform, per-subband copy, quantization, Rice coding —
//!   on ragged shapes, strided windows and signed z-coefficient planes, at
//!   every near-lossless bound, and decodes within that bound,
//! * the inverse cascade [`LineIdwt53`] reproduces the multi-pass
//!   [`Lifting53`] inverse word for word on every frame an encoder emits
//!   (forward outputs of 1–16-bit images) and on random coefficient frames
//!   that keep every intermediate inside `i32`, at depths beyond the
//!   geometry, never panics on extreme coefficients, and decodes `LWCQ`
//!   streams exactly like dequantizing into the Mallat layout and running
//!   the multi-pass inverse,
//! * (release builds only) a full 4096x4096 streaming encode keeps its
//!   coefficient working set at `O(width x levels)` — the software analogue
//!   of the paper's bounded line-buffer memory.

use lwc_core::lwc_coder::bitio::BitWriter;
use lwc_core::lwc_coder::{quant, subband_order, QuantSchedule, StreamHeader};
use lwc_core::lwc_lifting::geometry::band_rect;
use lwc_core::lwc_lifting::{forward_z, LiftingCoefficients};
use lwc_core::prelude::*;
use proptest::prelude::*;

/// The multi-pass composition `LosslessCodec::compress_view` must
/// reproduce, built from public functions only: the whole window through
/// `Lifting53::forward_view`, then every subband copied out, quantized and
/// Rice-coded behind the header.
fn multi_pass_reference(codec: &LosslessCodec, view: &ImageView<'_>) -> Vec<u8> {
    let header = codec.header_for_view(view).unwrap();
    let coeffs = codec.transform().forward_view(view).unwrap();
    let schedule = codec.schedule();
    let mut writer = BitWriter::new();
    header.write(&mut writer);
    for (scale, band) in subband_order(codec.scales()) {
        let mut samples = coeffs.subband(scale, band);
        quant::quantize(&mut samples, schedule.allowance(scale, band));
        codec.subband_codec().encode_subband(&mut writer, &samples);
    }
    writer.into_bytes()
}

/// The multi-pass decode the codec's inverse cascade must reproduce:
/// every decoded subband scattered (and, for a near-lossless stream,
/// dequantized by the header's schedule) into the Mallat layout, then
/// `Lifting53::inverse_raw_owned`.
fn multi_pass_decode(codec: &LosslessCodec, bytes: &[u8]) -> Vec<i32> {
    let (header, mut subbands) = codec.decode_subbands(bytes).unwrap();
    let (width, height) = (header.width, header.height);
    let schedule = QuantSchedule::for_delta(header.delta, codec.scales());
    let mut data = vec![0i32; width * height];
    for ((scale, band), samples) in subband_order(codec.scales()).zip(&mut subbands) {
        quant::dequantize(samples, schedule.allowance(scale, band));
        let rect = band_rect(width, height, scale, band);
        for (i, &c) in samples.iter().enumerate() {
            data[(rect.y + i / rect.width) * width + rect.x + i % rect.width] = c;
        }
    }
    let coeffs =
        LiftingCoefficients::from_raw(data, width, height, codec.scales(), header.bit_depth)
            .unwrap();
    codec.transform().inverse_raw_owned(coeffs).unwrap()
}

/// `n` forced to 1 by `degenerate` (0 forces the width, 1 the height).
fn shape(width: usize, height: usize, degenerate: usize) -> (usize, usize) {
    (if degenerate == 0 { 1 } else { width }, if degenerate == 1 { 1 } else { height })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inverse cascade equals the multi-pass inverse on the forward
    /// output of any 1–16-bit image, on odd, prime and one-sample sides, at
    /// 1–8 scales (past the point where the pyramid saturates).
    #[test]
    fn inverse_cascade_matches_multi_pass_on_forward_outputs(
        width in 1usize..=97,
        height in 1usize..=97,
        degenerate in 0usize..4,
        bit_depth in 1u32..=16,
        scales in 1u32..=8,
        seed in 0u64..10_000,
    ) {
        let (width, height) = shape(width, height, degenerate);
        let image = synth::random_image(width, height, bit_depth, seed);
        let lifting = Lifting53::new(scales).unwrap();
        let coeffs = LineDwt53::forward_view(&image.view(), scales).unwrap();
        let cascade = LineIdwt53::inverse_raw(&coeffs).unwrap();
        prop_assert!(
            cascade == lifting.inverse_raw_owned(coeffs).unwrap(),
            "cascade != multi-pass for {width}x{height} {bit_depth}-bit at {scales} scales"
        );
        prop_assert!(cascade == image.samples(), "cascade must invert the forward transform");
    }

    /// Random coefficient frames with |c| < 2^16 at up to 8 scales: no
    /// intermediate leaves `i32`, so the cascade's wrapping row kernels and
    /// the multi-pass inverse agree word for word.
    #[test]
    fn inverse_cascade_matches_multi_pass_on_random_coefficients(
        width in 1usize..=97,
        height in 1usize..=97,
        degenerate in 0usize..4,
        scales in 1u32..=8,
        seed in 0u64..10_000,
    ) {
        use rand::{Rng, SeedableRng};
        let (width, height) = shape(width, height, degenerate);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let limit = (1 << 16) - 1;
        let data: Vec<i32> = (0..width * height).map(|_| rng.gen_range(-limit..=limit)).collect();
        let coeffs = LiftingCoefficients::from_raw(data, width, height, scales, 16).unwrap();
        let cascade = LineIdwt53::inverse_raw(&coeffs).unwrap();
        let multi = Lifting53::new(scales).unwrap().inverse_raw_owned(coeffs).unwrap();
        prop_assert!(cascade == multi, "cascade != multi-pass for {width}x{height} at {scales} scales");
    }

    /// Lifting datapath: the one-pass cascade reproduces the multi-pass
    /// pyramid word for word, including ragged odd/prime dimensions where
    /// the ceil-halving pyramid saturates.
    #[test]
    fn lifting_fused_matches_multi_pass(
        width in 1usize..=97,
        height in 1usize..=97,
        scales in 1u32..=5,
        seed in 0u64..10_000,
    ) {
        let image = synth::random_image(width, height, 12, seed);
        let fused = LineDwt53::forward_view(&image.view(), scales).unwrap();
        let multi = Lifting53::new(scales).unwrap().forward(&image).unwrap();
        prop_assert!(fused == multi, "fused != multi-pass for {width}x{height} at {scales} scales");
    }

    /// Fixed-point datapath: fused == multi-pass for every quantized Table I
    /// bank on decomposable geometries (dimensions divisible by
    /// `2^scales`), pinning the deferred periodic boundary rows and the
    /// fused vertical accumulation to the reference.
    #[test]
    fn fixed_fused_matches_multi_pass(
        filter_index in 0usize..6,
        scales in 1u32..=5,
        w_factor in 1usize..=5,
        h_factor in 1usize..=5,
        seed in 0u64..10_000,
    ) {
        let id = FilterId::ALL[filter_index];
        let bank = FilterBank::table1(id);
        let hw = FixedDwt2d::paper_default(&bank, scales).unwrap();
        let (w, h) = (w_factor << scales, h_factor << scales);
        let image = synth::random_image(w, h, 12, seed);
        let fused = LineFixedDwt::forward_view(&hw, &image.view()).unwrap();
        prop_assert!(fused == hw.forward(&image).unwrap(), "fused != multi-pass for {id}: {w}x{h} at {scales} scales");
    }

    /// The codec's line-cascade encode emits the multi-pass composition's
    /// exact bytes (quantizing row by row is quantizing the band; subband
    /// splicing is invisible in the stream) and decodes within its bound.
    /// `source` picks what is encoded: 0 a whole frame, 1 a strided window of
    /// a larger frame, 2 a signed z-coefficient plane as the volume engine's
    /// brick encoder feeds them. `degenerate` forces 1xN (0) or Nx1 (1)
    /// shapes.
    #[test]
    fn codec_matches_multi_pass_reference(
        width in 1usize..=80,
        height in 1usize..=80,
        degenerate in 0usize..4,
        scales in 1u32..=6,
        delta_index in 0usize..4,
        source in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let width = if degenerate == 0 { 1 } else { width };
        let height = if degenerate == 1 { 1 } else { height };
        let delta = [0u8, 2, 3, 5][delta_index];
        let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
        let (pad_x, pad_y) = (seed as usize % 7, seed as usize % 5);
        let frame = synth::random_image(width + pad_x + 3, height + pad_y + 2, 12, seed);
        let depth = 4;
        let mut planes: Vec<i32> = (0..depth as u64)
            .flat_map(|z| synth::mr_slice(width, height, 12, seed + z).samples().to_vec())
            .collect();
        forward_z(&mut planes, width * height, depth, 2).unwrap();
        let view = match source {
            0 => frame.view_rect(TileRect { x: 0, y: 0, width, height }).unwrap(),
            1 => frame.view_rect(TileRect { x: pad_x, y: pad_y, width, height }).unwrap(),
            _ => {
                let plane = &planes[(depth - 1) * width * height..];
                ImageView::from_raw(plane, width, height, width, 12).unwrap()
            }
        };
        let bytes = codec.compress_view(&view).unwrap();
        prop_assert!(
            bytes == multi_pass_reference(&codec, &view),
            "{width}x{height} at {scales} scales, delta {delta}, source {source}"
        );
        let (_, back) = codec.decompress_raw(&bytes).unwrap();
        let worst = (0..height)
            .flat_map(|y| view.row(y).iter().zip(&back[y * width..(y + 1) * width]))
            .map(|(a, b)| (a - b).unsigned_abs())
            .max()
            .unwrap();
        prop_assert!(worst <= u32::from(delta), "max error {worst} exceeds delta {delta}");
    }
}

/// Coefficients at the ends of the `i32` range leave `i32` inside the
/// synthesis: the cascade must still return samples, never panic — on its
/// own and through the codec, whose near-lossless dequantization multiplies
/// such indices further out.
#[test]
fn extreme_coefficient_frames_never_panic() {
    const EXTREMES: [i32; 5] = [i32::MIN, i32::MAX, i32::MAX, i32::MIN, i32::MIN];
    for (width, height) in [(1usize, 1usize), (1, 9), (9, 1), (2, 2), (17, 12), (33, 31)] {
        for scales in [1u32, 3, 6] {
            let pattern = |i: usize| EXTREMES[i % EXTREMES.len()];
            let data: Vec<i32> = (0..width * height).map(pattern).collect();
            let coeffs = LiftingCoefficients::from_raw(data, width, height, scales, 16).unwrap();
            assert_eq!(LineIdwt53::inverse_raw(&coeffs).unwrap().len(), width * height);
            for delta in [0u8, 4] {
                let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
                let header = StreamHeader { width, height, bit_depth: 16, scales, delta };
                let subbands: Vec<Vec<i32>> = subband_order(scales)
                    .map(|(scale, band)| (0..header.band_len(scale, band)).map(pattern).collect())
                    .collect();
                let back = codec.reassemble_raw(&header, &subbands).unwrap();
                assert_eq!(back.len(), width * height, "{width}x{height}/{scales}, delta {delta}");
            }
        }
    }
}

/// `LWCQ` decode: the cascade dequantizes each row as it pulls it, and the
/// result equals dequantizing into the Mallat layout followed by the
/// multi-pass inverse, for every bound the quantizer can take.
#[test]
fn near_lossless_decode_matches_dequantize_then_multi_pass() {
    for (width, height) in [(1usize, 1usize), (1, 23), (23, 1), (64, 64), (77, 41), (97, 89)] {
        for delta in [2u8, 4, 8] {
            for scales in [1u32, 3, 5] {
                let seed = (width * height) as u64 + u64::from(delta);
                let image = synth::mr_slice(width, height, 12, seed);
                let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
                let bytes = codec.compress(&image).unwrap();
                assert_eq!(&bytes[..4], b"LWCQ");
                let (_, cascade) = codec.decompress_raw(&bytes).unwrap();
                assert_eq!(
                    cascade,
                    multi_pass_decode(&codec, &bytes),
                    "{width}x{height} at {scales} scales, delta {delta}"
                );
            }
        }
    }
}

/// Release-gated smoke at real frame scale: a full 4096x4096 push-style
/// encode must hold the `O(width x levels)` working-set bound while still
/// producing the multi-pass composition's exact stream. Debug builds skip it
/// (the unoptimized transform takes minutes at this size).
#[cfg(not(debug_assertions))]
#[test]
fn full_frame_streaming_encode_stays_bounded() {
    let (w, h, scales) = (4096usize, 4096usize, 5u32);
    let frame = synth::ct_phantom(w, h, 12, 7);
    let codec = LosslessCodec::new(scales).unwrap();
    let mut session = codec.begin(w, h, 12).unwrap();
    let mut peak = 0usize;
    for y in 0..h {
        session.push_row(frame.view().row(y));
        peak = peak.max(session.working_set_samples());
    }
    let stream = session.finish();
    assert_eq!(stream, multi_pass_reference(&codec, &frame.view()));
    // The DWT rings are O(width x levels); the dominant term is the encoders'
    // buffered deferred-boundary coefficients, still far below the frame.
    assert!(peak < w * h / 8, "peak working set {peak} samples");
    assert!(peak > 0, "the session must actually buffer rows");
}
