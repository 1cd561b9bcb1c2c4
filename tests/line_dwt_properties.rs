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
//! * (release builds only) a full 4096x4096 streaming encode keeps its
//!   coefficient working set at `O(width x levels)` — the software analogue
//!   of the paper's bounded line-buffer memory.

use lwc_core::lwc_coder::bitio::BitWriter;
use lwc_core::lwc_coder::{quant, subband_order};
use lwc_core::lwc_lifting::forward_z;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
