//! Property tests for the SIMD-friendly MAC kernel and the per-tile
//! fixed-point transform of the `LWCF` engine:
//!
//! * `MacAccumulator::mac_slice` is **bit-identical** to folding the same
//!   taps through the scalar MAC chain — for random operands at odd/prime
//!   lengths straddling the lane width, and for every Table I filter bank's
//!   quantized kernels (every tap count the datapath ever runs),
//! * the line cascade `LineFixedDwt` run over a tile's strided window of a
//!   larger frame produces exactly the words the multi-pass `FixedDwt2d`
//!   produces for the cropped region, on every tile of a ragged grid,
//! * undecomposable tile shapes are rejected up front with a typed error.

use lwc_core::lwc_fixed::MAC_LANES;
use lwc_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random raw samples bounded so every tested dot product provably fits the
/// 64-bit accumulator (the precondition of the unchecked MAC paths, which
/// the DWT establishes once per pass via `dot_product_fits_i64`).
fn random_samples(rng: &mut StdRng, len: usize) -> Vec<i64> {
    (0..len).map(|_| rng.gen_range(-(1i64 << 29)..(1i64 << 29))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mac_slice_matches_the_scalar_chain_on_random_operands(
        len in 0usize..=67,
        seed in 0u64..=u64::MAX,
    ) {
        // Lengths sweep every chunk/tail split around the lane width,
        // including odd and prime; operand magnitudes keep the worst-case
        // L1-norm product inside i64 (67 * 2^24 * 2^29 < 2^60).
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<i64> =
            (0..len).map(|_| rng.gen_range(-(1i64 << 24)..(1i64 << 24))).collect();
        let samples = random_samples(&mut rng, len);
        let mut scalar = MacAccumulator::new();
        for (&c, &s) in coeffs.iter().zip(&samples) {
            scalar.mac_unchecked(c, s);
        }
        let mut sliced = MacAccumulator::new();
        sliced.mac_slice(&coeffs, &samples);
        prop_assert!(
            scalar.value() == sliced.value(),
            "len {} (lanes {}): scalar {} vs sliced {}",
            len, MAC_LANES, scalar.value(), sliced.value()
        );
        prop_assert_eq!(scalar.ops(), sliced.ops());
    }

    #[test]
    fn mac_slice_matches_the_checked_path_for_every_filter_bank(
        seed in 0u64..=u64::MAX,
        extra in 0usize..=5,
    ) {
        // Every kernel the datapath ever multiplies with: the quantized
        // analysis and synthesis pairs of all six Table I banks, against
        // samples of the paper's 32-bit dynamic range — inside the L1-norm
        // bound, so the *checked* scalar path must agree bit for bit too.
        let mut rng = StdRng::seed_from_u64(seed);
        for id in FilterId::ALL {
            let bank = FilterBank::table1(id);
            let qbank = QuantizedBank::paper_default(&bank).expect("paper quantization");
            for kernel in [
                qbank.analysis_lowpass(),
                qbank.analysis_highpass(),
                qbank.synthesis_lowpass(),
                qbank.synthesis_highpass(),
            ] {
                // `extra` repeats the kernel to exercise longer slices than
                // one tap window (ragged against the lane width).
                let coeffs: Vec<i64> =
                    kernel.raw().iter().copied().cycle().take(kernel.len() + extra).collect();
                let samples = random_samples(&mut rng, coeffs.len());
                let mut checked = MacAccumulator::new();
                for (&c, &s) in coeffs.iter().zip(&samples) {
                    checked.mac(c, s).expect("within the L1-norm bound");
                }
                let mut sliced = MacAccumulator::new();
                sliced.mac_slice(&coeffs, &samples);
                prop_assert!(
                    checked.value() == sliced.value(),
                    "{} taps of {}: checked {} vs sliced {}",
                    coeffs.len(), id, checked.value(), sliced.value()
                );
                prop_assert_eq!(checked.ops(), sliced.ops());
            }
        }
    }

    #[test]
    fn tiled_fixed_dwt_matches_the_monolithic_transform_per_region(
        scales in 1u32..=3,
        tile_units in 1usize..=3,
        frame_units_x in 1usize..=6,
        frame_units_y in 1usize..=6,
        bank_index in 0usize..6,
    ) {
        // Dimensions in units of 2^scales keep every tile (ragged edges
        // included) decomposable to the configured depth.
        let unit = 1usize << scales;
        let tile = tile_units * unit;
        let width = frame_units_x * unit;
        let height = frame_units_y * unit;
        let bank = FilterBank::table1(FilterId::ALL[bank_index]);
        let hw = FixedDwt2d::paper_default(&bank, scales).expect("paper plan");
        let frame = synth::ct_phantom(width, height, 12, (width * 31 + height) as u64);
        let grid = TileGrid::new(width, height, tile, tile).expect("valid grid");
        for index in 0..grid.tile_count() {
            let rect = grid.rect(index);
            let window = frame.view_rect(rect).expect("rect in bounds");
            let cascade = LineFixedDwt::forward_view(&hw, &window).expect("line cascade");
            let crop = frame.crop(rect).expect("rect in bounds");
            let monolithic = hw.forward(&crop).expect("monolithic forward");
            prop_assert!(
                cascade == monolithic,
                "tile {} of {}x{} (tile {}, {} scales, {}) diverged",
                index, width, height, tile, scales, bank.id()
            );
        }
    }
}

#[test]
fn undecomposable_tile_shapes_are_typed_errors_not_panics() {
    let bank = FilterBank::table1(FilterId::F1);
    // 36-pixel tiles cannot halve three times; neither can the ragged
    // 10-pixel right edge of 74 = 2*32 + 10 over 32-pixel tiles.
    let odd_tile = TiledFixedCompressor::new(&bank, 3, 36, 2).unwrap();
    assert!(matches!(
        odd_tile.grid(72, 72),
        Err(PipelineError::Dwt(DwtError::NotDecomposable { .. }))
    ));
    let ragged = TiledFixedCompressor::new(&bank, 3, 32, 2).unwrap();
    assert!(matches!(
        ragged.grid(74, 64),
        Err(PipelineError::Dwt(DwtError::NotDecomposable { .. }))
    ));
    assert!(ragged.compress(&synth::flat(74, 64, 12, 0)).is_err());
    // Aligned ragged edges are fine: 96 = 2*32 + 32 exact, 80 = 2*32 + 16.
    assert!(ragged.grid(96, 80).is_ok());
}
