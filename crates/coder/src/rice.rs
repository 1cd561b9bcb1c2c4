//! Rice/Golomb coding of signed integers.
//!
//! Wavelet detail coefficients of natural and medical images follow sharply
//! peaked, roughly two-sided-geometric distributions, for which Rice codes
//! (Golomb codes with a power-of-two parameter) are within a few percent of
//! the entropy at negligible computational cost — which is why JPEG-LS and
//! CCSDS use them. Signed values are mapped to unsigned ones with the usual
//! zig-zag map before coding.

use crate::bitio::{BitReader, BitWriter};
use crate::CoderError;

/// Largest Rice parameter the coder will choose or accept.
pub const MAX_RICE_PARAMETER: u32 = 30;

/// Maps a signed integer onto a non-negative one (0, -1, 1, -2, 2, … →
/// 0, 1, 2, 3, 4, …).
#[must_use]
#[inline]
pub fn zigzag_encode(value: i32) -> u64 {
    ((i64::from(value) << 1) ^ (i64::from(value) >> 31)) as u64
}

/// Inverse of [`zigzag_encode`].
#[must_use]
#[inline]
pub fn zigzag_decode(value: u64) -> i32 {
    ((value >> 1) as i64 ^ -((value & 1) as i64)) as i32
}

/// Chooses the Rice parameter that minimizes the coded length of `values`
/// under the standard mean-based rule.
#[must_use]
pub fn optimal_parameter(values: &[i32]) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let mean: f64 =
        values.iter().map(|&v| zigzag_encode(v) as f64).sum::<f64>() / values.len() as f64;
    parameter_for_mean(mean)
}

/// [`optimal_parameter`] from the sum and count of zig-zag mapped values.
///
/// For up to `2^21` values the integer sum is exactly the sequential `f64`
/// sum [`optimal_parameter`] computes (every partial sum stays below
/// `2^53`), so both select the same parameter and the stream stays
/// byte-identical.
#[must_use]
pub fn parameter_for_zigzag_sum(sum: u64, count: usize) -> u32 {
    if count == 0 {
        return 0;
    }
    parameter_for_mean(sum as f64 / count as f64)
}

fn parameter_for_mean(mean: f64) -> u32 {
    let mut k = 0;
    while k < MAX_RICE_PARAMETER && (1u64 << (k + 1)) as f64 <= mean + 1.0 {
        k += 1;
    }
    k
}

/// Writes one value with Rice parameter `k`.
///
/// The unary quotient is unbounded for arbitrary `(value, k)` pairs, but
/// when `k` comes from [`optimal_parameter`] over the block containing
/// `value` the run never exceeds [`crate::MAX_UNARY_RUN_BITS`] bits (see the
/// derivation there), which is why the stream format needs no escape code.
///
/// # Panics
///
/// Panics if `k >= 64`.
pub fn encode_value(writer: &mut BitWriter, value: i32, k: u32) {
    writer.write_codewords(k, &[zigzag_encode(value)]);
}

/// Reads one value coded with Rice parameter `k` — the per-codeword
/// reference the block decode ([`decode_block`]) is checked against.
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] at end of input.
#[inline]
pub fn decode_value(reader: &mut BitReader<'_>, k: u32) -> Result<i32, CoderError> {
    let (quotient, remainder) = reader.read_unary_then_bits(k)?;
    Ok(zigzag_decode((quotient << k) | remainder))
}

/// Decodes `out.len()` values coded with parameter `k` through the block
/// decode ([`BitReader::read_codewords`]): the same values, and on a
/// truncated stream the same error, as [`decode_value`] once per slot.
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] at end of input.
pub fn decode_block(reader: &mut BitReader<'_>, out: &mut [i32], k: u32) -> Result<(), CoderError> {
    reader.read_codewords(k, out, zigzag_decode)
}

/// Encodes a whole slice with a single parameter, returning the number of
/// bits written.
pub fn encode_slice(writer: &mut BitWriter, values: &[i32], k: u32) -> u64 {
    let before = writer.bit_len();
    for &v in values {
        encode_value(writer, v, k);
    }
    writer.bit_len() - before
}

/// Decodes `count` values coded with parameter `k`.
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] at end of input.
pub fn decode_slice(
    reader: &mut BitReader<'_>,
    count: usize,
    k: u32,
) -> Result<Vec<i32>, CoderError> {
    let mut out = vec![0; count];
    decode_block(reader, &mut out, k)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Samples per block decode call, as in the subband coder.
    const BLOCK: usize = 64;

    /// `count` values through the per-codeword reference, after skipping
    /// `lead` bits.
    fn reference_decode(bytes: &[u8], lead: u32, count: usize, k: u32) -> Result<Vec<i32>, String> {
        let mut reader = BitReader::new(bytes);
        reader.read_bits(lead).map_err(|e| e.to_string())?;
        (0..count).map(|_| decode_value(&mut reader, k).map_err(|e| e.to_string())).collect()
    }

    /// The same through the block decode, one call per 64-value block with a
    /// ragged final block.
    fn block_decode(bytes: &[u8], lead: u32, count: usize, k: u32) -> Result<Vec<i32>, String> {
        let mut reader = BitReader::new(bytes);
        reader.read_bits(lead).map_err(|e| e.to_string())?;
        let mut out = vec![0; count];
        for block in out.chunks_mut(BLOCK) {
            decode_block(&mut reader, block, k).map_err(|e| e.to_string())?;
        }
        Ok(out)
    }

    /// A stream of `lead` random bits then `count` codewords at parameter
    /// `k`, written field by field: a quarter of the quotients run past the
    /// 64-bit look-ahead window.
    fn random_codewords(rng: &mut StdRng, lead: u32, count: usize, k: u32) -> Vec<u8> {
        let mut writer = BitWriter::new();
        writer.write_bits(rng.gen_range(0..=u64::MAX), lead);
        for _ in 0..count {
            let quotient = if rng.gen_range(0..4u32) == 0 {
                rng.gen_range(57..300)
            } else {
                rng.gen_range(0..6)
            };
            writer.write_unary(quotient);
            writer.write_bits(rng.gen_range(0..=u64::MAX), k);
        }
        writer.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The block decode returns the per-codeword reference's values on
        /// random streams at every parameter 0..=30 and leading bit offset,
        /// and on every truncation of the stream the same error, never a
        /// panic.
        #[test]
        fn block_decode_matches_the_per_codeword_reference(
            seed in 0u64..1_000_000,
            lead in 0u32..64,
            count in 1usize..150,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(0..=MAX_RICE_PARAMETER);
            let bytes = random_codewords(&mut rng, lead, count, k);
            let expected = reference_decode(&bytes, lead, count, k);
            prop_assert!(expected.is_ok());
            prop_assert_eq!(block_decode(&bytes, lead, count, k), expected);
            for len in 0..bytes.len() {
                let cut = &bytes[..len];
                let (block, reference) =
                    (block_decode(cut, lead, count, k), reference_decode(cut, lead, count, k));
                prop_assert!(
                    block == reference,
                    "k {k}, lead {lead}, truncated to {len} bytes: {block:?} vs {reference:?}"
                );
            }
        }

        /// Arbitrary bytes — not an encoder's output — decode to the same
        /// values or the same error through both paths.
        #[test]
        fn block_decode_matches_the_reference_on_noise(
            seed in 0u64..1_000_000,
            len in 0usize..96,
            count in 1usize..200,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(0..=MAX_RICE_PARAMETER);
            // Bias towards ones so long runs and unterminated tails show up.
            let dense = rng.gen_range(0..2u32) == 0;
            let bytes: Vec<u8> = (0..len)
                .map(|_| if dense { rng.gen_range(0..=255u8) | rng.gen_range(0..=255u8) } else {
                    rng.gen_range(0..=255u8)
                })
                .collect();
            let lead = rng.gen_range(0..8u32);
            prop_assert_eq!(
                block_decode(&bytes, lead, count, k),
                reference_decode(&bytes, lead, count, k)
            );
        }
    }

    #[test]
    fn zigzag_is_a_bijection_on_interesting_values() {
        for v in [-1_000_000, -4096, -3, -1, 0, 1, 2, 4095, 1_000_000, i32::MIN, i32::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn value_roundtrip_over_parameters() {
        for k in [0u32, 1, 3, 7, 12] {
            let mut w = BitWriter::new();
            let values = [-100, -5, -1, 0, 1, 4, 77, 4095];
            for &v in &values {
                encode_value(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(decode_value(&mut r, k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn wide_parameters_beyond_32_bits_still_roundtrip() {
        // Parameters above MAX_RICE_PARAMETER are rejected by the subband
        // layer but legal through the raw rice API; the decoder must handle
        // remainder fields wider than the combined-read fast path.
        for k in [33u32, 40, 57, 63] {
            let mut w = BitWriter::new();
            let values = [0, 1, -1, i32::MAX, i32::MIN];
            for &v in &values {
                encode_value(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(decode_value(&mut r, k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn slice_roundtrip_with_random_data() {
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<i32> = (0..500).map(|_| rng.gen_range(-300..300)).collect();
        let k = optimal_parameter(&values);
        let mut w = BitWriter::new();
        let bits = encode_slice(&mut w, &values, k);
        assert!(bits > 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_slice(&mut r, values.len(), k).unwrap(), values);
    }

    #[test]
    fn optimal_parameter_tracks_magnitude() {
        let small = vec![0, 1, -1, 0, 2, -2, 0, 0];
        let large = vec![1000, -900, 1200, -1100, 950, -1050];
        assert!(optimal_parameter(&small) <= 2);
        assert!(optimal_parameter(&large) >= 9);
        assert_eq!(optimal_parameter(&[]), 0);
    }

    #[test]
    fn peaked_distributions_compress_well() {
        // Two-sided geometric-ish data: mostly zeros with occasional spikes.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i32> =
            (0..4000).map(|_| if rng.gen_bool(0.85) { 0 } else { rng.gen_range(-6..=6) }).collect();
        let k = optimal_parameter(&values);
        let mut w = BitWriter::new();
        encode_slice(&mut w, &values, k);
        let bits_per_sample = w.bit_len() as f64 / values.len() as f64;
        assert!(
            bits_per_sample < 2.5,
            "peaked data should cost well under 2.5 bits/sample, got {bits_per_sample}"
        );
    }

    #[test]
    fn parameter_zero_is_pure_unary() {
        let mut w = BitWriter::new();
        encode_value(&mut w, 2, 0); // zigzag 4 -> 11110
        assert_eq!(w.bit_len(), 5);
    }
}
