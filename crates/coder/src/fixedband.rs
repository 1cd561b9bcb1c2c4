//! Block-adaptive Rice coding of raw fixed-point subband **words**: the
//! `i64` instance of the one subband coder.
//!
//! [`SubbandCodec`](crate::SubbandCodec) serializes the `i32` subbands of the
//! reversible lifting transform; the paper-exact fixed-point datapath's
//! subbands are raw `i64` datapath words in the Table II per-scale formats.
//! [`FixedSubbandCodec`] codes them with the same
//! [`BlockRiceCodec`] — fixed 64-sample blocks, one Rice parameter per block
//! by the same rule, the same block encode and decode, the usual zig-zag
//! (folded-sign) map standing in for the hardware's sign-magnitude
//! representation — with two fields widened:
//!
//! * values are mapped with a **64-bit** zig-zag (the words are `i64`, even
//!   though plan-conformant coefficients fit 32 bits), and
//! * the per-block parameter field is **6 bits** so the parameter can reach
//!   [`MAX_FIXED_RICE_PARAMETER`] = 62, keeping the no-escape-code unary
//!   bound ([`crate::MAX_UNARY_RUN_BITS`]) valid for *any* `i64` input, not
//!   just plan-conformant words.
//!
//! A decoded codeword whose quotient overflows the 64-bit value range (only
//! a forged stream has one) is a [`CoderError::MalformedStream`](crate::CoderError).

use crate::{BlockRiceCodec, RiceWord};

/// Largest Rice parameter the fixed-word coder will choose or accept.
///
/// With the 6-bit parameter field the cap sits at 62: in the capped case the
/// largest 64-bit zig-zag value (`2^64 - 1`, from `i64::MIN`) quotients to at
/// most 3, so the unary bound holds with no escape code — the same property
/// [`crate::rice::MAX_RICE_PARAMETER`] = 30 provides for `i32` data.
pub const MAX_FIXED_RICE_PARAMETER: u32 = 62;

/// Bits of the per-block parameter field (wide enough for
/// [`MAX_FIXED_RICE_PARAMETER`]).
pub const FIXED_PARAMETER_BITS: u32 = 6;

/// Encodes/decodes fixed-point subband words with the block-adaptive Rice
/// code: [`BlockRiceCodec`] over `i64`.
pub type FixedSubbandCodec = BlockRiceCodec<i64>;

/// The fixed-point word: the **64-bit** zig-zag map, 6-bit parameters capped
/// at [`MAX_FIXED_RICE_PARAMETER`], block sums in 128 bits (a block of
/// extreme words overflows a `u64` sum).
impl RiceWord for i64 {
    const PARAMETER_BITS: u32 = FIXED_PARAMETER_BITS;
    const MAX_PARAMETER: u32 = MAX_FIXED_RICE_PARAMETER;
    type Sum = u128;

    #[inline]
    fn zigzag(self) -> u64 {
        ((self << 1) ^ (self >> 63)) as u64
    }

    #[inline]
    fn unzigzag(value: u64) -> Self {
        ((value >> 1) as i64) ^ -((value & 1) as i64)
    }

    fn sum_as_f64(sum: u128) -> f64 {
        sum as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};
    use crate::rice::parameter_for_mean;
    use crate::{CoderError, BLOCK_SIZE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn wide_zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::from(i32::MAX), i64::from(i32::MIN), i64::MAX, i64::MIN]
        {
            assert_eq!(i64::unzigzag(i64::zigzag(v)), v);
        }
        assert_eq!(i64::zigzag(0), 0);
        assert_eq!(i64::zigzag(-1), 1);
        assert_eq!(i64::zigzag(1), 2);
        assert_eq!(i64::zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn subband_roundtrip_over_magnitudes() {
        let codec = FixedSubbandCodec::new();
        let mut rng = StdRng::seed_from_u64(5);
        let bands: Vec<Vec<i64>> = (0..8)
            .map(|scale| {
                let spread = 1i64 << (4 * scale); // up to ±2^28
                (0..300).map(|_| rng.gen_range(-spread..=spread)).collect()
            })
            .collect();
        let mut w = BitWriter::new();
        for band in &bands {
            assert!(codec.encode_subband(&mut w, band) > 0);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for band in &bands {
            assert_eq!(codec.decode_subband(&mut r, band.len()).unwrap(), *band);
        }
    }

    #[test]
    fn extreme_words_roundtrip_without_escape_codes() {
        // i64 extremes drive the parameter to its cap; the stream must stay
        // decodable and the unary runs bounded.
        let codec = FixedSubbandCodec::new();
        let mut adversarial: Vec<Vec<i64>> = vec![
            vec![i64::MIN; BLOCK_SIZE],
            vec![i64::MAX; 2 * BLOCK_SIZE + 1],
            vec![i64::MIN],
            {
                let mut v = vec![0i64; BLOCK_SIZE];
                v[17] = i64::MIN;
                v
            },
            vec![0, 0, -1, i64::MIN, 1, i64::MAX, 0],
        ];
        let mut rng = StdRng::seed_from_u64(23);
        adversarial.extend((0..40).map(|_| {
            let len = rng.gen_range(1..=2 * BLOCK_SIZE);
            (0..len).map(|_| rng.gen_range(i64::MIN..=i64::MAX)).collect::<Vec<i64>>()
        }));
        for words in &adversarial {
            let mut w = BitWriter::new();
            codec.encode_subband(&mut w, words);
            let bytes = w.into_bytes();
            // Measure every unary run while re-parsing.
            let mut r = BitReader::new(&bytes);
            let mut remaining = words.len();
            while remaining > 0 {
                let block_len = remaining.min(BLOCK_SIZE);
                let k = r.read_bits(FIXED_PARAMETER_BITS).unwrap();
                for _ in 0..block_len {
                    let quotient = r.read_unary().unwrap();
                    assert!(
                        quotient < crate::MAX_UNARY_RUN_BITS,
                        "unary run of {} bits exceeds the bound",
                        quotient + 1
                    );
                    r.read_bits(k as u32).unwrap();
                }
                remaining -= block_len;
            }
            let mut r = BitReader::new(&bytes);
            assert_eq!(codec.decode_subband(&mut r, words.len()).unwrap(), *words);
        }
    }

    #[test]
    fn sparse_subbands_cost_little() {
        let codec = FixedSubbandCodec::new();
        let band = vec![0i64; 4096];
        let mut w = BitWriter::new();
        let bits = codec.encode_subband(&mut w, &band);
        let blocks = band.len().div_ceil(BLOCK_SIZE) as u64;
        assert!(
            bits <= u64::from(FIXED_PARAMETER_BITS) * blocks + band.len() as u64,
            "all-zero subband should cost about one bit per sample plus headers"
        );
    }

    #[test]
    fn corrupt_parameter_is_rejected() {
        let codec = FixedSubbandCodec::new();
        let mut w = BitWriter::new();
        w.write_bits(63, FIXED_PARAMETER_BITS); // above the cap
        let bytes = w.into_bytes();
        assert!(codec.decode_subband(&mut BitReader::new(&bytes), 4).is_err());
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let codec = FixedSubbandCodec::new();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &[5_000_000_000, -5_000_000_000, 9, -9]);
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        assert!(codec.decode_subband(&mut BitReader::new(&bytes), 4).is_err());
    }

    #[test]
    fn forged_overlong_quotients_are_rejected_not_wrapped() {
        // A hand-built codeword whose quotient shifts past 64 bits must be a
        // typed error, not a silently wrapped value.
        let mut w = BitWriter::new();
        w.write_bits(40, FIXED_PARAMETER_BITS); // k = 40
        w.write_unary(1 << 25); // quotient 2^25, quotient << 40 overflows
        w.write_bits(0, 40);
        let bytes = w.into_bytes();
        let codec = FixedSubbandCodec::new();
        assert!(matches!(
            codec.decode_subband(&mut BitReader::new(&bytes), 1),
            Err(CoderError::MalformedStream(_))
        ));
    }

    /// The parameter the block encode picks for a block of `count` words
    /// whose zig-zag values sum to `sum`.
    fn block_parameter(sum: u128, count: usize) -> u32 {
        parameter_for_mean(sum as f64 / count as f64, MAX_FIXED_RICE_PARAMETER)
    }

    #[test]
    fn parameter_rule_tracks_magnitude_and_caps() {
        assert_eq!(block_parameter(0, 0), 0);
        assert_eq!(block_parameter(0, 64), 0);
        assert!(block_parameter(u128::from(u64::MAX), 1) <= MAX_FIXED_RICE_PARAMETER);
        assert_eq!(block_parameter(u128::from(u64::MAX) * 64, 64), MAX_FIXED_RICE_PARAMETER);
        // Small means pick small parameters, like the i32 rule.
        assert!(block_parameter(64, 64) <= 1);
    }
}
