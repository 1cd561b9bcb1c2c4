//! Block-adaptive Rice coding of raw fixed-point subband **words**.
//!
//! [`SubbandCodec`](crate::SubbandCodec) serializes the `i32` subbands of the
//! reversible lifting transform; this module is its counterpart for the
//! paper-exact fixed-point datapath, whose subbands are raw `i64` datapath
//! words in the Table II per-scale formats. The structure is identical —
//! fixed 64-sample blocks, one Rice parameter per block, the usual zig-zag
//! (folded-sign) map standing in for the hardware's sign-magnitude
//! representation — but two fields widen:
//!
//! * values are mapped with a **64-bit** zig-zag (the words are `i64`, even
//!   though plan-conformant coefficients fit 32 bits), and
//! * the per-block parameter field is **6 bits** so the parameter can reach
//!   [`MAX_FIXED_RICE_PARAMETER`] = 62, keeping the no-escape-code unary
//!   bound (see below) valid for *any* `i64` input, not just plan-conformant
//!   words.
//!
//! The bit-level machinery is the same word-at-a-time
//! [`BitWriter`]/[`BitReader`] the rest of the codec uses, and the codewords
//! themselves are written by [`BitWriter::write_codewords`], so both entropy
//! back ends share one Rice kernel.

use crate::bitio::{BitReader, BitWriter};
use crate::subband::BLOCK_SIZE;
use crate::CoderError;

/// Largest Rice parameter the fixed-word coder will choose or accept.
///
/// With the 6-bit parameter field the cap sits at 62: in the capped case the
/// largest 64-bit zig-zag value (`2^64 - 1`, from `i64::MIN`) quotients to at
/// most 3, so the unary bound below holds with no escape code — the same
/// property [`crate::rice::MAX_RICE_PARAMETER`] = 30 provides for `i32` data.
pub const MAX_FIXED_RICE_PARAMETER: u32 = 62;

/// Bits of the per-block parameter field (wide enough for
/// [`MAX_FIXED_RICE_PARAMETER`]).
pub const FIXED_PARAMETER_BITS: u32 = 6;

/// Maps a signed 64-bit word onto a non-negative one (0, -1, 1, -2, 2, … →
/// 0, 1, 2, 3, 4, …); the wide form of [`crate::rice::zigzag_encode`].
#[must_use]
#[inline]
pub fn zigzag_encode_wide(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode_wide`].
#[must_use]
#[inline]
pub fn zigzag_decode_wide(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// The mean-based parameter rule over a block's zig-zag sum, capped at
/// [`MAX_FIXED_RICE_PARAMETER`]. The sum is accumulated in 128 bits because
/// a block of extreme `i64` words overflows a `u64` accumulator.
#[must_use]
pub fn fixed_parameter_for_zigzag_sum(sum: u128, count: usize) -> u32 {
    if count == 0 {
        return 0;
    }
    let mean = sum as f64 / count as f64;
    let mut k = 0;
    while k < MAX_FIXED_RICE_PARAMETER && (f64::from(k + 1)).exp2() <= mean + 1.0 {
        k += 1;
    }
    k
}

/// Encodes/decodes fixed-point subband words with a block-adaptive Rice code.
///
/// Why no escape code is needed (the wide form of the
/// [`crate::MAX_UNARY_RUN_BITS`] derivation): within a block of
/// `B <= BLOCK_SIZE` words the parameter satisfies `2^(k+1) > mean + 1`
/// unless capped, so every zig-zag value `u <= B * mean` quotients to
/// `u >> k < 2B`; in the capped case `k = 62` even `u = 2^64 - 1` quotients
/// to at most 3. The unary run therefore never exceeds `2 * BLOCK_SIZE` bits
/// for **any** `i64` input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedSubbandCodec;

impl FixedSubbandCodec {
    /// Creates a codec.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Encodes one subband of raw fixed-point words as a sequence of
    /// `BLOCK_SIZE` (64) sample blocks, each preceded by its 6-bit Rice
    /// parameter. Returns the number of bits written.
    pub fn encode_subband(self, writer: &mut BitWriter, words: &[i64]) -> u64 {
        let before = writer.bit_len();
        // Zig-zag each block once into a stack scratch, summing for the
        // parameter rule in the same pass (in 128 bits — extreme words would
        // overflow a u64 sum), exactly like the i32 subband coder.
        let mut zigzag = [0u64; BLOCK_SIZE];
        for block in words.chunks(BLOCK_SIZE) {
            let mut sum = 0u128;
            for (slot, &v) in zigzag.iter_mut().zip(block) {
                let u = zigzag_encode_wide(v);
                *slot = u;
                sum += u128::from(u);
            }
            let mapped = &zigzag[..block.len()];
            let k = fixed_parameter_for_zigzag_sum(sum, mapped.len());
            writer.write_bits(u64::from(k), FIXED_PARAMETER_BITS);
            writer.write_codewords(k, mapped);
        }
        writer.bit_len() - before
    }

    /// Decodes one subband of `count` words.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream is truncated, a
    /// stored parameter is out of range, or a codeword's quotient overflows
    /// the 64-bit value range (only possible on corrupt input — the encoder's
    /// unary runs are bounded).
    pub fn decode_subband(
        self,
        reader: &mut BitReader<'_>,
        count: usize,
    ) -> Result<Vec<i64>, CoderError> {
        let mut out = Vec::with_capacity(count);
        let mut remaining = count;
        while remaining > 0 {
            let block_len = remaining.min(BLOCK_SIZE);
            let k = self.read_parameter(reader)?;
            // Grow once and write through the slice.
            let start = out.len();
            out.resize(start + block_len, 0);
            for slot in &mut out[start..] {
                *slot = decode_word(reader, k)?;
            }
            remaining -= block_len;
        }
        Ok(out)
    }

    fn read_parameter(self, reader: &mut BitReader<'_>) -> Result<u32, CoderError> {
        let k = reader.read_bits(FIXED_PARAMETER_BITS)? as u32;
        if k > MAX_FIXED_RICE_PARAMETER {
            return Err(CoderError::MalformedStream(format!(
                "fixed-word rice parameter {k} exceeds the supported maximum"
            )));
        }
        Ok(k)
    }
}

/// Reads one word coded with parameter `k`, rejecting quotients that would
/// overflow the 64-bit zig-zag range (a corrupt stream; the encoder never
/// produces them).
#[inline]
fn decode_word(reader: &mut BitReader<'_>, k: u32) -> Result<i64, CoderError> {
    let (quotient, remainder) = reader.read_unary_then_bits(k)?;
    if k > 0 && quotient >> (64 - k) != 0 {
        return Err(CoderError::MalformedStream(format!(
            "rice quotient {quotient} overflows a 64-bit value at parameter {k}"
        )));
    }
    Ok(zigzag_decode_wide((quotient << k) | remainder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn wide_zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::from(i32::MAX), i64::from(i32::MIN), i64::MAX, i64::MIN]
        {
            assert_eq!(zigzag_decode_wide(zigzag_encode_wide(v)), v);
        }
        assert_eq!(zigzag_encode_wide(0), 0);
        assert_eq!(zigzag_encode_wide(-1), 1);
        assert_eq!(zigzag_encode_wide(1), 2);
        assert_eq!(zigzag_encode_wide(i64::MIN), u64::MAX);
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

    #[test]
    fn parameter_rule_tracks_magnitude_and_caps() {
        assert_eq!(fixed_parameter_for_zigzag_sum(0, 0), 0);
        assert_eq!(fixed_parameter_for_zigzag_sum(0, 64), 0);
        assert!(
            fixed_parameter_for_zigzag_sum(u128::from(u64::MAX), 1) <= MAX_FIXED_RICE_PARAMETER
        );
        assert_eq!(
            fixed_parameter_for_zigzag_sum(u128::from(u64::MAX) * 64, 64),
            MAX_FIXED_RICE_PARAMETER
        );
        // Small means pick small parameters, like the i32 rule.
        assert!(fixed_parameter_for_zigzag_sum(64, 64) <= 1);
    }
}
