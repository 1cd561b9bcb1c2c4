//! The 64-bit subband coder against a per-word reference.
//!
//! The reference below codes LWCF's `i64` subband words one codeword at a
//! time: the mean-based parameter rule over a 128-bit block sum, a 6-bit
//! parameter field, a unary quotient then the `k`-bit remainder, and on
//! decode a typed refusal of any quotient whose value overflows 64 bits.
//! [`FixedSubbandCodec`] must write the same bytes and read back the same
//! words, or fail with the same error kind, on every stream.

use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::{
    CoderError, FixedSubbandCodec, BLOCK_SIZE, FIXED_PARAMETER_BITS, MAX_FIXED_RICE_PARAMETER,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::mem::{discriminant, Discriminant};

fn zigzag_encode_wide(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn zigzag_decode_wide(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// The per-block parameter rule, capped at [`MAX_FIXED_RICE_PARAMETER`].
fn fixed_parameter_for_zigzag_sum(sum: u128, count: usize) -> u32 {
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

/// Reads one word coded with parameter `k`, rejecting quotients that would
/// overflow the 64-bit zig-zag range.
fn decode_word(reader: &mut BitReader<'_>, k: u32) -> Result<i64, CoderError> {
    let (quotient, remainder) = reader.read_unary_then_bits(k)?;
    if k > 0 && quotient >> (64 - k) != 0 {
        return Err(CoderError::MalformedStream(format!(
            "rice quotient {quotient} overflows a 64-bit value at parameter {k}"
        )));
    }
    Ok(zigzag_decode_wide((quotient << k) | remainder))
}

/// Writes `words` one field at a time; returns the bits written.
fn reference_encode(writer: &mut BitWriter, words: &[i64]) -> u64 {
    let before = writer.bit_len();
    for block in words.chunks(BLOCK_SIZE) {
        let sum: u128 = block.iter().map(|&v| u128::from(zigzag_encode_wide(v))).sum();
        let k = fixed_parameter_for_zigzag_sum(sum, block.len());
        writer.write_bits(u64::from(k), FIXED_PARAMETER_BITS);
        for &v in block {
            let u = zigzag_encode_wide(v);
            writer.write_unary(u >> k);
            writer.write_bits(u & ((1u64 << k) - 1), k);
        }
    }
    writer.bit_len() - before
}

/// Decodes `count` words one codeword at a time after `lead` bits; errors
/// are reduced to their kind.
fn reference_decode(
    bytes: &[u8],
    lead: u32,
    count: usize,
) -> Result<Vec<i64>, Discriminant<CoderError>> {
    let mut reader = BitReader::new(bytes);
    let kind = |e: CoderError| discriminant(&e);
    reader.read_bits(lead).map_err(kind)?;
    let mut out = Vec::with_capacity(count);
    for block in 0..count.div_ceil(BLOCK_SIZE) {
        let k = reader.read_bits(FIXED_PARAMETER_BITS).map_err(kind)? as u32;
        if k > MAX_FIXED_RICE_PARAMETER {
            return Err(kind(CoderError::MalformedStream(String::new())));
        }
        for _ in 0..(count - block * BLOCK_SIZE).min(BLOCK_SIZE) {
            out.push(decode_word(&mut reader, k).map_err(kind)?);
        }
    }
    Ok(out)
}

/// The coder under test on the same input.
fn codec_decode(
    bytes: &[u8],
    lead: u32,
    count: usize,
) -> Result<Vec<i64>, Discriminant<CoderError>> {
    let mut reader = BitReader::new(bytes);
    let kind = |e: CoderError| discriminant(&e);
    reader.read_bits(lead).map_err(kind)?;
    FixedSubbandCodec::new().decode_subband(&mut reader, count).map_err(kind)
}

/// `lead` random bits, then `count` codewords in 64-word blocks written
/// field by field. Each block draws its parameter from 0..=62 (now and
/// then 63, past the cap); a block at `k >= 56` may carry quotients at and
/// one past the overflow edge `2^(64 - k)`, and a quarter of the other
/// quotients run past the 64-bit look-ahead window.
fn random_stream(rng: &mut StdRng, lead: u32, count: usize) -> Vec<u8> {
    let mut writer = BitWriter::new();
    writer.write_bits(rng.gen_range(0..=u64::MAX), lead);
    let mut left = count;
    while left > 0 {
        let block = left.min(BLOCK_SIZE);
        left -= block;
        let k = if rng.gen_range(0..16u32) == 0 {
            MAX_FIXED_RICE_PARAMETER + 1
        } else if rng.gen_range(0..3u32) == 0 {
            rng.gen_range(56..=MAX_FIXED_RICE_PARAMETER)
        } else {
            rng.gen_range(0..=MAX_FIXED_RICE_PARAMETER)
        };
        writer.write_bits(u64::from(k), FIXED_PARAMETER_BITS);
        for _ in 0..block {
            let quotient = match rng.gen_range(0..8u32) {
                0 if k >= 56 => (1u64 << (64 - k)) - 1,
                1 if k >= 56 => 1u64 << (64 - k),
                2 | 3 => rng.gen_range(57..300),
                _ => rng.gen_range(0..6),
            };
            writer.write_unary(quotient);
            writer.write_bits(rng.gen_range(0..=u64::MAX), k);
        }
    }
    writer.into_bytes()
}

/// Words whose blocks span every parameter: zeros, small and large
/// magnitudes, full-range noise and the `i64` extremes.
fn random_words(rng: &mut StdRng, count: usize) -> Vec<i64> {
    let mut words = Vec::with_capacity(count);
    while words.len() < count {
        let bits = rng.gen_range(0..=63u32);
        let style = rng.gen_range(0..4u32);
        for _ in 0..BLOCK_SIZE.min(count - words.len()) {
            words.push(match (style, rng.gen_range(0..8u32)) {
                (_, 0) => i64::MIN,
                (_, 1) => i64::MAX,
                (0, _) => 0,
                (1, _) => rng.gen_range(i64::MIN..=i64::MAX),
                _ => rng.gen_range(-(1i64 << bits.min(62))..=(1i64 << bits.min(62))),
            });
        }
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The subband decode returns the reference's words on random streams
    /// at every parameter and leading offset, with ragged final blocks,
    /// and on every truncation the same error kind, never a panic.
    #[test]
    fn fixed_decode_matches_the_per_word_reference(
        seed in 0u64..1_000_000,
        lead in 0u32..64,
        count in 1usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = random_stream(&mut rng, lead, count);
        for len in (0..=bytes.len()).rev() {
            let cut = &bytes[..len];
            let codec = codec_decode(cut, lead, count);
            let reference = reference_decode(cut, lead, count);
            prop_assert!(
                codec == reference,
                "lead {lead}, count {count}, cut to {len} of {} bytes: {codec:?} vs {reference:?}",
                bytes.len()
            );
        }
    }

    /// The subband encode writes the reference's bytes and bit count on
    /// random words, `i64::MIN` and `i64::MAX` included, after any leading
    /// offset; and the words decode back.
    #[test]
    fn fixed_encode_matches_the_per_word_reference(
        seed in 0u64..1_000_000,
        lead in 0u32..64,
        count in 0usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = random_words(&mut rng, count);
        let lead_bits = rng.gen_range(0..=u64::MAX);
        let (mut codec, mut reference) = (BitWriter::new(), BitWriter::new());
        codec.write_bits(lead_bits, lead);
        reference.write_bits(lead_bits, lead);
        let bits = FixedSubbandCodec::new().encode_subband(&mut codec, &words);
        prop_assert_eq!(bits, reference_encode(&mut reference, &words));
        let bytes = codec.into_bytes();
        prop_assert_eq!(&bytes, &reference.into_bytes());
        prop_assert_eq!(codec_decode(&bytes, lead, count), Ok(words));
    }
}
