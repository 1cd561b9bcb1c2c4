//! Subband-by-subband serialization of a multi-scale decomposition.
//!
//! Wavelet detail subbands of medical images are mostly near-zero noise with
//! localized heavy tails along tissue boundaries. A single Rice parameter per
//! subband would be dragged up by those edges, so the codec is
//! **block adaptive** (as in CCSDS 121 / JPEG-LS run mode): the subband is
//! split into fixed-size blocks and every block carries its own parameter
//! chosen to minimize that block's cost.
//!
//! One coder, [`BlockRiceCodec`], serves both datapaths. It is generic over
//! the coded word ([`RiceWord`]): the `i32` subbands of the reversible
//! lifting transform ([`SubbandCodec`]: 5-bit parameter field, cap 30) and
//! the raw `i64` words of the paper-exact fixed-point transform
//! ([`FixedSubbandCodec`](crate::FixedSubbandCodec): 6-bit field, cap 62).
//! Both run the same block encode, the same parameter rule
//! (`rice::parameter_for_mean`) and the same block decode
//! ([`BitReader::read_codewords`]).

use crate::bitio::{BitReader, BitWriter};
use crate::rice;
use crate::CoderError;
use std::marker::PhantomData;

/// Number of samples coded with one shared Rice parameter.
pub const BLOCK_SIZE: usize = 64;

/// Upper bound on the unary run length (quotient plus terminator, in bits) of
/// any value the block-adaptive encoder emits — for **any** `i32` or `i64`
/// input, not just plan-conformant coefficients.
///
/// Why no escape code is needed: within a block of `B <= BLOCK_SIZE` samples
/// the parameter is `k = rice::parameter_for_mean(mean, cap)`, which
/// satisfies `2^(k+1) > mean + 1` unless capped at
/// [`RiceWord::MAX_PARAMETER`]. For any zig-zagged value `u` in the block,
/// `u <= sum(u_i) = B * mean`, so the quotient obeys
///
/// ```text
/// u >> k  <=  u / 2^k  <  2u / (mean + 1)  <=  2 * B * mean / (mean + 1)  <  2B
/// ```
///
/// and in the capped case the largest zig-zag value still quotients to at
/// most 3: `2^32 - 1` (from `i32::MIN`) at `k = 30`, `2^64 - 1` (from
/// `i64::MIN`) at `k = 62`. The run is therefore at most
/// `max(2B, 4) <= 2 * BLOCK_SIZE` bits, which the tests below exercise with
/// adversarial blocks. This is why the stream format can stay escape-free
/// (and byte-stable) while [`crate::bitio::BitWriter::write_unary`] never
/// sees a pathological run from the encoder.
pub const MAX_UNARY_RUN_BITS: u64 = 2 * BLOCK_SIZE as u64;

/// A subband word the block-adaptive Rice coder codes: its zig-zag map onto
/// `u64`, its per-block parameter field and the parameter cap that keeps
/// every unary run within [`MAX_UNARY_RUN_BITS`] for **any** word.
///
/// Implemented by `i32` (the lifting subbands) and `i64` (the fixed-point
/// words).
pub trait RiceWord: Copy + Default {
    /// Bits of the per-block parameter field.
    const PARAMETER_BITS: u32;
    /// Largest Rice parameter the coder chooses or accepts (at most 62): the
    /// zig-zag image of the word's most negative value quotients to at most
    /// 3 there.
    const MAX_PARAMETER: u32;
    /// A block's zig-zag sum, wide enough for [`BLOCK_SIZE`] mapped words.
    type Sum: Copy + Default + std::ops::AddAssign + From<u64>;
    /// The zig-zag map (0, -1, 1, -2, 2, … → 0, 1, 2, 3, 4, …).
    fn zigzag(self) -> u64;
    /// Inverse of [`RiceWord::zigzag`] (truncating to the word).
    fn unzigzag(value: u64) -> Self;
    /// A block sum as `f64`, for the mean-based parameter rule.
    fn sum_as_f64(sum: Self::Sum) -> f64;
}

/// Encodes/decodes the subbands of a wavelet decomposition with a
/// block-adaptive Rice code over words of type `W`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockRiceCodec<W>(PhantomData<W>);

/// The coder of the reversible transform's `i32` subbands (`LWC1`/`LWCQ`
/// streams, `LWCT` tiles and `LWCV` planes): 5-bit parameters capped at
/// [`rice::MAX_RICE_PARAMETER`].
pub type SubbandCodec = BlockRiceCodec<i32>;

impl<W: RiceWord> BlockRiceCodec<W> {
    /// Creates a codec.
    #[must_use]
    pub fn new() -> Self {
        Self(PhantomData)
    }

    /// Encodes one subband as a sequence of `BLOCK_SIZE` (64) sample blocks,
    /// each preceded by its [`RiceWord::PARAMETER_BITS`]-bit Rice parameter.
    /// Returns the number of bits written.
    pub fn encode_subband(self, writer: &mut BitWriter, samples: &[W]) -> u64 {
        let before = writer.bit_len();
        for block in samples.chunks(BLOCK_SIZE) {
            encode_block(writer, block);
        }
        writer.bit_len() - before
    }

    /// Decodes one subband of `count` samples: the output is sized once and
    /// filled by [`BlockRiceCodec::decode_subband_into`].
    ///
    /// # Errors
    ///
    /// See [`BlockRiceCodec::decode_subband_into`].
    // Not `vec![0; count]`: that is a `calloc`, which glibc serves under the
    // arena lock every time, while a `malloc` of a small band comes from the
    // thread's cache, so parallel brick decodes do not queue on the lock.
    #[allow(clippy::slow_vector_initialization)]
    pub fn decode_subband(
        self,
        reader: &mut BitReader<'_>,
        count: usize,
    ) -> Result<Vec<W>, CoderError> {
        let mut out = Vec::with_capacity(count);
        out.resize(count, W::default());
        self.decode_subband_into(reader, &mut out)?;
        Ok(out)
    }

    /// Decodes one subband of `out.len()` samples into `out`, each block
    /// through the block decode ([`rice::decode_block`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream is truncated, a
    /// stored parameter is out of range, or a codeword's value overflows 64
    /// bits (only possible on corrupt input: the encoder's unary runs are
    /// bounded).
    pub fn decode_subband_into(
        self,
        reader: &mut BitReader<'_>,
        out: &mut [W],
    ) -> Result<(), CoderError> {
        for block in out.chunks_mut(BLOCK_SIZE) {
            let k = reader.read_bits(W::PARAMETER_BITS)? as u32;
            if k > W::MAX_PARAMETER {
                let message = format!("rice parameter {k} exceeds the supported maximum");
                return Err(CoderError::MalformedStream(message));
            }
            rice::decode_block(reader, block, k)?;
        }
        Ok(())
    }
}

/// Encodes one block (at most [`BLOCK_SIZE`] samples): the Rice parameter
/// chosen by the block-mean rule, then the zig-zagged values.
///
/// Zig-zags the block once into a stack scratch, summing for the parameter
/// rule in the same pass; the value coder then consumes the mapped values
/// without re-mapping. Shared by [`BlockRiceCodec::encode_subband`] and
/// [`StreamingSubbandEncoder`], so the streamed and one-shot encodings are
/// the same code, not merely equivalent.
fn encode_block<W: RiceWord>(writer: &mut BitWriter, block: &[W]) {
    debug_assert!(!block.is_empty() && block.len() <= BLOCK_SIZE);
    let mut zigzag = [0u64; BLOCK_SIZE];
    let mut sum = W::Sum::default();
    for (slot, &v) in zigzag.iter_mut().zip(block) {
        let u = v.zigzag();
        *slot = u;
        sum += W::Sum::from(u);
    }
    let k = rice::parameter_for_mean(W::sum_as_f64(sum) / block.len() as f64, W::MAX_PARAMETER);
    writer.write_bits(u64::from(k), W::PARAMETER_BITS);
    writer.write_codewords(k, &zigzag[..block.len()]);
}

/// Incremental counterpart of [`SubbandCodec::encode_subband`] for one
/// subband: samples are pushed in arbitrarily sized batches (e.g. row by row
/// from a line-based transform) and encoded block by block as soon as a full
/// [`BLOCK_SIZE`] block accumulates, so at most one partial block is ever
/// buffered.
///
/// Because the block-adaptive code is strictly sequential per subband — each
/// block's parameter depends only on that block — the finished bitstream is
/// **bit-identical** to a one-shot [`SubbandCodec::encode_subband`] over the
/// concatenated samples; the tests below diff ragged push schedules against
/// the one-shot encoder.
#[derive(Debug, Default)]
pub struct StreamingSubbandEncoder {
    writer: BitWriter,
    pending: Vec<i32>,
}

impl StreamingSubbandEncoder {
    /// Creates an encoder for one subband.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder for a subband of `samples` samples, with room for
    /// one pending block and for a stream of about 4 bits per sample, so the
    /// usual band is coded without growing either buffer. The stream is the
    /// same as [`StreamingSubbandEncoder::new`]'s.
    #[must_use]
    pub fn with_capacity(samples: usize) -> Self {
        Self {
            writer: BitWriter::with_capacity(samples / 2 + 16),
            pending: Vec::with_capacity(samples.min(BLOCK_SIZE)),
        }
    }

    /// Appends samples, encoding every full block they complete.
    pub fn push(&mut self, mut samples: &[i32]) {
        if !self.pending.is_empty() {
            let need = BLOCK_SIZE - self.pending.len();
            let take = need.min(samples.len());
            self.pending.extend_from_slice(&samples[..take]);
            samples = &samples[take..];
            if self.pending.len() == BLOCK_SIZE {
                encode_block(&mut self.writer, &self.pending);
                self.pending.clear();
            }
        }
        let mut chunks = samples.chunks_exact(BLOCK_SIZE);
        for block in &mut chunks {
            encode_block(&mut self.writer, block);
        }
        self.pending.extend_from_slice(chunks.remainder());
    }

    /// Samples buffered awaiting a full block (always below [`BLOCK_SIZE`]).
    #[must_use]
    pub fn buffered_samples(&self) -> usize {
        self.pending.len()
    }

    /// Encodes the final partial block, if any, and returns the subband's
    /// bitstream as `(bytes, exact bit length)` — ready for
    /// [`BitWriter::append`]-style splicing into a stream.
    #[must_use]
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        if !self.pending.is_empty() {
            encode_block(&mut self.writer, &self.pending);
        }
        let bits = self.writer.bit_len();
        (self.writer.into_bytes(), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn streaming_encoder_matches_one_shot_for_ragged_pushes() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<i32> = (0..1000).map(|_| rng.gen_range(-5000..5000)).collect();
        let mut reference = BitWriter::new();
        let reference_bits = SubbandCodec::new().encode_subband(&mut reference, &samples);

        let schedules = [vec![1000], vec![1; 1000], vec![37, 64, 640, 259], vec![63, 65, 872]];
        // Unsized, and sized with a short, exact and long guess.
        for capacity in [None, Some(0), Some(63), Some(1000), Some(5000)] {
            for push_sizes in &schedules {
                let mut enc = capacity.map_or_else(
                    StreamingSubbandEncoder::new,
                    StreamingSubbandEncoder::with_capacity,
                );
                let mut offset = 0;
                for &size in push_sizes {
                    enc.push(&samples[offset..offset + size]);
                    offset += size;
                    assert!(enc.buffered_samples() < BLOCK_SIZE);
                }
                assert_eq!(offset, samples.len());
                let (bytes, bits) = enc.finish();
                assert_eq!(bits, reference_bits);
                assert_eq!(bytes, reference.clone().into_bytes());
            }
        }
    }

    #[test]
    fn streaming_encoder_handles_the_empty_subband() {
        let enc = StreamingSubbandEncoder::new();
        let (bytes, bits) = enc.finish();
        assert!(bytes.is_empty());
        assert_eq!(bits, 0);
    }

    #[test]
    fn subband_roundtrip() {
        let codec = SubbandCodec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let bands: Vec<Vec<i32>> = (0..6)
            .map(|scale| {
                let spread = 1 << scale;
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
    fn sparse_subbands_cost_little() {
        let codec = SubbandCodec::new();
        let band = vec![0i32; 4096];
        let mut w = BitWriter::new();
        let bits = codec.encode_subband(&mut w, &band);
        let blocks = band.len().div_ceil(BLOCK_SIZE) as u64;
        assert!(
            bits <= 5 * blocks + band.len() as u64,
            "all-zero subband should cost about one bit per sample plus headers"
        );
    }

    #[test]
    fn block_adaptation_beats_a_single_parameter() {
        // Mostly tiny values with one block of large "edge" coefficients: the
        // block-adaptive code must not let the edges inflate the cost of the
        // quiet blocks.
        let mut samples = vec![0i32; 1024];
        for (i, v) in samples.iter_mut().enumerate() {
            *v = if (512..576).contains(&i) { 2000 } else { (i % 3) as i32 - 1 };
        }
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        let adaptive_bits = codec.encode_subband(&mut w, &samples);

        let mut single = BitWriter::new();
        let mapped: Vec<u64> = samples.iter().map(|&v| rice::zigzag_encode(v)).collect();
        let mean = mapped.iter().sum::<u64>() as f64 / mapped.len() as f64;
        single.write_codewords(rice::parameter_for_mean(mean, rice::MAX_RICE_PARAMETER), &mapped);
        let single_bits = single.bit_len();

        assert!(
            adaptive_bits < single_bits / 2,
            "adaptive {adaptive_bits} bits vs single-parameter {single_bits} bits"
        );
    }

    #[test]
    fn corrupt_parameter_is_rejected() {
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        w.write_bits(31, 5); // parameter above MAX_RICE_PARAMETER
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(codec.decode_subband(&mut r, 4).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &[5, -5, 9, -9]);
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(codec.decode_subband(&mut r, 4).is_err());
    }

    /// The [`MAX_UNARY_RUN_BITS`] bound: even adversarial blocks — a lone
    /// extreme value among zeros is the worst case for the mean-based
    /// parameter rule — never make the encoder emit a unary run beyond
    /// `2 * BLOCK_SIZE` bits, so no escape code is needed.
    #[test]
    fn encoder_unary_runs_never_exceed_the_documented_bound() {
        let mut adversarial: Vec<Vec<i32>> = vec![
            // Lone spikes that drag the block mean down.
            {
                let mut v = vec![0i32; BLOCK_SIZE];
                v[17] = i32::MIN;
                v
            },
            {
                let mut v = vec![0i32; BLOCK_SIZE];
                v[0] = i32::MAX;
                v
            },
            // Saturated blocks (parameter capped at MAX_RICE_PARAMETER).
            vec![i32::MIN; BLOCK_SIZE],
            vec![i32::MAX; 2 * BLOCK_SIZE + 1],
            // Tiny partial blocks, including the capped single-sample case.
            vec![i32::MIN],
            vec![i32::MAX, 0],
            vec![0, 0, -1, i32::MIN, 1, 0, 0],
        ];
        let mut rng = StdRng::seed_from_u64(21);
        adversarial.extend((0..50).map(|_| {
            let len = rng.gen_range(1..=2 * BLOCK_SIZE);
            (0..len).map(|_| rng.gen_range(i32::MIN..=i32::MAX)).collect::<Vec<i32>>()
        }));

        let codec = SubbandCodec::new();
        for samples in &adversarial {
            let mut w = BitWriter::new();
            codec.encode_subband(&mut w, samples);
            let bytes = w.into_bytes();
            // Re-parse the stream measuring every unary run.
            let mut r = BitReader::new(&bytes);
            let mut remaining = samples.len();
            while remaining > 0 {
                let block_len = remaining.min(BLOCK_SIZE);
                let k = r.read_bits(5).unwrap();
                for _ in 0..block_len {
                    let quotient = r.read_unary().unwrap();
                    assert!(
                        quotient < MAX_UNARY_RUN_BITS,
                        "unary run of {} bits exceeds the bound {MAX_UNARY_RUN_BITS}",
                        quotient + 1
                    );
                    r.read_bits(k as u32).unwrap();
                }
                remaining -= block_len;
            }
            // And the stream still round-trips.
            let mut r = BitReader::new(&bytes);
            assert_eq!(codec.decode_subband(&mut r, samples.len()).unwrap(), *samples);
        }
    }

    #[test]
    fn partial_final_block_roundtrips() {
        let codec = SubbandCodec::new();
        let samples: Vec<i32> = (0..(BLOCK_SIZE as i32 * 2 + 7)).map(|i| i % 11 - 5).collect();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &samples);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(codec.decode_subband(&mut r, samples.len()).unwrap(), samples);
    }
}
