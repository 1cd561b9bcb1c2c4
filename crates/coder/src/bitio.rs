//! Bit-level writer and reader over byte buffers.
//!
//! Bits are packed most-significant-bit first inside each byte, which keeps
//! the streams easy to inspect in a hex dump.
//!
//! Both ends work a word at a time instead of a bit at a time. The writer
//! keeps up to 63 pending bits in a 64-bit accumulator and moves only whole
//! 64-bit words into its buffer; [`BitWriter::into_bytes`] emits the final
//! partial word's bytes. The reader holds a 64-bit look-ahead refilled by one
//! unaligned 8-byte load, scans unary runs with `leading_ones`, and its block
//! decode ([`BitReader::read_codewords`]) takes several Rice codewords out of
//! one refill. The stream layout is unchanged from the original per-bit
//! implementation (the test module keeps that implementation around as a
//! byte-for-byte reference).

use crate::CoderError;

/// Accumulates bits into a byte vector.
///
/// Internally the writer keeps up to 63 not-yet-emitted bits right-aligned in
/// a 64-bit accumulator; a write that completes the accumulator moves one
/// whole big-endian word into the output buffer, so the buffer only ever
/// grows by 8 bytes at a time.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole words written so far; its length is always a multiple of 8.
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; only the low [`Self::pending`] bits are
    /// meaningful (higher bits may hold stale data and are masked on output).
    acc: u64,
    /// Number of valid bits in `acc`; always `< 64` between calls.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` bytes before it
    /// has to grow, so a caller that knows roughly how long its stream will
    /// be saves the doubling reallocations (each one a locked call into the
    /// allocator when worker threads share an arena).
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Writes the `count` least-significant bits of `value`, most significant
    /// of those first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count > 0 {
            let field = value & (u64::MAX >> (64 - count));
            (self.acc, self.pending) = self.push_field(self.acc, self.pending, field, count);
        }
    }

    /// Writes `count` as a unary run (`count` one-bits followed by a zero).
    ///
    /// Long runs go out as whole 64-bit fields of ones; see [`crate::rice`]
    /// for the bound that keeps encoder-produced runs short in the first
    /// place.
    pub fn write_unary(&mut self, count: u64) {
        let mut remaining = count;
        while remaining >= 64 {
            self.write_bits(u64::MAX, 64);
            remaining -= 64;
        }
        // `remaining < 64`: the leftover ones and the terminator in one
        // field of `remaining + 1 <= 64` bits.
        let ones = if remaining == 0 { 0 } else { u64::MAX >> (64 - remaining) };
        self.write_bits(ones << 1, remaining as u32 + 1);
    }

    /// Writes one Rice codeword with parameter `k` per value: the quotient
    /// `value >> k` in unary (that many one-bits, then a zero), then the low
    /// `k` bits.
    ///
    /// The block encoder: codewords are assembled in registers and only
    /// whole 64-bit words reach the buffer. A codeword longer than 64 bits
    /// (a quotient beyond `63 - k`) goes out through
    /// [`BitWriter::write_unary`] and [`BitWriter::write_bits`]; the stream
    /// is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    #[inline]
    pub fn write_codewords(&mut self, k: u32, values: &[u64]) {
        assert!(k < 64, "a Rice parameter must be below 64");
        let low_mask = (1u64 << k) - 1;
        // `2^(k+1)`, wrapping to 0 for k = 63 like every term below.
        let terminator_weight = 2u64 << k;
        let (mut acc, mut pending) = (self.acc, self.pending);
        for &value in values {
            let quotient = value >> k;
            if quotient > u64::from(63 - k) {
                (self.acc, self.pending) = (acc, pending);
                self.write_unary(quotient);
                self.write_bits(value & low_mask, k);
                (acc, pending) = (self.acc, self.pending);
                continue;
            }
            let total = quotient as u32 + 1 + k;
            // `quotient` ones, a zero, the remainder: `2^total - 2^(k+1) + r`
            // in the low `total` bits, computed modulo 2^64 so that
            // `total = 64` needs no special case.
            let codeword = (2u64 << (total - 1))
                .wrapping_sub(terminator_weight)
                .wrapping_add(value & low_mask);
            (acc, pending) = self.push_field(acc, pending, codeword, total);
        }
        (self.acc, self.pending) = (acc, pending);
    }

    /// Appends a field of `1..=64` bits, whose value has no bits above
    /// `count`, to the pending bits `(acc, pending)`, moving a completed word
    /// to the buffer; returns the new pending bits. The accumulator is
    /// passed by value so block loops keep it in a register.
    #[inline]
    fn push_field(&mut self, acc: u64, pending: u32, field: u64, count: u32) -> (u64, u32) {
        let free = 64 - pending;
        if count < free {
            return ((acc << count) | field, pending + count);
        }
        // The field completes the accumulator: its top `free` bits finish
        // the word, the low `spill` bits stay pending.
        let spill = count - free;
        let word = if free == 64 { field } else { (acc << free) | (field >> spill) };
        self.bytes.extend_from_slice(&word.to_be_bytes());
        (field, spill)
    }

    /// Appends the first `bit_len` bits of `bytes` (MSB-first, the layout
    /// [`BitWriter::into_bytes`] produces) to this stream.
    ///
    /// This is how the codec's encode session joins its per-subband Rice
    /// streams behind the header: each band fills its own writer and the
    /// fragments are concatenated at arbitrary bit offsets, eight bytes per
    /// write. When this writer happens to be word-aligned the fragment's
    /// whole words are copied directly.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `bit_len` bits.
    pub fn append(&mut self, bytes: &[u8], bit_len: u64) {
        assert!(
            bytes.len() as u64 * 8 >= bit_len,
            "fragment of {} bytes cannot hold {bit_len} bits",
            bytes.len()
        );
        let whole = (bit_len / 64) as usize * 8;
        if self.pending == 0 {
            self.bytes.extend_from_slice(&bytes[..whole]);
        } else {
            for chunk in bytes[..whole].chunks_exact(8) {
                self.write_bits(u64::from_be_bytes(chunk.try_into().expect("chunk of 8")), 64);
            }
        }
        let rem = (bit_len % 64) as u32;
        if rem > 0 {
            let mut tail = [0u8; 8];
            let tail_len = rem.div_ceil(8) as usize;
            tail[..tail_len].copy_from_slice(&bytes[whole..whole + tail_len]);
            self.write_bits(u64::from_be_bytes(tail) >> (64 - rem), rem);
        }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Finishes the stream, padding the last byte with zero bits.
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let tail = (self.acc << (64 - self.pending)).to_be_bytes();
            self.bytes.extend_from_slice(&tail[..self.pending.div_ceil(8) as usize]);
        }
        self.bytes
    }
}

/// Reads bits from a byte slice.
///
/// The reader keeps a 64-bit look-ahead accumulator of upcoming bits
/// (left-aligned, so bit 63 is the next stream bit) and refills it from the
/// byte buffer roughly once per seven byte-sized reads — small fields and
/// unary scans are a shift and a mask, not a loop per bit.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte not yet loaded into `acc`.
    next_byte: usize,
    /// Upcoming bits, left-aligned; only the top `avail` bits are valid and
    /// the bits below them are always zero.
    acc: u64,
    /// Number of valid bits at the top of `acc`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, next_byte: 0, acc: 0, avail: 0 }
    }

    fn end_of_stream() -> CoderError {
        CoderError::MalformedStream("unexpected end of bitstream".to_owned())
    }

    /// Loads bytes into the accumulator until it holds at least 57 bits or
    /// the input is exhausted. Away from the end of the buffer the refill is
    /// a single unaligned 8-byte load instead of a per-byte loop.
    fn refill(&mut self) {
        let take_bits = (64 - self.avail) & !7;
        if take_bits == 0 {
            return;
        }
        if let Some(chunk) = self.bytes.get(self.next_byte..self.next_byte + 8) {
            let word = u64::from_be_bytes(chunk.try_into().expect("chunk of 8"));
            self.acc |= (word >> (64 - take_bits)) << (64 - self.avail - take_bits);
            self.avail += take_bits;
            self.next_byte += (take_bits / 8) as usize;
        } else {
            while self.avail <= 56 && self.next_byte < self.bytes.len() {
                self.acc |= u64::from(self.bytes[self.next_byte]) << (56 - self.avail);
                self.avail += 8;
                self.next_byte += 1;
            }
        }
    }

    /// Drops the top `count <= avail` bits of the accumulator.
    #[inline]
    fn consume(&mut self, count: u32) {
        self.acc = if count == 64 { 0 } else { self.acc << count };
        self.avail -= count;
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CoderError> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return Err(Self::end_of_stream());
            }
        }
        let bit = self.acc >> 63 == 1;
        self.consume(1);
        Ok(bit)
    }

    /// Reads `count` bits into the low bits of a `u64`.
    ///
    /// The whole field comes out of the look-ahead accumulator with one
    /// shift — there is no per-bit loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CoderError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count == 0 {
            return Ok(0);
        }
        if count > 57 {
            // The refill tops out at 63 buffered bits, which cannot satisfy
            // a 58..=64-bit field at every alignment; split it once.
            let high = self.read_bits(count - 32)?;
            let low = self.read_bits(32)?;
            return Ok((high << 32) | low);
        }
        if self.avail < count {
            self.refill();
            if self.avail < count {
                return Err(Self::end_of_stream());
            }
        }
        let value = self.acc >> (64 - count);
        self.consume(count);
        Ok(value)
    }

    /// Reads a unary run (number of one-bits before the terminating zero).
    ///
    /// The run is counted with `leading_ones` over the look-ahead
    /// accumulator, so long runs cost a few instructions per 56 bits instead
    /// of a call per bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    pub fn read_unary(&mut self) -> Result<u64, CoderError> {
        let mut count = 0u64;
        loop {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    return Err(Self::end_of_stream());
                }
            }
            // Bits below the valid region are zero, so `leading_ones` can
            // only overshoot `avail` when all valid bits are ones.
            let ones = self.acc.leading_ones().min(self.avail);
            if ones < self.avail {
                self.consume(ones + 1);
                return Ok(count + u64::from(ones));
            }
            count += u64::from(ones);
            self.consume(ones);
        }
    }

    /// Reads a unary run immediately followed by a `count`-bit field — the
    /// shape of one Rice codeword — in a single accumulator transaction.
    ///
    /// Equivalent to [`BitReader::read_unary`] followed by
    /// [`BitReader::read_bits`], but the common case (the whole codeword
    /// already buffered) pays for one refill check instead of two.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_unary_then_bits(&mut self, count: u32) -> Result<(u64, u64), CoderError> {
        if self.avail < 57 {
            self.refill();
        }
        let ones = self.acc.leading_ones().min(self.avail);
        if ones < self.avail && ones + 1 + count <= self.avail {
            // With `count >= 1` the constraint `ones + 1 + count <= 64`
            // keeps the run shift below 64; the `count == 0` arm never
            // shifts, so a 63-one run cannot overflow the shift either.
            let field = if count == 0 { 0 } else { (self.acc << (ones + 1)) >> (64 - count) };
            self.consume(ones + 1 + count);
            return Ok((u64::from(ones), field));
        }
        let quotient = self.read_unary()?;
        let field = self.read_bits(count)?;
        Ok((quotient, field))
    }

    /// Reads `out.len()` Rice codewords with parameter `k` — each a unary
    /// quotient then a `k`-bit remainder — storing `map((quotient << k) |
    /// remainder)` for each.
    ///
    /// The block decode: after one refill, codewords are taken straight out
    /// of the look-ahead accumulator for as long as the next one fits in it
    /// (`ones + 1 + k <= avail`), several per refill at typical code lengths.
    /// A codeword that does not fit even after a refill — a long unary run or
    /// the end of the stream — goes through [`BitReader::read_unary_then_bits`],
    /// so the values and the error are exactly those of calling it once per
    /// codeword, except that a quotient whose value `quotient << k` overflows
    /// 64 bits is refused rather than wrapped. A codeword that fits the
    /// look-ahead never overflows, and no encoder here writes one that does:
    /// it takes a run of `2^(64-k)` ones, at least 4 one-bits at `k = 62` and
    /// 2 GiB of them at `k = 30`.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] at end of input or for a
    /// codeword whose value overflows 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    #[inline]
    pub fn read_codewords<T>(
        &mut self,
        k: u32,
        out: &mut [T],
        map: impl Fn(u64) -> T,
    ) -> Result<(), CoderError> {
        assert!(k < 64, "a Rice parameter must be below 64");
        let scale = 1u64 << k;
        let mut i = 0;
        while i < out.len() {
            self.refill();
            let first = i;
            let (mut acc, mut avail) = (self.acc, self.avail);
            while i < out.len() {
                // Bits below the valid region are zero, so `ones <= avail`.
                let ones = acc.leading_ones();
                let len = ones + 1 + k;
                if len > avail {
                    break;
                }
                // `len <= 64` bounds `ones <= 63` and `k <= 63`, so every
                // shift amount stays below 64. The top `k + 1` bits after
                // the run are the zero terminator and the field.
                let rest = acc << ones;
                let field = rest >> (63 - k);
                acc = (rest << 1) << k;
                avail -= len;
                out[i] = map(u64::from(ones) * scale + field);
                i += 1;
            }
            (self.acc, self.avail) = (acc, avail);
            if i == first {
                let (quotient, field) = self.read_unary_then_bits(k)?;
                if k > 0 && quotient >> (64 - k) != 0 {
                    return Err(CoderError::MalformedStream(format!(
                        "rice quotient {quotient} overflows a 64-bit value at parameter {k}"
                    )));
                }
                out[i] = map((quotient << k) | field);
                i += 1;
            }
        }
        Ok(())
    }

    /// Number of bits consumed so far.
    #[must_use]
    pub fn bits_read(&self) -> u64 {
        self.next_byte as u64 * 8 - u64::from(self.avail)
    }

    /// Checks that the stream ends here: past the last coded field only the
    /// padding of its byte may remain. Anything beyond it is corruption, not
    /// slack.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if whole bytes are left.
    pub fn ensure_consumed(&self) -> Result<(), CoderError> {
        let trailing = (self.bytes.len() as u64 * 8 - self.bits_read()) / 8;
        if trailing > 0 {
            let message = format!("{trailing} trailing bytes past the last subband");
            return Err(CoderError::MalformedStream(message));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original bit-at-a-time writer, kept verbatim as the behavioural
    /// reference for the word-at-a-time rewrite: every stream the fast writer
    /// produces must be byte-identical to this one's.
    #[derive(Debug, Default)]
    struct ReferenceBitWriter {
        bytes: Vec<u8>,
        current: u8,
        filled: u32,
    }

    impl ReferenceBitWriter {
        fn write_bit(&mut self, bit: bool) {
            self.current = (self.current << 1) | u8::from(bit);
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }

        fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn write_unary(&mut self, count: u64) {
            for _ in 0..count {
                self.write_bit(true);
            }
            self.write_bit(false);
        }

        fn into_bytes(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.current <<= 8 - self.filled;
                self.bytes.push(self.current);
            }
            self.bytes
        }
    }

    /// One random writer operation of the property mix.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Bit(bool),
        Bits(u64, u32),
        Unary(u64),
    }

    fn random_ops(rng: &mut StdRng, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Op::Bit(rng.gen_range(0..2) == 1),
                1 => {
                    let count = rng.gen_range(0..=64u32);
                    Op::Bits(rng.gen_range(0..=u64::MAX), count)
                }
                // Heavy tail: include runs far beyond 64 bits so the
                // whole-byte emission and scanning paths are exercised.
                _ => Op::Unary(if rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(64..400u64)
                } else {
                    rng.gen_range(0..20u64)
                }),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Byte-identical streams: any mix of bit, multi-bit and unary writes
        /// produces exactly the bytes of the original per-bit implementation.
        #[test]
        fn writer_matches_the_per_bit_reference(seed in 0u64..1_000_000, len in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = random_ops(&mut rng, len);
            let mut fast = BitWriter::new();
            let mut reference = ReferenceBitWriter::default();
            for &op in &ops {
                match op {
                    Op::Bit(b) => {
                        fast.write_bit(b);
                        reference.write_bit(b);
                    }
                    Op::Bits(v, c) => {
                        fast.write_bits(v, c);
                        reference.write_bits(v, c);
                    }
                    Op::Unary(n) => {
                        fast.write_unary(n);
                        reference.write_unary(n);
                    }
                }
            }
            prop_assert_eq!(fast.into_bytes(), reference.into_bytes());
        }

        /// Identical read-back: whatever was written comes back value for
        /// value through the word-at-a-time reader.
        #[test]
        fn reader_roundtrips_random_op_mixes(seed in 0u64..1_000_000, len in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = random_ops(&mut rng, len);
            let mut writer = BitWriter::new();
            for &op in &ops {
                match op {
                    Op::Bit(b) => writer.write_bit(b),
                    Op::Bits(v, c) => writer.write_bits(v, c),
                    Op::Unary(n) => writer.write_unary(n),
                }
            }
            let bytes = writer.into_bytes();
            let mut reader = BitReader::new(&bytes);
            for &op in &ops {
                match op {
                    Op::Bit(b) => prop_assert_eq!(reader.read_bit().unwrap(), b),
                    Op::Bits(v, c) => {
                        let expected = if c == 0 { 0 } else { v & (u64::MAX >> (64 - c)) };
                        prop_assert_eq!(reader.read_bits(c).unwrap(), expected);
                    }
                    Op::Unary(n) => prop_assert_eq!(reader.read_unary().unwrap(), n),
                }
            }
        }

        /// The block codeword writer emits exactly the per-bit reference's
        /// unary-then-field bytes at every parameter 0..=63 and leading
        /// offset, including codewords longer than one 64-bit word.
        #[test]
        fn codeword_writer_matches_the_per_bit_reference(
            seed in 0u64..1_000_000,
            lead in 0u32..64,
            count in 0usize..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(0..64u32);
            let largest_quotient = (u64::MAX >> k).min(300);
            let values: Vec<u64> = (0..count)
                .map(|_| {
                    let quotient = if rng.gen_range(0..4u32) == 0 {
                        rng.gen_range(0..=largest_quotient)
                    } else {
                        rng.gen_range(0..=largest_quotient.min(3))
                    };
                    (quotient << k) | (rng.gen_range(0..=u64::MAX) & ((1u64 << k) - 1))
                })
                .collect();
            let lead_bits = rng.gen_range(0..=u64::MAX);
            let mut fast = BitWriter::new();
            let mut reference = ReferenceBitWriter::default();
            fast.write_bits(lead_bits, lead);
            reference.write_bits(lead_bits, lead);
            fast.write_codewords(k, &values);
            for &value in &values {
                reference.write_unary(value >> k);
                reference.write_bits(value, k);
            }
            prop_assert_eq!(fast.into_bytes(), reference.into_bytes());
        }

        /// Splicing fragments at arbitrary bit offsets reproduces the stream
        /// a single writer would have produced.
        #[test]
        fn append_equals_writing_in_one_stream(seed in 0u64..1_000_000, pieces in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fragments: Vec<Vec<Op>> = (0..pieces)
                .map(|_| {
                    let len = rng.gen_range(1..40);
                    random_ops(&mut rng, len)
                })
                .collect();
            let mut single = BitWriter::new();
            let mut spliced = BitWriter::new();
            for ops in &fragments {
                let mut fragment = BitWriter::new();
                for &op in ops {
                    match op {
                        Op::Bit(b) => {
                            single.write_bit(b);
                            fragment.write_bit(b);
                        }
                        Op::Bits(v, c) => {
                            single.write_bits(v, c);
                            fragment.write_bits(v, c);
                        }
                        Op::Unary(n) => {
                            single.write_unary(n);
                            fragment.write_unary(n);
                        }
                    }
                }
                let bits = fragment.bit_len();
                spliced.append(&fragment.into_bytes(), bits);
            }
            prop_assert_eq!(spliced.bit_len(), single.bit_len());
            prop_assert_eq!(spliced.into_bytes(), single.into_bytes());
        }
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len() as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.bits_read(), 37);
    }

    #[test]
    fn full_width_fields_roundtrip_at_any_alignment() {
        for lead in 0u32..8 {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            w.write_bits(u64::MAX, 64);
            w.write_bits(0x0123_4567_89AB_CDEF, 64);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(lead).unwrap(), 0);
            assert_eq!(r.read_bits(64).unwrap(), u64::MAX, "lead {lead}");
            assert_eq!(r.read_bits(64).unwrap(), 0x0123_4567_89AB_CDEF, "lead {lead}");
        }
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for n in [0u64, 1, 5, 13] {
            w.write_unary(n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in [0u64, 1, 5, 13] {
            assert_eq!(r.read_unary().unwrap(), n);
        }
    }

    #[test]
    fn long_unary_runs_roundtrip() {
        // Runs beyond 64 bits exercise the whole-0xFF-byte paths.
        let runs = [63u64, 64, 65, 127, 128, 1000];
        for lead in 0u32..8 {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            for &n in &runs {
                w.write_unary(n);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(lead).unwrap(), 0);
            for &n in &runs {
                assert_eq!(r.read_unary().unwrap(), n, "lead {lead}");
            }
        }
    }

    #[test]
    fn end_of_stream_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
        // A unary run that never terminates also errors out.
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_unary().is_err());
        // Same for a run reaching the end mid-byte.
        let mut r = BitReader::new(&[0b0111_1111, 0xFF]);
        assert_eq!(r.read_unary().unwrap(), 0);
        assert!(r.read_unary().is_err());
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    #[should_panic(expected = "more than 64 bits")]
    fn oversized_write_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(0, 65);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn oversized_append_rejected() {
        let mut w = BitWriter::new();
        w.append(&[0xFF], 9);
    }
}
