//! # lwc-bench — benchmark harness and table regeneration
//!
//! This crate hosts two things:
//!
//! * the Criterion benchmarks under `benches/`, one per table/figure of the
//!   paper (see `DESIGN.md` for the experiment index), and
//! * the `reproduce` binary, which prints every regenerated table and figure
//!   next to the values the paper reports (the data behind
//!   `EXPERIMENTS.md`).
//!
//! The helpers here keep the workloads consistent across benches. The
//! [`corpus`] module is the real-corpus harness: DICOM/PGM discovery, the
//! deterministic in-tree fixture corpus, and per-modality ratio-vs-PSNR
//! evaluation shared by `reproduce corpus` and the `lwc-batch` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod perf;

use lwc_core::lwc_coder::StreamHeader;
use lwc_core::prelude::*;

/// The deterministic 12-bit random image used by the benchmarks
/// (the paper validates on random images).
#[must_use]
pub fn bench_image(size: usize) -> Image {
    synth::random_image(size, size, 12, 0xD47E)
}

/// The deterministic CT-like phantom used by the compression benchmarks.
#[must_use]
pub fn bench_phantom(size: usize) -> Image {
    synth::ct_phantom(size, size, 12, 0xD47E)
}

/// All six Table I banks, constructed once.
#[must_use]
pub fn all_banks() -> Vec<FilterBank> {
    FilterBank::all_table1()
}

/// The fixed synthetic corpus of the throughput harness (`reproduce
/// perfjson`): a deterministic CT/MR mix at `size`×`size`, 12-bit.
#[must_use]
pub fn perf_corpus(count: usize, size: usize) -> Vec<Image> {
    (0..count)
        .map(|k| match k % 2 {
            0 => synth::ct_phantom(size, size, 12, 4000 + k as u64),
            _ => synth::mr_slice(size, size, 12, 4000 + k as u64),
        })
        .collect()
}

/// The multi-pass reference composition of [`LosslessCodec::compress_view`]:
/// the whole window through [`Lifting53::forward_view`], then every subband
/// copied out, quantized and Rice-coded behind the header. The codec itself
/// encodes through the line cascade; `reproduce dwt-line` and `perfjson`
/// time it against this composition and assert the bytes agree.
///
/// # Errors
///
/// Returns the codec's header error for a shape the stream cannot carry.
pub fn multi_pass_compress(
    codec: &LosslessCodec,
    view: &ImageView<'_>,
) -> Result<Vec<u8>, lwc_core::lwc_coder::CoderError> {
    use lwc_core::lwc_coder::{bitio::BitWriter, quant, subband_order};
    let header = codec.header_for_view(view)?;
    let coeffs = codec.transform().forward_view(view)?;
    let schedule = codec.schedule();
    let mut writer = BitWriter::new();
    header.write(&mut writer);
    for (scale, band) in subband_order(codec.scales()) {
        let mut samples = coeffs.subband(scale, band);
        quant::quantize(&mut samples, schedule.allowance(scale, band));
        codec.subband_codec().encode_subband(&mut writer, &samples);
    }
    Ok(writer.into_bytes())
}

/// The multi-pass reference composition of [`LosslessCodec::decompress_raw`]:
/// every decoded subband scattered (and, for a near-lossless stream,
/// dequantized by the header's schedule) into the Mallat layout, then the
/// whole frame through [`Lifting53::inverse_raw_owned`]. The codec itself
/// decodes through the inverse line cascade; `reproduce dwt-line` and
/// `perfjson` time it against this composition and assert the samples
/// agree.
///
/// # Errors
///
/// Returns the codec's error for a malformed stream.
pub fn multi_pass_decompress(
    codec: &LosslessCodec,
    bytes: &[u8],
) -> Result<Vec<i32>, lwc_core::lwc_coder::CoderError> {
    use lwc_core::lwc_coder::{quant, subband_order, QuantSchedule};
    use lwc_core::lwc_lifting::{geometry::band_rect, LiftingCoefficients};
    let (header, mut subbands) = codec.decode_subbands(bytes)?;
    let (width, height) = (header.width, header.height);
    let schedule = QuantSchedule::for_delta(header.delta, codec.scales());
    let mut data = vec![0i32; width * height];
    for ((scale, band), samples) in subband_order(codec.scales()).zip(&mut subbands) {
        let rect = band_rect(width, height, scale, band);
        if rect.is_empty() {
            continue;
        }
        quant::dequantize(samples, schedule.allowance(scale, band));
        for (row_index, row) in samples.chunks(rect.width).enumerate() {
            let start = (rect.y + row_index) * width + rect.x;
            data[start..start + row.len()].copy_from_slice(row);
        }
    }
    let coeffs =
        LiftingCoefficients::from_raw(data, width, height, codec.scales(), header.bit_depth)?;
    Ok(codec.transform().inverse_raw_owned(coeffs)?)
}

/// Decodes the subbands of `bytes` into `subbands`, which must be shaped as
/// [`LosslessCodec::decode_subbands`] returns them, each through
/// [`SubbandCodec::decode_subband_into`] — the block decode without the
/// output allocation, so `reproduce perfjson` times the coder alone.
///
/// # Errors
///
/// Returns the codec's error for a malformed stream.
///
/// [`SubbandCodec::decode_subband_into`]: lwc_core::lwc_coder::SubbandCodec::decode_subband_into
pub fn decode_subbands_into(
    codec: &LosslessCodec,
    bytes: &[u8],
    subbands: &mut [Vec<i32>],
) -> Result<StreamHeader, lwc_core::lwc_coder::CoderError> {
    let mut reader = lwc_core::lwc_coder::bitio::BitReader::new(bytes);
    let header = read_stream_header(codec, bytes, &mut reader, subbands)?;
    for samples in subbands {
        codec.subband_codec().decode_subband_into(&mut reader, samples)?;
    }
    Ok(header)
}

/// The per-codeword reference of [`decode_subbands_into`]: the same stream
/// walk, but every value through [`rice::decode_value`] instead of the block
/// decode. `reproduce perfjson` times the two against each other and asserts
/// they decode the same subbands.
///
/// # Errors
///
/// Returns the codec's error for a malformed stream.
///
/// [`rice::decode_value`]: lwc_core::lwc_coder::rice::decode_value
pub fn per_codeword_decode_subbands_into(
    codec: &LosslessCodec,
    bytes: &[u8],
    subbands: &mut [Vec<i32>],
) -> Result<StreamHeader, lwc_core::lwc_coder::CoderError> {
    use lwc_core::lwc_coder::rice::{self, MAX_RICE_PARAMETER};
    use lwc_core::lwc_coder::{CoderError, BLOCK_SIZE};
    let mut reader = lwc_core::lwc_coder::bitio::BitReader::new(bytes);
    let header = read_stream_header(codec, bytes, &mut reader, subbands)?;
    for samples in subbands {
        for block in samples.chunks_mut(BLOCK_SIZE) {
            let k = reader.read_bits(5)? as u32;
            if k > MAX_RICE_PARAMETER {
                return Err(CoderError::MalformedStream(format!("rice parameter {k}")));
            }
            for slot in block {
                *slot = rice::decode_value(&mut reader, k)?;
            }
        }
    }
    Ok(header)
}

/// Reads and checks the header of `bytes`, and that `subbands` has one
/// buffer of the right length per subband.
fn read_stream_header(
    codec: &LosslessCodec,
    bytes: &[u8],
    reader: &mut lwc_core::lwc_coder::bitio::BitReader<'_>,
    subbands: &[Vec<i32>],
) -> Result<StreamHeader, lwc_core::lwc_coder::CoderError> {
    use lwc_core::lwc_coder::{subband_order, CoderError};
    let header = StreamHeader::read(reader)?;
    header.ensure_scales(codec.scales())?;
    header.ensure_plausible_length(bytes.len())?;
    let lengths = subband_order(codec.scales()).map(|(scale, band)| header.band_len(scale, band));
    if !lengths.eq(subbands.iter().map(Vec::len)) {
        return Err(CoderError::MalformedStream("subband buffers do not fit the stream".into()));
    }
    Ok(header)
}

/// Writes `header` then every subband through the codec's
/// [`SubbandCodec::encode_subband`] in [`subband_order`] — the entropy half
/// of [`LosslessCodec::compress`] on its own. Fed the subbands
/// [`LosslessCodec::decode_subbands`] returns, it reproduces the stream byte
/// for byte.
///
/// [`SubbandCodec::encode_subband`]: lwc_core::lwc_coder::SubbandCodec::encode_subband
/// [`subband_order`]: lwc_core::lwc_coder::subband_order
#[must_use]
pub fn encode_subbands(
    codec: &LosslessCodec,
    header: &StreamHeader,
    subbands: &[Vec<i32>],
) -> Vec<u8> {
    let mut writer = lwc_core::lwc_coder::bitio::BitWriter::new();
    header.write(&mut writer);
    for samples in subbands {
        codec.subband_codec().encode_subband(&mut writer, samples);
    }
    writer.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_pass_reference_reproduces_the_codec() {
        let image = synth::mr_slice(45, 38, 12, 5);
        for delta in [0u8, 3] {
            let codec = LosslessCodec::near_lossless(3, delta).unwrap();
            let reference = multi_pass_compress(&codec, &image.view()).unwrap();
            assert_eq!(reference, codec.compress(&image).unwrap(), "delta {delta}");
        }
    }

    #[test]
    fn multi_pass_decode_reference_reproduces_the_codec() {
        let image = synth::mr_slice(45, 38, 12, 5);
        for delta in [0u8, 3] {
            let codec = LosslessCodec::near_lossless(3, delta).unwrap();
            let bytes = codec.compress(&image).unwrap();
            let reference = multi_pass_decompress(&codec, &bytes).unwrap();
            assert_eq!(reference, codec.decompress_raw(&bytes).unwrap().1, "delta {delta}");
        }
    }

    #[test]
    fn rice_references_reproduce_the_codec() {
        let image = synth::ct_phantom(70, 45, 12, 8);
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&image).unwrap();
        let (header, subbands) = codec.decode_subbands(&bytes).unwrap();
        let mut block = subbands.iter().map(|s| vec![0; s.len()]).collect::<Vec<_>>();
        let mut reference = block.clone();
        assert_eq!(decode_subbands_into(&codec, &bytes, &mut block).unwrap(), header);
        assert_eq!(
            per_codeword_decode_subbands_into(&codec, &bytes, &mut reference).unwrap(),
            header
        );
        assert_eq!((&block, &reference), (&subbands, &subbands));
        assert_eq!(encode_subbands(&codec, &header, &subbands), bytes);
        let cut = &bytes[..bytes.len() / 2];
        assert!(decode_subbands_into(&codec, cut, &mut block).is_err());
        assert!(per_codeword_decode_subbands_into(&codec, cut, &mut reference).is_err());
        assert!(decode_subbands_into(&codec, &bytes, &mut block[1..]).is_err());
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(bench_image(32), bench_image(32));
        assert_eq!(bench_phantom(32), bench_phantom(32));
        assert_eq!(all_banks().len(), 6);
    }
}
