//! The engines' ops recomposed from each layer's public functions, with a
//! span around every layer call. Each function must return exactly what the
//! engine call it mirrors returns; the traced runs check that on every op.

use crate::trace::Ctx;
use crate::Res;
use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::tiled::write_container;
use lwc_coder::volume::{split_brick_payload, write_brick_payload};
use lwc_coder::{
    plane_delta_for_volume, quant, subband_order, write_volume_container, LosslessCodec,
    QuantSchedule, StreamHeader, TiledHeader, TiledStream, VolumeHeader, VolumeStream,
};
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, ImageView, TileRect};
use lwc_lifting::geometry::band_rect;
use lwc_lifting::{forward_z, inverse_z, LiftingCoefficients};
use lwc_pipeline::{scatter_region, TiledCompressor, VolumeCompressor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// `LosslessCodec::compress_view`: forward lifting, then every subband's
/// copy, quantization and Rice coding, each stage one span.
pub fn encode_plane(ctx: Ctx<'_>, codec: &LosslessCodec, view: &ImageView<'_>) -> Res<Vec<u8>> {
    let header = codec.header_for_view(view)?;
    let coeffs = ctx.span("lifting.forward", |_| codec.transform().forward_view(view))?;
    let order: Vec<(u32, usize)> = subband_order(codec.scales()).collect();
    let mut bands: Vec<Vec<i32>> = ctx.span("coder.subband_copy", |_| {
        order.iter().map(|&(scale, band)| coeffs.subband(scale, band)).collect()
    });
    let schedule = codec.schedule();
    ctx.span("coder.quantize", |_| {
        for (samples, &(scale, band)) in bands.iter_mut().zip(&order) {
            quant::quantize(samples, schedule.allowance(scale, band));
        }
    });
    let mut writer = BitWriter::new();
    header.write(&mut writer);
    let subbands = codec.subband_codec();
    let bits = ctx.span("coder.rice_encode", |_| {
        bands.iter().map(|samples| subbands.encode_subband(&mut writer, samples)).sum::<u64>()
    });
    ctx.add("coder.rice_bits", bits);
    ctx.add("coder.rice_samples", view.pixel_count() as u64);
    Ok(writer.into_bytes())
}

/// `LosslessCodec::decompress_raw`: Rice decoding, the dequantizing scatter
/// into the Mallat layout, then inverse lifting.
pub fn decode_plane(
    ctx: Ctx<'_>,
    codec: &LosslessCodec,
    bytes: &[u8],
) -> Res<(StreamHeader, Vec<i32>)> {
    let mut reader = BitReader::new(bytes);
    let header = StreamHeader::read(&mut reader)?;
    header.ensure_scales(codec.scales())?;
    header.ensure_plausible_length(bytes.len())?;
    let scales = codec.scales();
    let subbands = codec.subband_codec();
    let bands = ctx.span("coder.rice_decode", |_| {
        subband_order(scales)
            .map(|(scale, band)| subbands.decode_subband(&mut reader, header.band_len(scale, band)))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let coeffs = ctx.span("coder.scatter", |_| mallat(&header, scales, &bands))?;
    let data = ctx.span("lifting.inverse", |_| codec.transform().inverse_raw(&coeffs))?;
    Ok((header, data))
}

/// Places decoded (and, for near-lossless streams, dequantized) subbands in
/// the Mallat layout the inverse transform reads.
fn mallat(header: &StreamHeader, scales: u32, bands: &[Vec<i32>]) -> Res<LiftingCoefficients> {
    let (width, height) = (header.width, header.height);
    let schedule = QuantSchedule::for_delta(header.delta, scales);
    let mut data = vec![0i32; width * height];
    for ((scale, band), samples) in subband_order(scales).zip(bands) {
        let rect = band_rect(width, height, scale, band);
        if rect.is_empty() {
            continue;
        }
        let step = schedule.step(scale, band);
        for (row_index, row) in samples.chunks(rect.width).enumerate() {
            let start = (rect.y + row_index) * width + rect.x;
            let slots = &mut data[start..start + row.len()];
            if step == 1 {
                slots.copy_from_slice(row);
            } else {
                for (slot, &index) in slots.iter_mut().zip(row) {
                    *slot = (i64::from(index) * step) as i32;
                }
            }
        }
    }
    Ok(LiftingCoefficients::from_raw(data, width, height, scales, header.bit_depth)?)
}

/// Near-lossless reconstructions are clamped to the sample range, as the
/// engines do after the last inverse transform.
fn clamp_to_range(samples: &mut [i32], delta: u8, bit_depth: u32) {
    if delta != 0 {
        let max = ((1i64 << bit_depth) - 1).min(i64::from(i32::MAX)) as i32;
        for sample in samples {
            *sample = (*sample).clamp(0, max);
        }
    }
}

/// `LosslessCodec::decompress`.
pub fn decode_frame(ctx: Ctx<'_>, codec: &LosslessCodec, bytes: &[u8]) -> Res<Image> {
    let (header, mut data) = decode_plane(ctx, codec, bytes)?;
    clamp_to_range(&mut data, header.delta, header.bit_depth);
    Ok(ctx.span("image.validate", |_| {
        Image::from_samples(header.width, header.height, header.bit_depth, data)
    })?)
}

/// The engines' `run_indexed` discipline — up to `workers` scoped threads
/// pulling part indices from a shared cursor, a fresh thread scope per call
/// — with a span around the whole fan-out and one per part.
pub fn fan<T: Send>(
    ctx: Ctx<'_>,
    workers: usize,
    count: usize,
    job: impl Fn(Ctx<'_>, usize) -> Res<T> + Sync,
) -> Res<Vec<T>> {
    ctx.span("pipeline.fanout", |ctx| {
        let part = |index| ctx.span("pipeline.part", |c| job(c, index));
        let workers = workers.min(count).max(1);
        if workers == 1 {
            return (0..count).map(part).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Res<T>>>> = (0..count).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        return;
                    }
                    let out = part(index);
                    *slots[index].lock().expect("slot lock poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock poisoned").expect("every part ran"))
            .collect()
    })
}

/// `TiledCompressor::compress` for a multi-tile grid, tiles fanned across
/// `workers`; a single-tile grid is the plain codec, as in the engine.
pub fn compress_tiled(
    ctx: Ctx<'_>,
    engine: &TiledCompressor,
    workers: usize,
    image: &Image,
) -> Res<Vec<u8>> {
    let grid = engine.grid(image.width(), image.height())?;
    let codec = engine.codec();
    if grid.is_single() {
        return encode_plane(ctx, codec, &image.view());
    }
    let payloads = fan(ctx, workers, grid.tile_count(), |c, index| {
        encode_plane(c, codec, &image.view_rect(grid.rect(index))?)
    })?;
    let header = TiledHeader {
        width: image.width(),
        height: image.height(),
        bit_depth: image.bit_depth(),
        scales: codec.scales(),
        tile_width: grid.tile_width(),
        tile_height: grid.tile_height(),
        delta: codec.delta(),
    };
    Ok(ctx.span("coder.container_write", |_| write_container(&header, &payloads))?)
}

/// Decodes the tiles `indices` of an `LWCT` container; returns the parsed
/// header, the tile rectangles and the tile images.
pub fn decode_tiles(
    ctx: Ctx<'_>,
    workers: usize,
    bytes: &[u8],
    indices: Option<&[usize]>,
) -> Res<(TiledHeader, Vec<(TileRect, Image)>)> {
    let stream = ctx.span("coder.container_parse", |_| TiledStream::parse(bytes))?;
    let header = *stream.header();
    let grid = stream.grid()?;
    let all: Vec<usize> = (0..grid.tile_count()).collect();
    let indices = indices.unwrap_or(&all);
    let codec = LosslessCodec::new(header.scales)?;
    let tiles = fan(ctx, workers, indices.len(), |c, k| {
        decode_frame(c, &codec, stream.tile_bytes(indices[k]))
    })?;
    Ok((header, indices.iter().map(|&i| grid.rect(i)).zip(tiles).collect()))
}

/// `TiledCompressor::decompress` of an `LWCT` container.
pub fn decompress_tiled(ctx: Ctx<'_>, workers: usize, bytes: &[u8]) -> Res<Image> {
    let (header, tiles) = decode_tiles(ctx, workers, bytes, None)?;
    ctx.span("image.assemble", |_| {
        let mut frame = Image::zeros(header.width, header.height, header.bit_depth)?;
        for (rect, tile) in &tiles {
            frame.view_rect_mut(*rect)?.copy_from_image(tile)?;
        }
        Ok(frame)
    })
}

/// A 2-D region of an `LWCT` container: only the covering tiles decode.
pub fn decompress_region_2d(
    ctx: Ctx<'_>,
    workers: usize,
    bytes: &[u8],
    want: TileRect,
) -> Res<Image> {
    let grid = TiledStream::parse(bytes)?.grid()?;
    let covering = grid.covering_indices(want).ok_or("region outside the frame")?;
    let (header, tiles) = decode_tiles(ctx, workers, bytes, Some(&covering))?;
    ctx.span("image.assemble", |_| crop_tiles(&tiles, want, header.bit_depth))
}

/// Cuts `want` out of decoded tiles that cover it.
pub fn crop_tiles(tiles: &[(TileRect, Image)], want: TileRect, bit_depth: u32) -> Res<Image> {
    let mut region = vec![0i32; want.pixel_count()];
    for (rect, tile) in tiles {
        let (x0, x1) = (want.x.max(rect.x), want.right().min(rect.right()));
        let (y0, y1) = (want.y.max(rect.y), want.bottom().min(rect.bottom()));
        for y in y0..y1 {
            let src = (y - rect.y) * rect.width + (x0 - rect.x);
            let dst = (y - want.y) * want.width + (x0 - want.x);
            region[dst..dst + (x1 - x0)].copy_from_slice(&tile.samples()[src..src + (x1 - x0)]);
        }
    }
    Ok(Image::from_samples(want.width, want.height, bit_depth, region)?)
}

/// `VolumeCompressor::compress_stack`: bricks fanned across `workers`, then
/// the `LWCV` container.
pub fn compress_volume(
    ctx: Ctx<'_>,
    engine: &VolumeCompressor,
    workers: usize,
    stack: &ImageStack,
) -> Res<Vec<u8>> {
    let grid = engine.grid(stack.width(), stack.height(), stack.depth())?;
    let codec = engine.codec();
    let plane_codec = LosslessCodec::near_lossless(
        codec.scales(),
        plane_delta_for_volume(codec.delta(), engine.z_scales()),
    )?;
    let payloads = fan(ctx, workers, grid.brick_count(), |c, index| {
        encode_brick(c, &plane_codec, engine.z_scales(), stack, &grid, index)
    })?;
    let header = VolumeHeader {
        width: stack.width(),
        height: stack.height(),
        depth: stack.depth(),
        bit_depth: stack.bit_depth(),
        scales: codec.scales(),
        z_scales: engine.z_scales(),
        tile_width: grid.plane().tile_width(),
        tile_height: grid.plane().tile_height(),
        brick_depth: grid.brick_depth(),
        delta: codec.delta(),
    };
    Ok(ctx.span("coder.container_write", |_| write_volume_container(&header, &payloads))?)
}

/// `VolumeCompressor::encode_brick`: gather, z lifting, then every
/// coefficient plane through the 2-D codec.
fn encode_brick(
    ctx: Ctx<'_>,
    plane_codec: &LosslessCodec,
    z_scales: u32,
    stack: &ImageStack,
    grid: &BrickGrid,
    index: usize,
) -> Res<Vec<u8>> {
    let rect = grid.rect(index);
    let mut samples = stack.view_brick(rect)?.to_samples();
    let plane_len = rect.plane.pixel_count();
    ctx.span("lifting.forward_z", |_| forward_z(&mut samples, plane_len, rect.depth, z_scales))?;
    let (width, height) = (rect.plane.width, rect.plane.height);
    let planes = samples
        .chunks_exact(plane_len)
        .map(|plane| {
            let view = ImageView::from_raw(plane, width, height, width, stack.bit_depth())?;
            encode_plane(ctx, plane_codec, &view)
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(ctx.span("coder.container_write", |_| write_brick_payload(&planes)))
}

/// One brick's plane-major samples: plane table split, every plane decoded,
/// inverse z lifting.
fn decode_brick(
    ctx: Ctx<'_>,
    codec: &LosslessCodec,
    stream: &VolumeStream<'_>,
    grid: &BrickGrid,
    index: usize,
) -> Res<Vec<i32>> {
    let header = stream.header();
    let rect = grid.rect(index);
    let plane_len = rect.plane.pixel_count();
    let planes = ctx.span("coder.container_parse", |_| {
        split_brick_payload(stream.brick_bytes(index), rect.depth)
    })?;
    let mut samples = Vec::with_capacity(plane_len * rect.depth);
    for plane in planes {
        samples.extend_from_slice(&decode_plane(ctx, codec, plane)?.1);
    }
    ctx.span("lifting.inverse_z", |_| {
        inverse_z(&mut samples, plane_len, rect.depth, header.z_scales)
    })?;
    clamp_to_range(&mut samples, header.delta, header.bit_depth);
    Ok(samples)
}

/// Decodes the bricks covering `want` (the whole volume when `None`) and
/// assembles the box. Whole-volume decodes run in the engine's bounded
/// batches of `4 x workers` bricks, one fan-out each; a region is one
/// fan-out over its covering bricks.
pub fn decompress_volume(
    ctx: Ctx<'_>,
    workers: usize,
    bytes: &[u8],
    want: Option<BrickRect>,
) -> Res<ImageStack> {
    let stream = ctx.span("coder.container_parse", |_| VolumeStream::parse(bytes))?;
    let header = *stream.header();
    let grid = stream.grid()?;
    let codec = LosslessCodec::new(header.scales)?;
    let whole = BrickRect {
        plane: TileRect { x: 0, y: 0, width: header.width, height: header.height },
        z: 0,
        depth: header.depth,
    };
    let (rect, indices, batch) = match want {
        Some(rect) => {
            let covering = grid.covering_indices(rect).ok_or("region outside the volume")?;
            let count = covering.len();
            (rect, covering, count.max(1))
        }
        None => (whole, (0..grid.brick_count()).collect(), (workers * 4).max(4)),
    };
    let mut samples = vec![0i32; rect.voxel_count()];
    for chunk in indices.chunks(batch) {
        let bricks = fan(ctx, workers, chunk.len(), |c, k| {
            decode_brick(c, &codec, &stream, &grid, chunk[k])
        })?;
        ctx.span("pipeline.scatter", |_| {
            for (&index, brick) in chunk.iter().zip(&bricks) {
                scatter_region(&mut samples, rect, grid.rect(index), brick);
            }
        });
    }
    Ok(ctx.span("image.validate", |_| {
        ImageStack::from_samples(
            rect.plane.width,
            rect.plane.height,
            rect.depth,
            header.bit_depth,
            samples,
        )
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use lwc_image::synth;

    #[test]
    fn frame_recomposition_matches_the_codec_lossless_and_near_lossless() {
        let tracer = Tracer::new();
        for delta in [0, 2] {
            let codec = LosslessCodec::near_lossless(3, delta).unwrap();
            for image in [synth::ct_phantom(72, 40, 12, 1), synth::mr_slice(33, 65, 12, 2)] {
                let bytes = codec.compress(&image).unwrap();
                let traced =
                    tracer.op("op.encode", |c| encode_plane(c, &codec, &image.view())).unwrap();
                assert_eq!(traced, bytes);
                let back = tracer.op("op.decode", |c| decode_frame(c, &codec, &bytes)).unwrap();
                assert_eq!(back, codec.decompress(&bytes).unwrap());
            }
        }
        assert!(tracer.counter("coder.rice_bits") > 0);
        assert_eq!(tracer.counter("coder.rice_samples"), 2 * (72 * 40 + 33 * 65));
    }

    #[test]
    fn volume_recomposition_matches_the_engine_at_any_worker_count() {
        let engine = VolumeCompressor::new(3, 2, 16, 4, 2).unwrap();
        let stack = synth::ct_volume(40, 24, 11, 12, 3);
        let bytes = engine.compress_stack(&stack).unwrap();
        let rect =
            BrickRect { plane: TileRect { x: 5, y: 3, width: 20, height: 17 }, z: 2, depth: 6 };
        let tracer = Tracer::new();
        for workers in [1, 2, 3] {
            let traced =
                tracer.op("op.encode", |c| compress_volume(c, &engine, workers, &stack)).unwrap();
            assert_eq!(traced, bytes);
            let back =
                tracer.op("op.decode", |c| decompress_volume(c, workers, &bytes, None)).unwrap();
            assert_eq!(back, stack);
            let region = tracer
                .op("op.region", |c| decompress_volume(c, workers, &bytes, Some(rect)))
                .unwrap();
            assert_eq!(region, engine.decompress_region(&bytes, rect).unwrap());
        }
    }

    #[test]
    fn tiled_recomposition_matches_the_engine() {
        let engine = TiledCompressor::new(3, 16, 1).unwrap();
        let image = synth::ct_phantom(50, 37, 12, 4);
        let bytes = engine.compress(&image).unwrap();
        let tracer = Tracer::new();
        for workers in [1, 2] {
            let traced =
                tracer.op("op.encode", |c| compress_tiled(c, &engine, workers, &image)).unwrap();
            assert_eq!(traced, bytes);
            let back = tracer.op("op.decode", |c| decompress_tiled(c, workers, &bytes)).unwrap();
            assert_eq!(back, image);
            let want = TileRect { x: 7, y: 9, width: 30, height: 20 };
            let region =
                tracer.op("op.region", |c| decompress_region_2d(c, workers, &bytes, want)).unwrap();
            assert_eq!(region, image.view_rect(want).unwrap().to_image().unwrap());
        }
    }
}
