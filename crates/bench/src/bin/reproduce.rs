//! Regenerates every table and figure of the paper's evaluation and prints
//! the computed values next to the published ones.
//!
//! ```text
//! cargo run --release -p lwc-bench --bin reproduce            # everything
//! cargo run --release -p lwc-bench --bin reproduce table2     # one artifact
//! cargo run --release -p lwc-bench --bin reproduce conclusions 512
//! cargo run --release -p lwc-bench --bin reproduce perfjson 128   # smoke
//! ```
//!
//! The output of a full run is recorded in `EXPERIMENTS.md`. The `perfjson`
//! artifact additionally writes `BENCH_throughput.json` — the
//! machine-readable throughput trajectory CI archives on every run so perf
//! regressions are visible across PRs. Each timed figure is the median and
//! the minimum over `LWC_PERF_REPS` runs (default 5), and the file records
//! the host it was measured on.

use lwc_bench::perf::{host_json, Timing};
use lwc_core::lwc_coder::subband_order;
use lwc_core::lwc_lifting::zaxis::{forward_z, forward_z_columns, inverse_z, inverse_z_columns};
use lwc_core::prelude::*;
use lwc_core::reproduction;

/// Every artifact this binary can regenerate, in the order `all` runs the
/// paper-facing ones. Unknown subcommands print this list and exit nonzero.
const ARTIFACTS: &[(&str, &str)] = &[
    ("table1", "filter banks best suited to image compression"),
    ("table2", "minimum integer part per scale (exact-match vs the paper)"),
    ("table3", "hardware cost at lossless word lengths"),
    ("table4", "input buffer organization (Fig. 4 / Table IV)"),
    ("table5", "32x32 multiplier design points"),
    ("table6", "FIFO depth bounds"),
    ("eq2", "MAC counts and the desktop baseline"),
    ("fig2", "macrocycle operation schedule"),
    ("lossless", "fixed-point lossless criterion"),
    ("conclusions", "simulated architecture + software engines [size]"),
    ("perfjson", "throughput trajectory -> BENCH_throughput.json [size]"),
    ("tiled", "tile-parallel engine smoke [size]"),
    ("dwt-line", "line-based fused DWT bit-identity + codec vs multi-pass encode/decode [size]"),
    ("fixed-codec", "paper-exact fixed-path codec smoke (LWCF) [size]"),
    ("serve", "loopback compression service + load generator [connections]"),
    ("volume", "volumetric 3-D engine vs per-slice 2-D coding [size]"),
    ("corpus", "real-corpus DICOM/PGM ratio-vs-PSNR harness [dir]"),
    ("all", "every paper artifact above"),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let size: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);

    match which {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4()?,
        "table5" => table5(),
        "table6" => table6(),
        "eq2" => eq2(),
        "fig2" => fig2(),
        "lossless" => lossless()?,
        "conclusions" => conclusions(size)?,
        "perfjson" => perfjson(size)?,
        "tiled" => tiled(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4096))?,
        "dwt-line" => dwt_line(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4096))?,
        "fixed-codec" => fixed_codec(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4096))?,
        "serve" => serve(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4))?,
        "volume" => volume(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(96))?,
        "corpus" => corpus(args.get(1).map(String::as_str))?,
        "all" => {
            table1();
            table2();
            eq2();
            table3();
            fig2();
            table4()?;
            table5();
            table6();
            lossless()?;
            conclusions(size)?;
        }
        other => {
            eprintln!("unknown artifact {other:?}; available artifacts:");
            for (name, what) in ARTIFACTS {
                eprintln!("  {name:<12} {what}");
            }
            std::process::exit(2);
        }
    }
    Ok(())
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    heading("Table I — filter banks best suited to image compression");
    println!(
        "{:<5} {:>5} {:>6} {:>12} {:>12} {:>14} {:>16}",
        "bank", "L(H)", "L(H~)", "sum|h|", "sum|h~|", "growth/scale", "PR residual"
    );
    for row in reproduction::table1() {
        println!(
            "{:<5} {:>5} {:>6} {:>12.6} {:>12.6} {:>13.3}x {:>16.2e}",
            row.id.to_string(),
            row.metrics.analysis_len,
            row.metrics.synthesis_len,
            row.metrics.analysis_lowpass_abs_sum,
            row.metrics.synthesis_lowpass_abs_sum,
            row.metrics.growth_2d,
            row.biorthogonality.worst_error()
        );
    }
}

fn table2() {
    heading("Table II — minimum integer part b_int(s) per scale (13-bit input)");
    let t2 = reproduction::table2();
    println!("{:<5} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}   (paper row)", "bank", 1, 2, 3, 4, 5, 6);
    for ((id, row), paper) in t2.computed.iter().zip(t2.paper.iter()) {
        let computed: Vec<String> = row.iter().map(|b| format!("{b:>4}")).collect();
        let printed: Vec<String> = paper.iter().map(|b| b.to_string()).collect();
        println!("{:<5} {}   ({})", id.to_string(), computed.join(" "), printed.join(" "));
    }
    println!("matches the paper exactly: {}", if t2.matches_paper() { "yes" } else { "NO" });
}

fn table3() {
    heading("Table III — hardware cost at lossless word lengths (L=13, S=6, N=512)");
    for row in reproduction::table3() {
        println!("{row}");
    }
    println!("(prior-art requirement formulas are reconstructions; see DESIGN.md)");
}

fn table4() -> Result<(), Box<dyn std::error::Error>> {
    heading("Fig. 4 / Table IV — input buffer organization");
    let t4 = reproduction::table4()?;
    println!("{}", t4.spec);
    println!("{:<7} {:>12} {:>9} {:>14}", "scale", "row length", "#rounds", "(paper)");
    for ((scale, row_len, rounds), paper) in t4.rounds.iter().zip(t4.paper_rounds.iter()) {
        println!("{scale:<7} {row_len:>12} {rounds:>9} {paper:>14}");
    }
    Ok(())
}

fn table5() {
    heading("Table V — 32x32 multiplier design points (0.7 um, worst case)");
    for m in reproduction::table5() {
        let verdict = if m.meets_clock(25.0) { "meets the 25 ns clock" } else { "too slow" };
        println!("{m}  -> {verdict}");
    }
}

fn table6() {
    heading("Table VI — FIFO depth bounds (N=512, L=13)");
    let t6 = reproduction::table6();
    println!("{:<7} {:>8} {:>8} {:>18}", "scale", "MIN(D)", "MAX(D)", "(paper min/max)");
    for (b, (min, max)) in t6.bounds.iter().zip(t6.paper_min.iter().zip(t6.paper_max.iter())) {
        println!("{:<7} {:>8} {:>8} {:>12}/{}", b.scale, b.min_depth, b.max_depth, min, max);
    }
    println!("matches the paper exactly: {}", if t6.matches_paper() { "yes" } else { "NO" });
}

fn eq2() {
    heading("Eq. (1)/(2) — MAC counts and the desktop baseline (N=512, L=13, S=6)");
    let e = reproduction::eq2();
    for (j, macs) in e.per_scale.iter().enumerate() {
        println!("scale {}: {:>12} MACs", j + 1, macs);
    }
    println!("total:   {:>12} MACs (paper: {:.2e})", e.total, e.paper_total);
    println!("Pentium-133 model: {:.1} s per transform (paper: 42 s)", e.pentium_seconds);
}

fn fig2() {
    heading("Fig. 2 — macrocycle operation schedule");
    let f = reproduction::fig2();
    println!("normal macrocycle ({} cycles):\n{}", f.normal.len(), f.normal);
    println!("with DRAM refresh extension ({} cycles):\n{}", f.with_refresh.len(), f.with_refresh);
    println!(
        "multiplier utilization: {:.2}% (paper: {:.2}%)",
        f.utilization * 100.0,
        f.paper_utilization * 100.0
    );
}

fn lossless() -> Result<(), Box<dyn std::error::Error>> {
    heading("Lossless criterion — fixed-point round trip on a random 12-bit image");
    for (id, exact) in reproduction::lossless_summary(128, 6)? {
        println!("{id}: {}", if exact { "bit exact" } else { "NOT bit exact" });
    }
    Ok(())
}

/// One measured mode of the throughput harness.
struct PerfMode {
    name: &'static str,
    workers: usize,
    compress: Timing,
    decompress: Timing,
}

/// Measures the throughput trajectory on the fixed synthetic corpus and
/// writes `BENCH_throughput.json`: raw MB/s and images/s for the sequential
/// codec and the inter-image batch engine, then the per-layer sections.
///
/// Every timed figure records the median and the minimum wall-clock time
/// over `LWC_PERF_REPS` (default 5) runs, rates at both, and the file opens
/// with the host it ran on, so a move of one layer can be told apart from
/// host drift. The JSON is advisory trend data, not a gate (assertions stay
/// behind `LWC_STRICT_PERF=1` in the test suite); the identity checks it
/// makes on the way (equal bytes, equal samples) do fail the run.
fn perfjson(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Throughput trajectory — BENCH_throughput.json ({size}x{size} corpus)"));
    let count = 8;
    let images = lwc_bench::perf_corpus(count, size);
    let scales = 5.min(images[0].max_scales());
    let raw_bytes: usize =
        images.iter().map(|i| (i.pixel_count() * i.bit_depth() as usize).div_ceil(8)).sum();
    let reps: u32 = std::env::var("LWC_PERF_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);

    let best = |run: &dyn Fn() -> Result<(), PipelineError>| Timing::measure(reps, run);

    let sequential = LosslessCodec::new(scales)?;
    let streams: Vec<Vec<u8>> =
        images.iter().map(|i| sequential.compress(i)).collect::<Result<_, _>>()?;
    let compressed_bytes: usize = streams.iter().map(Vec::len).sum();

    let batch = BatchCompressor::with_codec(sequential, 0);
    let modes = [
        PerfMode {
            name: "sequential",
            workers: 1,
            compress: best(&|| {
                for image in &images {
                    std::hint::black_box(sequential.compress(image)?);
                }
                Ok(())
            })?,
            decompress: best(&|| {
                for stream in &streams {
                    std::hint::black_box(sequential.decompress(stream)?);
                }
                Ok(())
            })?,
        },
        PerfMode {
            name: "batch",
            workers: batch.workers(),
            compress: best(&|| {
                std::hint::black_box(batch.compress_batch(&images)?);
                Ok(())
            })?,
            decompress: best(&|| {
                std::hint::black_box(batch.decompress_batch(&streams)?);
                Ok(())
            })?,
        },
    ];

    let mb = raw_bytes as f64 / 1e6;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"reproduce perfjson\",\n");
    json.push_str(&format!(
        "  \"corpus\": {{\"images\": {count}, \"width\": {size}, \"height\": {size}, \
         \"bit_depth\": 12, \"scales\": {scales}, \"raw_bytes\": {raw_bytes}, \
         \"compressed_bytes\": {compressed_bytes}}},\n"
    ));
    json.push_str(&format!("  \"host\": {},\n", host_json()));
    json.push_str(&format!(
        "  \"reps\": {reps},\n  \"stats\": \"every seconds or ms figure is {{median, min}} over \
         reps; every rate is {{median, max}}, the rate at the median and at the minimum time\",\n"
    ));
    json.push_str("  \"modes\": {\n");
    for (index, mode) in modes.iter().enumerate() {
        let comma = if index + 1 == modes.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"workers\": {}, \"compress\": {{\"seconds\": {}, \
             \"mb_per_s\": {}, \"images_per_s\": {}}}, \"decompress\": \
             {{\"seconds\": {}, \"mb_per_s\": {}, \"images_per_s\": {}}}}}{comma}\n",
            mode.name,
            mode.workers,
            mode.compress.json(6),
            mode.compress.rate_json(mb),
            mode.compress.rate_json(count as f64),
            mode.decompress.json(6),
            mode.decompress.rate_json(mb),
            mode.decompress.rate_json(count as f64),
        ));
        println!(
            "{:<17} ({} workers): compress {:>8.1} MB/s ({:>6.1} images/s), \
             decompress {:>8.1} MB/s ({:>6.1} images/s)",
            mode.name,
            mode.workers,
            mb / mode.compress.median,
            count as f64 / mode.compress.median,
            mb / mode.decompress.median,
            count as f64 / mode.decompress.median,
        );
    }
    json.push_str("  },\n");

    // Tiled engine: one image of twice the corpus side, swept over tile
    // sizes, next to the single-threaded whole-image baseline on the same
    // image — the intra-image scaling story in one object.
    let large = 2 * size;
    let large_image = synth::ct_phantom(large, large, 12, 77);
    let large_mb = (large_image.pixel_count() * 12).div_ceil(8) as f64 / 1e6;
    let whole = best(&|| {
        std::hint::black_box(sequential.compress(&large_image)?);
        Ok(())
    })?;
    json.push_str(&format!(
        "  \"tiled\": {{\n    \"image\": {{\"width\": {large}, \"height\": {large}, \
         \"bit_depth\": 12, \"scales\": {scales}}},\n    \"whole_image_sequential\": \
         {{\"seconds\": {}, \"mb_per_s\": {}}},\n",
        whole.json(6),
        whole.rate_json(large_mb),
    ));
    println!(
        "whole-image sequential ({large}x{large}): compress {:>8.1} MB/s",
        large_mb / whole.median
    );
    let tile_sizes = [64usize, 128, 256];
    for (index, &tile) in tile_sizes.iter().enumerate() {
        let engine = TiledCompressor::with_codec(sequential, tile, tile, 0)?;
        let tiles = engine.grid(large, large)?.tile_count();
        // Record the worker count the run actually used (pool clamped to the
        // tile count), not the configured pool size — small sweeps at large
        // tiles use fewer threads than the pool offers.
        let (streamed, tile_report) = engine.compress_with_report(&large_image)?;
        let used_workers = tile_report.workers;
        let compress = best(&|| {
            std::hint::black_box(engine.compress(&large_image)?);
            Ok(())
        })?;
        let decompress = best(&|| {
            std::hint::black_box(engine.decompress(&streamed)?);
            Ok(())
        })?;
        let comma = if index + 1 == tile_sizes.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"tile_{tile}\": {{\"workers\": {}, \"tiles\": {tiles}, \"compress\": \
             {{\"seconds\": {}, \"mb_per_s\": {}, \"tiles_per_s\": {}}}, \"decompress\": \
             {{\"seconds\": {}, \"mb_per_s\": {}, \"tiles_per_s\": {}}}}}{comma}\n",
            used_workers,
            compress.json(6),
            compress.rate_json(large_mb),
            compress.rate_json(tiles as f64),
            decompress.json(6),
            decompress.rate_json(large_mb),
            decompress.rate_json(tiles as f64),
        ));
        println!(
            "tiled tile={tile:<4} ({} workers, {tiles:>3} tiles): compress {:>8.1} MB/s \
             ({:>7.1} tiles/s), decompress {:>8.1} MB/s",
            used_workers,
            large_mb / compress.median,
            tiles as f64 / compress.median,
            large_mb / decompress.median,
        );
    }
    json.push_str("  },\n");

    let bank = FilterBank::table1(FilterId::F1);
    // Line-based fused DWT: the whole multi-scale fixed-point transform in
    // one streaming pass over the rows (O(width x levels) working set)
    // against the multi-pass monolithic transform on the same frame, swept
    // over decomposition depth. One pass over memory instead of one per
    // scale is the locality win this section quantifies.
    let line_side = (16 * size).min(4096);
    let line_frame = synth::ct_phantom(line_side, line_side, 12, 99);
    let line_view = line_frame.view();
    let line_msamples = (line_side * line_side) as f64 / 1e6;
    json.push_str(&format!(
        "  \"dwt_line\": {{\n    \"frame\": {{\"width\": {line_side}, \"height\": \
         {line_side}, \"bit_depth\": 12, \"filter\": \"F1\"}},\n"
    ));
    // The lifting codec on the same frame: `fused_line` is
    // `LosslessCodec::compress` (the line cascade straight into the Rice
    // coders), `multi_pass` the reference composition it replaced — the
    // whole-frame transform, then every subband copied, quantized and coded.
    let codec_scales = 5u32;
    let line_codec = LosslessCodec::new(codec_scales)?;
    let reference = lwc_bench::multi_pass_compress(&line_codec, &line_view)?;
    assert_eq!(
        line_codec.compress(&line_frame)?,
        reference,
        "the codec must reproduce the multi-pass composition byte for byte"
    );
    let codec_fused = best(&|| {
        std::hint::black_box(line_codec.compress(&line_frame)?);
        Ok(())
    })?;
    let codec_multi = best(&|| {
        std::hint::black_box(lwc_bench::multi_pass_compress(&line_codec, &line_view)?);
        Ok(())
    })?;
    // The decode pair on the same stream: `cascade` is
    // `LosslessCodec::decompress_raw` (the inverse line cascade pulling rows
    // from the decoded subbands), `multi_pass` the reference composition it
    // replaced — the Mallat scatter, then the whole-frame multi-pass inverse.
    let line_stream = line_codec.compress(&line_frame)?;
    assert_eq!(
        line_codec.decompress_raw(&line_stream)?.1,
        lwc_bench::multi_pass_decompress(&line_codec, &line_stream)?,
        "the codec's decode must reproduce the multi-pass composition sample for sample"
    );
    let decode_cascade = best(&|| {
        std::hint::black_box(line_codec.decompress_raw(&line_stream)?);
        Ok(())
    })?;
    let decode_multi = best(&|| {
        std::hint::black_box(lwc_bench::multi_pass_decompress(&line_codec, &line_stream)?);
        Ok(())
    })?;
    json.push_str(&format!(
        "    \"codec\": {{\"transform\": \"5/3 lifting\", \"scales\": {codec_scales}, \
         \"fused_line\": {{\"seconds\": {}, \"msamples_per_s\": {}}}, \
         \"multi_pass\": {{\"seconds\": {}, \"msamples_per_s\": {}}}, \
         \"fused_speedup_vs_multi_pass\": {:.3}, \"decode\": {{\"cascade\": {{\"seconds\": \
         {}, \"msamples_per_s\": {}}}, \"multi_pass\": {{\"seconds\": {}, \
         \"msamples_per_s\": {}}}, \"cascade_speedup_vs_multi_pass\": {:.3}}}}},\n",
        codec_fused.json(6),
        codec_fused.rate_json(line_msamples),
        codec_multi.json(6),
        codec_multi.rate_json(line_msamples),
        codec_multi.median / codec_fused.median,
        decode_cascade.json(6),
        decode_cascade.rate_json(line_msamples),
        decode_multi.json(6),
        decode_multi.rate_json(line_msamples),
        decode_multi.median / decode_cascade.median,
    ));
    println!(
        "codec compress {codec_scales} scales ({line_side}x{line_side}): line cascade {:>8.1} \
         Msamples/s, multi-pass reference {:>8.1} Msamples/s ({:>5.2}x, bytes identical)",
        line_msamples / codec_fused.median,
        line_msamples / codec_multi.median,
        codec_multi.median / codec_fused.median,
    );
    println!(
        "codec decompress {codec_scales} scales ({line_side}x{line_side}): inverse cascade \
         {:>8.1} Msamples/s, multi-pass reference {:>8.1} Msamples/s ({:>5.2}x, samples \
         identical)",
        line_msamples / decode_cascade.median,
        line_msamples / decode_multi.median,
        decode_multi.median / decode_cascade.median,
    );
    for line_scales in 1..=5u32 {
        let hw_n = FixedDwt2d::paper_default(&bank, line_scales)?;
        // The fused engine's contract is streaming: coefficient rows flow to
        // a consumer (e.g. the row-streaming encoder) as they are produced,
        // so `fused_line` times exactly that — push_row/finish into a sink.
        // `fused_materialized` additionally scatters every row into a
        // frame-sized Mallat buffer, the apples-to-apples layout of
        // `multi_pass`; the gap between the two is the cost of building the
        // 128 MB coefficient frame the streaming consumer never needs.
        let (mut fused_s, mut materialized_s, mut multi_s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps.max(1) {
            let start = std::time::Instant::now();
            let mut engine = LineFixedDwt::new(&hw_n, line_side, line_side)?;
            let mut sink = |c: FixedCoeffRow<'_>| {
                std::hint::black_box(c.samples.last());
            };
            for y in 0..line_side {
                engine.push_row(line_view.row(y), &mut sink)?;
            }
            engine.finish(&mut sink)?;
            fused_s.push(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            std::hint::black_box(LineFixedDwt::forward_view(&hw_n, &line_view)?);
            materialized_s.push(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            std::hint::black_box(hw_n.forward(&line_frame)?);
            multi_s.push(start.elapsed().as_secs_f64());
        }
        let fused = Timing::from_runs(fused_s);
        let materialized = Timing::from_runs(materialized_s);
        let multi = Timing::from_runs(multi_s);
        let comma = if line_scales == 5 { "" } else { "," };
        json.push_str(&format!(
            "    \"scales_{line_scales}\": {{\"fused_line\": {{\"seconds\": {}, \
             \"msamples_per_s\": {}}}, \"fused_materialized\": {{\"seconds\": {}, \
             \"msamples_per_s\": {}}}, \"multi_pass\": {{\"seconds\": {}, \
             \"msamples_per_s\": {}}}, \"fused_speedup_vs_multi_pass\": {:.3}}}{comma}\n",
            fused.json(6),
            fused.rate_json(line_msamples),
            materialized.json(6),
            materialized.rate_json(line_msamples),
            multi.json(6),
            multi.rate_json(line_msamples),
            multi.median / fused.median,
        ));
        println!(
            "dwt line {line_scales} scale(s) ({line_side}x{line_side}): fused {:>8.1} \
             Msamples/s (materialized {:>8.1}), multi-pass {:>8.1} Msamples/s (fused \
             {:>5.2}x multi-pass)",
            line_msamples / fused.median,
            line_msamples / materialized.median,
            line_msamples / multi.median,
            multi.median / fused.median,
        );
    }
    json.push_str("  },\n");

    // Rice coder and ingest on one archive frame (`archive-2d`'s shape: a
    // 12-bit CT phantom, 2048² from a corpus side of 128 up, at 5 scales).
    // Decode times the block decode against the per-codeword
    // `rice::decode_value` reference, both over the same stream walk into
    // the same preallocated subband buffers, so the pair measures the coder
    // alone; `decode_subbands` is the codec's call, output allocation
    // included. Encode is every subband through `SubbandCodec` behind the
    // header. Both decodes must return the codec's subbands and the re-encode
    // must reproduce the stream byte for byte, so a divergent coder fails the
    // run. `dicom_parse_ms` times ingest of the same frame: `dicom::parse`,
    // then `frame0`.
    let rice_side = (16 * size).min(2048);
    let rice_frame = synth::ct_phantom(rice_side, rice_side, 12, 7);
    let rice_codec = LosslessCodec::new(5.min(rice_frame.max_scales()))?;
    let rice_stream = rice_codec.compress(&rice_frame)?;
    let rice_msamples = rice_frame.pixel_count() as f64 / 1e6;
    let (rice_header, rice_bands) = rice_codec.decode_subbands(&rice_stream)?;
    let mut block_bands: Vec<Vec<i32>> = rice_bands.iter().map(|b| vec![0; b.len()]).collect();
    let mut reference_bands = block_bands.clone();
    lwc_bench::decode_subbands_into(&rice_codec, &rice_stream, &mut block_bands)?;
    lwc_bench::per_codeword_decode_subbands_into(&rice_codec, &rice_stream, &mut reference_bands)?;
    assert!(
        block_bands == rice_bands && reference_bands == rice_bands,
        "the block decode and the per-codeword reference must decode the codec's subbands"
    );
    assert!(
        lwc_bench::encode_subbands(&rice_codec, &rice_header, &rice_bands) == rice_stream,
        "re-encoding the decoded subbands must reproduce the stream byte for byte"
    );
    let block_decode = Timing::measure(reps, || {
        lwc_bench::decode_subbands_into(&rice_codec, &rice_stream, &mut block_bands).map(|_| ())
    })?;
    let per_codeword_decode = Timing::measure(reps, || {
        lwc_bench::per_codeword_decode_subbands_into(
            &rice_codec,
            &rice_stream,
            &mut reference_bands,
        )
        .map(|_| ())
    })?;
    let codec_decode = best(&|| {
        std::hint::black_box(rice_codec.decode_subbands(&rice_stream)?);
        Ok(())
    })?;
    let rice_encode = best(&|| {
        std::hint::black_box(lwc_bench::encode_subbands(&rice_codec, &rice_header, &rice_bands));
        Ok(())
    })?;
    let rice_dicom =
        dicom::encode(&ImageStack::from_slices(std::slice::from_ref(&rice_frame))?, true, false)?;
    let dicom_parse = Timing::measure(reps, || {
        std::hint::black_box(dicom::parse(&rice_dicom)?.frame0()?);
        Ok::<_, ImageError>(())
    })?
    .scaled(1e3);
    json.push_str(&format!(
        "  \"rice\": {{\n    \"frame\": {{\"width\": {rice_side}, \"height\": {rice_side}, \
         \"bit_depth\": 12, \"scales\": {}, \"bits_per_sample\": {:.4}}},\n    \"decode\": \
         {{\"block\": {{\"seconds\": {}, \"msamples_per_s\": {}}}, \"per_codeword\": \
         {{\"seconds\": {}, \"msamples_per_s\": {}}}, \"block_speedup\": {:.3}, \
         \"decode_subbands\": {{\"seconds\": {}, \"msamples_per_s\": {}}}}},\n    \
         \"encode\": {{\"subband_codec\": {{\"seconds\": {}, \"msamples_per_s\": {}}}}},\n    \
         \"dicom_parse_ms\": {}\n  }},\n",
        rice_codec.scales(),
        rice_stream.len() as f64 * 8.0 / rice_frame.pixel_count() as f64,
        block_decode.json(6),
        block_decode.rate_json(rice_msamples),
        per_codeword_decode.json(6),
        per_codeword_decode.rate_json(rice_msamples),
        per_codeword_decode.median / block_decode.median,
        codec_decode.json(6),
        codec_decode.rate_json(rice_msamples),
        rice_encode.json(6),
        rice_encode.rate_json(rice_msamples),
        dicom_parse.json(3),
    ));
    println!(
        "rice ({rice_side}x{rice_side} subbands): block decode {:>8.1} Msamples/s vs \
         per-codeword {:>8.1} Msamples/s ({:.2}x, values identical; decode_subbands with its \
         allocation {:>8.1}), encode {:>8.1} Msamples/s (bytes identical); DICOM parse + \
         frame0 {:.2} ms",
        rice_msamples / block_decode.median,
        rice_msamples / per_codeword_decode.median,
        per_codeword_decode.median / block_decode.median,
        rice_msamples / codec_decode.median,
        rice_msamples / rice_encode.median,
        dicom_parse.median,
    );

    // Fixed-path codec: the paper-exact datapath plus its Rice entropy back
    // end, end to end into an LWCF container on the same large frame, swept
    // over the tiled engine's tile sizes. Each point also times the one
    // forward transform the engine runs per tile (the line cascade) against
    // the multi-pass reference, summed over the grid's tiles on one thread,
    // so the record shows whether the cascade loses at any tile size. The
    // lifting codec's ratio on that frame sits next to it so the expansion
    // of the lossless fixed path stays quantified, not hidden.
    let fixed_scales = 5u32;
    let large_raw = (large_image.pixel_count() * 12).div_ceil(8);
    let lifting_len = sequential.compress(&large_image)?.len();
    json.push_str(&format!(
        "  \"fixed_codec\": {{\n    \"filter\": \"F1\", \"scales\": {fixed_scales}, \
         \"raw_bytes\": {large_raw}, \"lifting_ratio\": {:.4},\n",
        large_raw as f64 / lifting_len as f64,
    ));
    for (index, &tile) in tile_sizes.iter().enumerate() {
        let fixed = TiledFixedCompressor::new(&bank, fixed_scales, tile, 0)?;
        let grid = fixed.grid(large, large)?;
        let hw = fixed.transform();
        let (mut line_s, mut multi_s) = (Vec::new(), Vec::new());
        for _ in 0..reps.max(1) {
            let start = std::time::Instant::now();
            for i in 0..grid.tile_count() {
                let window = large_image.view_rect(grid.rect(i))?;
                std::hint::black_box(LineFixedDwt::forward_view(hw, &window)?);
            }
            line_s.push(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            for i in 0..grid.tile_count() {
                std::hint::black_box(hw.forward_view(&large_image.view_rect(grid.rect(i))?)?);
            }
            multi_s.push(start.elapsed().as_secs_f64());
        }
        let (line_ms, multi_ms) =
            (Timing::from_runs(line_s).scaled(1e3), Timing::from_runs(multi_s).scaled(1e3));
        let fixed_stream = fixed.compress(&large_image)?;
        let fixed_compress = best(&|| {
            std::hint::black_box(fixed.compress(&large_image)?);
            Ok(())
        })?;
        let fixed_decompress = best(&|| {
            std::hint::black_box(fixed.decompress(&fixed_stream)?);
            Ok(())
        })?;
        let comma = if index + 1 == tile_sizes.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"tile_{tile}\": {{\"tiles\": {}, \"workers\": {}, \"compressed_bytes\": \
             {}, \"ratio\": {:.4}, \"forward_ms\": {{\"line\": {}, \"multi_pass\": {}, \
             \"line_speedup\": {:.3}}}, \"compress\": {{\"seconds\": {}, \"mb_per_s\": {}}}, \
             \"decompress\": {{\"seconds\": {}, \"mb_per_s\": {}}}}}{comma}\n",
            grid.tile_count(),
            fixed.workers().min(grid.tile_count()),
            fixed_stream.len(),
            large_raw as f64 / fixed_stream.len() as f64,
            line_ms.json(3),
            multi_ms.json(3),
            multi_ms.median / line_ms.median,
            fixed_compress.json(6),
            fixed_compress.rate_json(large_mb),
            fixed_decompress.json(6),
            fixed_decompress.rate_json(large_mb),
        ));
        println!(
            "fixed codec tile={tile:<4} ({} tiles): forward line {:>8.2} ms vs multi-pass \
             {:>8.2} ms ({:.2}x, 1 thread), compress {:>8.1} MB/s, decompress {:>8.1} MB/s, \
             ratio {:.2}:1 (lifting {:.2}:1)",
            grid.tile_count(),
            line_ms.median,
            multi_ms.median,
            multi_ms.median / line_ms.median,
            large_mb / fixed_compress.median,
            large_mb / fixed_decompress.median,
            large_raw as f64 / fixed_stream.len() as f64,
            large_raw as f64 / lifting_len as f64,
        );
    }
    json.push_str("  },\n");

    // Serving layer: a loopback LWCP server driven by the concurrent load
    // generator — requests/s and MB/s through real sockets, swept across
    // connections x workers so the scaling curve (not one point) is on
    // record. Each point is provisioned (budget = conns x depth + workers),
    // so any busy rejection is a server regression, not an artefact of the
    // sweep. The serve image is pinned to 256x256 to keep the sweep's cost
    // independent of the corpus `size` argument.
    const SERVE_IMAGE: usize = 256;
    const SERVE_DEPTH: usize = 4;
    const SERVE_REQUESTS: usize = 8;
    json.push_str(&format!(
        "  \"serve\": {{\"image\": {SERVE_IMAGE}, \"pipeline_depth\": {SERVE_DEPTH}, \
         \"requests_per_connection\": {SERVE_REQUESTS}, \"points\": [\n"
    ));
    let mut first_point = true;
    for &workers in &[1usize, 2, 4] {
        for &conns in &[1usize, 4, 16, 64] {
            let budget = conns * SERVE_DEPTH + workers;
            let (report, stats, _) =
                measure_serve(conns, SERVE_REQUESTS, SERVE_IMAGE, workers, budget)?;
            if !first_point {
                json.push_str(",\n");
            }
            first_point = false;
            json.push_str(&format!(
                "    {{\"connections\": {conns}, \"workers\": {workers}, \"budget\": {budget}, \
                 \"requests\": {}, \"completed\": {}, \"rejected_busy\": {}, \
                 \"requests_per_s\": {:.3}, \"upload_mb_per_s\": {:.3}, \
                 \"download_mb_per_s\": {:.3}}}",
                report.requests,
                report.completed,
                report.rejected_busy,
                report.requests_per_second(),
                report.upload_mb_per_second(),
                report.download_mb_per_second(),
            ));
            println!(
                "serve {conns:>2} conns x {workers} workers (budget {budget:>3}): \
                 {:>7.1} req/s, {:>6.1} MB/s up, {:>5.1} MB/s down ({} busy)",
                report.requests_per_second(),
                report.upload_mb_per_second(),
                report.download_mb_per_second(),
                stats.rejected_busy,
            );
        }
    }
    json.push_str("\n  ]},\n");

    // Volumetric engine: the brick-parallel 3-D codec on a correlated CT
    // stack, swept over worker counts, with the per-slice 2-D bytes of the
    // same voxels alongside so the z-transform's gain stays on record.
    let vol_depth = 16usize;
    let vol_z_scales = 3u32;
    let vol_tile = 64.min(size);
    let vol_stack = synth::ct_volume(size, size, vol_depth, 12, 9);
    let vol_msamples = vol_stack.voxel_count() as f64 / 1e6;
    let vol_raw = (vol_stack.voxel_count() * 12).div_ceil(8);
    let slice_engine = TiledCompressor::with_codec(sequential, vol_tile, vol_tile, 1)?;
    let mut per_slice_bytes = 0usize;
    for z in 0..vol_depth {
        per_slice_bytes += slice_engine.compress(&vol_stack.slice_image(z)?)?.len();
    }
    let vol_engine =
        VolumeCompressor::with_codec(sequential, vol_z_scales, vol_tile, vol_tile, 8, 1)?;
    let vol_reference = vol_engine.compress_stack(&vol_stack)?;
    json.push_str(&format!(
        "  \"volume\": {{\n    \"stack\": {{\"width\": {size}, \"height\": {size}, \"depth\": \
         {vol_depth}, \"bit_depth\": 12, \"scales\": {scales}, \"z_scales\": {vol_z_scales}, \
         \"tile\": {vol_tile}, \"brick_depth\": 8}},\n    \"raw_bytes\": {vol_raw}, \
         \"compressed_bytes\": {}, \"ratio\": {:.4}, \"per_slice_2d_bytes\": \
         {per_slice_bytes}, \"per_slice_2d_ratio\": {:.4},\n",
        vol_reference.len(),
        vol_raw as f64 / vol_reference.len() as f64,
        vol_raw as f64 / per_slice_bytes as f64,
    ));
    let vol_workers = [1usize, 2, 4];
    for workers in vol_workers {
        let engine =
            VolumeCompressor::with_codec(sequential, vol_z_scales, vol_tile, vol_tile, 8, workers)?;
        let bytes = engine.compress_stack(&vol_stack)?;
        assert_eq!(bytes, vol_reference, "LWCV bytes changed with {workers} workers");
        let compress = best(&|| {
            std::hint::black_box(engine.compress_stack(&vol_stack)?);
            Ok(())
        })?;
        let decompress = best(&|| {
            std::hint::black_box(engine.decompress_stack(&bytes)?);
            Ok(())
        })?;
        json.push_str(&format!(
            "    \"workers_{workers}\": {{\"compress\": {{\"seconds\": {}, \
             \"msamples_per_s\": {}}}, \"decompress\": {{\"seconds\": {}, \
             \"msamples_per_s\": {}}}}},\n",
            compress.json(6),
            compress.rate_json(vol_msamples),
            decompress.json(6),
            decompress.rate_json(vol_msamples),
        ));
        println!(
            "volume {workers} worker(s) ({size}x{size}x{vol_depth}): compress {:>8.1} \
             Msamples/s, decompress {:>8.1} Msamples/s",
            vol_msamples / compress.median,
            vol_msamples / decompress.median,
        );
    }
    println!(
        "volume ratio {:.3}:1 vs per-slice 2-D {:.3}:1 on the same voxels",
        vol_raw as f64 / vol_reference.len() as f64,
        vol_raw as f64 / per_slice_bytes as f64,
    );
    let z_ms = brick_transform_ms(&vol_engine, &vol_stack, reps)?;
    json.push_str(&format!(
        "    \"z_transform\": {{\"brick\": \"{}\", \"forward_z_ms\": {}, \
         \"inverse_z_ms\": {}, \"forward_2d_ms\": {}, \"inverse_2d_ms\": {}}}\n",
        z_ms.brick,
        z_ms.forward_z.json(4),
        z_ms.inverse_z.json(4),
        z_ms.forward_2d.json(4),
        z_ms.inverse_2d.json(4),
    ));
    println!(
        "volume transform per {} brick: z forward {:.3} / inverse {:.3} ms, 2-D of its planes \
         forward {:.3} / inverse {:.3} ms",
        z_ms.brick,
        z_ms.forward_z.median,
        z_ms.inverse_z.median,
        z_ms.forward_2d.median,
        z_ms.inverse_2d.median,
    );
    json.push_str("  },\n");

    // Real-corpus harness: the DICOM/PGM rate-vs-distortion sweep on the
    // deterministic fixture corpus (or LWC_CORPUS_DIR), per modality and per
    // near-lossless bound δ. Infinite PSNR (lossless) serialises as null.
    let corpus_root = lwc_bench::corpus::resolve_root(None)?;
    let corpus_deltas = [0u8, 2, 4];
    json.push_str(&format!(
        "  \"real_corpus\": {{\n    \"root\": {:?},\n    \"scales\": {},\n    \"deltas\": {{\n",
        corpus_root.display().to_string(),
        lwc_bench::corpus::CORPUS_SCALES,
    ));
    for (d_index, &delta) in corpus_deltas.iter().enumerate() {
        let rows = lwc_bench::corpus::evaluate(&corpus_root, delta, 0)?;
        json.push_str(&format!("      \"{delta}\": {{\n"));
        for (r_index, row) in rows.iter().enumerate() {
            let psnr = if row.psnr_db.is_finite() {
                format!("{:.3}", row.psnr_db)
            } else {
                "null".to_owned()
            };
            let comma = if r_index + 1 == rows.len() { "" } else { "," };
            json.push_str(&format!(
                "        \"{}\": {{\"files\": {}, \"frames\": {}, \"raw_bytes\": {}, \
                 \"compressed_bytes\": {}, \"ratio\": {:.4}, \"psnr_db\": {psnr}, \
                 \"ssim\": {:.6}, \"max_abs_error\": {}}}{comma}\n",
                row.modality,
                row.files,
                row.frames,
                row.raw_bytes,
                row.compressed_bytes,
                row.ratio,
                row.ssim,
                row.max_abs_error,
            ));
            println!(
                "corpus δ={delta} {:<6} {:>2} files {:>2} frames: ratio {:>7.3}:1, \
                 PSNR {:>9}, SSIM {:.4}, L∞ {}",
                row.modality,
                row.files,
                row.frames,
                row.ratio,
                if row.psnr_db.is_finite() {
                    format!("{:.2} dB", row.psnr_db)
                } else {
                    "lossless".to_owned()
                },
                row.ssim,
                row.max_abs_error,
            );
        }
        let comma = if d_index + 1 == corpus_deltas.len() { "" } else { "," };
        json.push_str(&format!("      }}{comma}\n"));
    }
    json.push_str("    }\n  }\n");

    json.push_str("}\n");
    std::fs::write("BENCH_throughput.json", &json)?;
    println!(
        "wrote BENCH_throughput.json ({} modes + {} tiled sweeps + {} fixed codec sweeps + \
         dwt line + rice + serve + volume + real corpus, median and min of {reps} reps)",
        modes.len(),
        tile_sizes.len(),
        tile_sizes.len()
    );
    Ok(())
}

/// Runs the real-corpus harness standalone: resolve the corpus root
/// (argument, `LWC_CORPUS_DIR`, in-tree `fixtures/corpus`, or a generated
/// fixture corpus), evaluate every modality at a sweep of near-lossless
/// bounds, and print the ratio-vs-PSNR table. δ = 0 is asserted lossless and
/// every row is checked against its bound inside the evaluator.
fn corpus(dir: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    heading("Real-corpus harness — per-modality compression ratio vs PSNR");
    let root = lwc_bench::corpus::resolve_root(dir)?;
    let files = lwc_bench::corpus::discover(&root)?;
    println!("corpus root: {} ({} files)", root.display(), files.len());
    println!(
        "{:<4} {:<10} {:>5} {:>6} {:>11} {:>11} {:>8} {:>10} {:>7} {:>4}",
        "δ", "modality", "files", "frames", "raw B", "coded B", "ratio", "PSNR", "SSIM", "L∞"
    );
    for delta in [0u8, 1, 2, 4] {
        for row in lwc_bench::corpus::evaluate(&root, delta, 0)? {
            if delta == 0 {
                assert_eq!(row.max_abs_error, 0, "{}: δ=0 must be lossless", row.modality);
            }
            println!(
                "{:<4} {:<10} {:>5} {:>6} {:>11} {:>11} {:>7.3}:1 {:>10} {:>7.4} {:>4}",
                delta,
                row.modality,
                row.files,
                row.frames,
                row.raw_bytes,
                row.compressed_bytes,
                row.ratio,
                if row.psnr_db.is_finite() {
                    format!("{:.2} dB", row.psnr_db)
                } else {
                    "lossless".to_owned()
                },
                row.ssim,
                row.max_abs_error,
            );
        }
    }
    println!("every reconstruction checked against its bound; δ=0 byte-exact lossless");
    Ok(())
}

/// One loopback measurement of the serving layer: a server on an ephemeral
/// port, `connections` concurrent clients pipelining compress requests for a
/// deterministic 12-bit phantom. `budget` is the global in-flight budget
/// (0 resolves to the server default of 4 x workers).
fn measure_serve(
    connections: usize,
    requests_per_connection: usize,
    size: usize,
    workers: usize,
    budget: usize,
) -> Result<(LoadReport, ServerStats, ServerConfig), Box<dyn std::error::Error>> {
    let config = ServerConfig {
        workers,
        queue_depth: budget,
        scales: 4,
        tile_size: 128,
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config)?;
    let image = synth::ct_phantom(size, size, 12, 0xC0DE);
    let load = LoadGenConfig { connections, requests_per_connection, pipeline_depth: 4 };
    let report = loadgen::run(server.local_addr(), &load, &image)?;
    let stats = server.stats();
    let resolved = *server.config();
    server.shutdown();
    Ok((report, stats, resolved))
}

/// Serving smoke: start a loopback server, drive it with the concurrent
/// load generator, print throughput and the server's own counters, and fail
/// loudly on any of three regressions: busy rejections at a provisioned
/// in-flight budget, the work-stealing scheduler leaving all tile work on
/// one worker, or a deliberately starved budget *not* pushing back. CI runs
/// this on every push.
fn serve(connections: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Serving smoke — loopback LWCP service, {connections} connections"));

    // Provisioned: the budget covers every outstanding request, so nothing
    // may bounce, and with several workers the steal path must spread the
    // per-tile jobs beyond a single worker.
    let workers = 4;
    let budget = connections * 4 + workers;
    let (report, stats, config) = measure_serve(connections, 16, 256, workers, budget)?;
    println!(
        "server: {} workers, in-flight budget {}, {} per connection, scales {}, tile {}",
        config.workers, config.queue_depth, config.conn_inflight, config.scales, config.tile_size
    );
    println!("load:   {report}");
    println!("stats:  {stats}");
    assert_eq!(
        report.completed, report.requests,
        "a provisioned budget must complete every request"
    );
    assert_eq!(report.rejected_busy, 0, "a provisioned budget must never answer busy");
    assert_eq!(report.failed, 0, "no request may fail outright");
    assert_eq!(
        stats.completed_requests, report.completed,
        "server and client must agree on the completed count"
    );
    assert!(
        stats.active_workers >= 2,
        "work stealing must spread tile jobs beyond one worker (got {})",
        stats.active_workers
    );

    // Starved: pin the budget to 1 and flood — backpressure must answer
    // `busy` instead of buffering without bound.
    let (tiny_report, _, _) = measure_serve(connections.max(2), 16, 256, 1, 1)?;
    println!("starved (budget 1): {tiny_report}");
    assert!(
        tiny_report.rejected_busy > 0,
        "a budget of 1 under a pipelined flood must reject some requests busy"
    );
    assert_eq!(
        tiny_report.completed + tiny_report.rejected_busy,
        tiny_report.requests,
        "every request is either completed or bounced busy"
    );
    println!("(the machine-readable serve sweep lands in BENCH_throughput.json via perfjson)");
    Ok(())
}

/// End-to-end smoke of the tile-parallel path on one large synthetic image:
/// compress, full decompress, row-band streaming decompress — all three must
/// agree bit for bit with the source. CI runs this at 4096x4096, a size the
/// monolithic path would happily thrash caches on.
/// Volumetric engine smoke + evaluation: the brick-parallel 3-D codec on a
/// correlated synthetic CT stack. Asserts the three properties the subsystem
/// promises — a lossless 3-D round trip, `LWCV` bytes independent of the
/// worker count, and a 3-D ratio beating per-slice 2-D coding of the same
/// voxels — and prints ratios plus Msamples/s for both paths. It also checks
/// the plane-wise z pass against the column-by-column reference on the whole
/// stack and prints the z pass's cost per brick next to the 2-D transform of
/// the same planes. CI runs this on every push at a reduced size.
fn volume(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    let depth = 16usize;
    heading(&format!("Volumetric engine — {size}x{size}x{depth} 12-bit correlated stack"));
    let stack = synth::ct_volume(size, size, depth, 12, 9);
    let raw_bytes = (stack.voxel_count() * 12).div_ceil(8);
    let msamples = stack.voxel_count() as f64 / 1e6;
    let scales = 4u32;
    let z_scales = 3u32;
    let tile = 64.min(size);
    let codec = LosslessCodec::new(scales)?;

    // Per-slice 2-D baseline: every slice through the tiled 2-D codec,
    // independently — exactly what a 2-D-only service would store.
    let slice_engine = TiledCompressor::with_codec(codec, tile, tile, 1)?;
    let start = std::time::Instant::now();
    let mut per_slice_bytes = 0usize;
    for z in 0..depth {
        per_slice_bytes += slice_engine.compress(&stack.slice_image(z)?)?.len();
    }
    let slice_seconds = start.elapsed().as_secs_f64();

    // 3-D engine across worker counts: the container bytes must not depend
    // on how many threads encoded the bricks.
    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 5] {
        let engine = VolumeCompressor::with_codec(codec, z_scales, tile, tile, 8, workers)?;
        let bytes = engine.compress_stack(&stack)?;
        match &reference {
            None => reference = Some(bytes),
            Some(expect) => assert_eq!(&bytes, expect, "LWCV bytes changed with {workers} workers"),
        }
    }
    let bytes = reference.expect("reference stream");

    let engine = VolumeCompressor::with_codec(codec, z_scales, tile, tile, 8, 0)?;
    let grid = engine.grid(size, size, depth)?;
    println!(
        "brick grid: {}x{}x{} voxels in {} bricks of {}x{}x{}, {} workers",
        size,
        size,
        depth,
        grid.brick_count(),
        tile,
        tile,
        grid.brick_depth(),
        engine.workers()
    );
    let start = std::time::Instant::now();
    std::hint::black_box(engine.compress_stack(&stack)?);
    let compress_seconds = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let back = engine.decompress_stack(&bytes)?;
    let decompress_seconds = start.elapsed().as_secs_f64();
    assert_eq!(back.samples(), stack.samples(), "3-D round trip must be lossless");

    // Slab streaming decode: one brick layer resident at a time, same voxels.
    let mut slab_z = 0usize;
    for slab in engine.decompress_slabs(&bytes) {
        let slab = slab?;
        assert_eq!(slab.z, slab_z, "slabs must arrive in z order");
        for (dz, z) in (slab.z..slab.z + slab.stack.depth()).enumerate() {
            assert_eq!(
                slab.stack.slice_image(dz)?.samples(),
                stack.slice_image(z)?.samples(),
                "slab slice {z} must match the source"
            );
        }
        slab_z += slab.stack.depth();
    }
    assert_eq!(slab_z, depth, "slabs must cover every slice");

    let ratio_3d = raw_bytes as f64 / bytes.len() as f64;
    let ratio_2d = raw_bytes as f64 / per_slice_bytes as f64;
    println!(
        "3-D (z_scales {z_scales}):   {} bytes, ratio {ratio_3d:.3}:1, compress {:.1} \
         Msamples/s, decompress {:.1} Msamples/s",
        bytes.len(),
        msamples / compress_seconds,
        msamples / decompress_seconds,
    );
    println!(
        "per-slice 2-D: {per_slice_bytes} bytes, ratio {ratio_2d:.3}:1, compress {:.1} \
         Msamples/s",
        msamples / slice_seconds,
    );
    println!(
        "3-D advantage: {:.2}% fewer bytes than per-slice 2-D",
        100.0 * (1.0 - bytes.len() as f64 / per_slice_bytes as f64)
    );
    assert!(
        bytes.len() < per_slice_bytes,
        "the z transform must beat per-slice 2-D coding on a correlated stack \
         ({} vs {per_slice_bytes} bytes)",
        bytes.len()
    );

    // The plane-wise z pass must be the 1-D kernel run down every column,
    // bit for bit, over the whole stack.
    let plane_len = size * size;
    let mut planes = stack.samples().to_vec();
    let mut columns = planes.clone();
    forward_z(&mut planes, plane_len, depth, z_scales)?;
    forward_z_columns(&mut columns, plane_len, depth, z_scales)?;
    assert_eq!(planes, columns, "plane-wise forward z pass must equal the column reference");
    inverse_z(&mut planes, plane_len, depth, z_scales)?;
    inverse_z_columns(&mut columns, plane_len, depth, z_scales)?;
    assert_eq!(planes, columns, "plane-wise inverse z pass must equal the column reference");
    assert_eq!(planes, stack.samples(), "the z pass must round-trip");

    let ms = brick_transform_ms(&engine, &stack, 3)?;
    println!(
        "z pass = column reference; per {} brick: z forward {:.3} ms / inverse {:.3} ms vs 2-D \
         of its planes forward {:.3} ms / inverse {:.3} ms",
        ms.brick,
        ms.forward_z.median,
        ms.inverse_z.median,
        ms.forward_2d.median,
        ms.inverse_2d.median,
    );
    if std::env::var_os("LWC_STRICT_PERF").is_some_and(|v| v == "1") {
        assert!(
            ms.inverse_z.median < ms.inverse_2d.median,
            "the inverse z pass must cost less than the brick's 2-D inverse"
        );
    }
    Ok(())
}

/// Transform cost of one brick of the volumetric path, in ms per brick: the
/// z pass next to the 2-D transform of the same brick's planes, so a
/// measurement says which layer moved.
struct BrickTransformMs {
    /// Brick shape, `WxHxD`.
    brick: String,
    forward_z: Timing,
    inverse_z: Timing,
    forward_2d: Timing,
    inverse_2d: Timing,
}

/// Times the transforms of brick 0 of `engine`'s grid over `stack` as the
/// engine runs them: `forward_z`, the line cascade per z plane, the inverse
/// cascade per plane from its subbands into the brick buffer
/// (`LosslessCodec::reassemble_into`), `inverse_z`. Each round takes the mean
/// over 50 back-to-back bricks; each figure is the median and minimum of
/// `reps` rounds.
fn brick_transform_ms(
    engine: &VolumeCompressor,
    stack: &ImageStack,
    reps: u32,
) -> Result<BrickTransformMs, Box<dyn std::error::Error>> {
    const ITERS: u32 = 50;
    let rect = engine.grid(stack.width(), stack.height(), stack.depth())?.rect(0);
    let (width, height) = (rect.plane.width, rect.plane.height);
    let plane_len = rect.plane.pixel_count();
    let z_scales = engine.z_scales();
    let codec = engine.codec();
    let header = codec.header_for_dims(width, height, stack.bit_depth())?;
    let mut samples = stack.view_brick(rect)?.to_samples();
    let mut rounds: [Vec<f64>; 4] = Default::default();
    for _ in 0..reps.max(1) {
        let mut total = [0f64; 4];
        for _ in 0..ITERS {
            let start = std::time::Instant::now();
            forward_z(&mut samples, plane_len, rect.depth, z_scales)?;
            total[0] += start.elapsed().as_secs_f64();
            let start = std::time::Instant::now();
            let coeffs = samples
                .chunks_exact(plane_len)
                .map(|plane| {
                    let view = ImageView::from_raw(plane, width, height, width, stack.bit_depth())?;
                    Ok(LineDwt53::forward_view(&view, codec.scales())?)
                })
                .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
            total[1] += start.elapsed().as_secs_f64();
            let subbands: Vec<Vec<Vec<i32>>> = coeffs
                .iter()
                .map(|c| subband_order(codec.scales()).map(|(s, b)| c.subband(s, b)).collect())
                .collect();
            let start = std::time::Instant::now();
            for (plane, slot) in subbands.iter().zip(samples.chunks_exact_mut(plane_len)) {
                codec.reassemble_into(&header, plane, slot)?;
            }
            total[2] += start.elapsed().as_secs_f64();
            let start = std::time::Instant::now();
            inverse_z(&mut samples, plane_len, rect.depth, z_scales)?;
            total[3] += start.elapsed().as_secs_f64();
        }
        for (round, total) in rounds.iter_mut().zip(total) {
            round.push(total * 1e3 / f64::from(ITERS));
        }
    }
    let [forward_z, forward_2d, inverse_2d, inverse_z] = rounds.map(Timing::from_runs);
    Ok(BrickTransformMs {
        brick: format!("{width}x{height}x{}", rect.depth),
        forward_z,
        inverse_z,
        forward_2d,
        inverse_2d,
    })
}

fn tiled(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Tiled engine smoke — {size}x{size} 12-bit synthetic image"));
    let image = synth::ct_phantom(size, size, 12, 42);
    let engine = TiledCompressor::new(5, DEFAULT_TILE_SIZE, 0)?;
    let grid = engine.grid(size, size)?;
    println!(
        "tile grid: {}x{} tiles of {}x{} ({} tiles), {} workers",
        grid.tiles_x(),
        grid.tiles_y(),
        grid.tile_width(),
        grid.tile_height(),
        grid.tile_count(),
        engine.workers()
    );
    let (bytes, report) = engine.compress_with_report(&image)?;
    println!("compress:   {report}");

    let start = std::time::Instant::now();
    let back = engine.decompress(&bytes)?;
    let wall = start.elapsed().as_secs_f64();
    let exact = stats::bit_exact(&image, &back)?;
    println!(
        "decompress: {:.3} s ({:.1} MB/s), lossless: {}",
        wall,
        report.raw_bytes as f64 / 1e6 / wall.max(1e-9),
        if exact { "yes" } else { "NO" }
    );
    assert!(exact, "tiled round trip must be bit exact");

    // Row-band streaming decode: bounded memory, same pixels.
    let start = std::time::Instant::now();
    let mut rows = 0usize;
    let mut streamed_exact = true;
    for band in engine.decompress_row_bands(&bytes) {
        let band = band?;
        let rect = TileRect { x: 0, y: band.y, width: size, height: band.image.height() };
        streamed_exact &= stats::bit_exact(&image.crop(rect)?, &band.image)?;
        rows += band.image.height();
    }
    println!(
        "row-band streaming decode: {:.3} s, {rows} rows, lossless: {}",
        start.elapsed().as_secs_f64(),
        if streamed_exact { "yes" } else { "NO" }
    );
    assert!(rows == size && streamed_exact, "row-band streaming decode must be bit exact");
    Ok(())
}

/// Line-based fused DWT smoke: the one-pass streaming cascade is
/// bit-identical to the multi-pass drivers on **both** datapaths (5/3
/// lifting with mirror extension, paper-exact fixed point with periodic
/// extension), and so is the inverse cascade to the multi-pass 5/3 inverse;
/// the codec (which encodes and decodes through the cascades) reproduces the
/// multi-pass reference compositions byte for byte and sample for sample,
/// lossless and near-lossless, and its push-style session holds an
/// `O(width x levels)` coefficient working set, round tripping through the
/// pull-style row-band decode. CI runs this at 4096x4096.
fn dwt_line(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Line-based fused DWT smoke — {size}x{size} 12-bit frame"));
    let frame = synth::ct_phantom(size, size, 12, 33);
    let scales = 5.min(frame.max_scales());
    let msamples = (size * size) as f64 / 1e6;

    // Lifting datapath: the fused cascade vs the multi-pass driver, full
    // frame and a ragged odd-dimension crop (which exercises every mirror
    // tail of the ragged pyramid).
    let lifting = Lifting53::new(scales)?;
    let start = std::time::Instant::now();
    let multi = lifting.forward(&frame)?;
    let multi_s = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let fused = LineDwt53::forward_view(&frame.view(), scales)?;
    let fused_s = start.elapsed().as_secs_f64();
    assert!(fused == multi, "fused lifting cascade must be bit-identical to the multi-pass driver");
    println!(
        "lifting 5/3 fused:  {:>8.1} Msamples/s (multi-pass {:>8.1}), coefficients identical",
        msamples / fused_s.max(1e-9),
        msamples / multi_s.max(1e-9)
    );
    let start = std::time::Instant::now();
    let multi_back = lifting.inverse_raw(&multi)?;
    let multi_back_s = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let cascade_back = LineIdwt53::inverse_raw(&multi)?;
    let cascade_back_s = start.elapsed().as_secs_f64();
    assert!(
        cascade_back == multi_back,
        "inverse lifting cascade must be bit-identical to the multi-pass inverse"
    );
    assert_eq!(cascade_back, frame.samples(), "the inverse cascade must restore the frame");
    println!(
        "lifting 5/3 inverse cascade: {:>8.1} Msamples/s (multi-pass {:>8.1}), samples identical",
        msamples / cascade_back_s.max(1e-9),
        msamples / multi_back_s.max(1e-9)
    );
    if size > 8 {
        let rect = TileRect { x: 1, y: 2, width: size - 3, height: size - 5 };
        let ragged = frame.crop(rect)?;
        let ragged_coeffs = lifting.forward(&ragged)?;
        assert!(
            LineDwt53::forward_view(&ragged.view(), scales)? == ragged_coeffs,
            "fused lifting cascade must match on ragged odd dimensions"
        );
        assert!(
            LineIdwt53::inverse_raw(&ragged_coeffs)? == lifting.inverse_raw(&ragged_coeffs)?,
            "inverse lifting cascade must match on ragged odd dimensions"
        );
        println!(
            "ragged {}x{} crop: fused and inverse cascades identical across the odd-dimension \
             pyramid",
            rect.width, rect.height
        );
    }

    // Paper-exact fixed-point datapath: same comparison at Table II word
    // lengths (the frame side must be divisible by 2^scales).
    let bank = FilterBank::table1(FilterId::F1);
    let hw = FixedDwt2d::paper_default(&bank, scales)?;
    let start = std::time::Instant::now();
    let multi_fixed = hw.forward(&frame)?;
    let multi_fixed_s = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let fused_fixed = LineFixedDwt::forward_view(&hw, &frame.view())?;
    let fused_fixed_s = start.elapsed().as_secs_f64();
    assert!(
        fused_fixed == multi_fixed,
        "fused fixed-point cascade must be bit-identical to the multi-pass driver"
    );
    println!(
        "fixed F1 fused:     {:>8.1} Msamples/s (multi-pass {:>8.1}), words identical",
        msamples / fused_fixed_s.max(1e-9),
        msamples / multi_fixed_s.max(1e-9)
    );

    // The codec's encode: the line cascade straight into the Rice coders.
    // Its bytes must equal the multi-pass reference composition (whole-frame
    // transform, per-subband copy, quantize, code), lossless and
    // near-lossless alike.
    for delta in [0u8, 2] {
        let codec = LosslessCodec::near_lossless(scales, delta)?;
        let start = std::time::Instant::now();
        let bytes = codec.compress(&frame)?;
        let line_s = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let reference = lwc_bench::multi_pass_compress(&codec, &frame.view())?;
        let reference_s = start.elapsed().as_secs_f64();
        assert_eq!(bytes, reference, "delta {delta}: codec must match the multi-pass reference");
        println!(
            "codec compress δ={delta}: {:>8.1} Msamples/s (multi-pass reference {:>8.1}), \
             bytes identical",
            msamples / line_s.max(1e-9),
            msamples / reference_s.max(1e-9)
        );
        // The decode: the inverse cascade (dequantizing an LWCQ stream's rows
        // as it pulls them) against the Mallat scatter plus multi-pass
        // inverse.
        let start = std::time::Instant::now();
        let (_, back) = codec.decompress_raw(&bytes)?;
        let cascade_s = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let reference = lwc_bench::multi_pass_decompress(&codec, &bytes)?;
        let reference_s = start.elapsed().as_secs_f64();
        assert!(back == reference, "delta {delta}: decode must match the multi-pass reference");
        println!(
            "codec decompress δ={delta}: {:>8.1} Msamples/s (multi-pass reference {:>8.1}), \
             samples identical",
            msamples / cascade_s.max(1e-9),
            msamples / reference_s.max(1e-9)
        );
    }

    // Push-style session: rows pushed one at a time; bytes must equal the
    // one-call compress and the coefficient working set must stay a sliver
    // of the frame.
    let codec = LosslessCodec::new(scales)?;
    let mut encoder = codec.begin(size, size, 12)?;
    let mut peak = 0usize;
    for y in 0..size {
        encoder.push_row(frame.view().row(y));
        peak = peak.max(encoder.working_set_samples());
    }
    let bytes = encoder.finish();
    assert_eq!(bytes, codec.compress(&frame)?, "streamed bytes must equal the one-call compress");
    assert!(
        peak * 8 < size * size,
        "peak coefficient working set {peak} must stay far below the {} frame samples",
        size * size
    );
    println!(
        "streaming encode:   peak working set {peak} samples ({:.2}% of the frame), \
         bytes identical to compress",
        100.0 * peak as f64 / (size * size) as f64
    );

    // The pull-style partner: a tiled container streams back out through
    // bounded row bands — bounded-memory encode AND decode.
    let tiled = TiledCompressor::new(scales, DEFAULT_TILE_SIZE, 0)?;
    let container = tiled.compress(&frame)?;
    let mut next_y = 0usize;
    for band in tiled.decompress_row_bands(&container) {
        let band = band?;
        assert_eq!(band.y, next_y);
        let rect = TileRect { x: 0, y: band.y, width: size, height: band.image.height() };
        assert!(stats::bit_exact(&frame.crop(rect)?, &band.image)?);
        next_y += band.image.height();
    }
    assert_eq!(next_y, size);
    println!("row-band decode:    the tiled container streams back bit exact");
    Ok(())
}

/// End-to-end smoke of the paper-exact fixed-point codec: the Table I
/// datapath plus the Rice entropy back end producing a real decodable
/// `LWCF` bitstream. Checks the round trip is bit exact, the bytes never
/// depend on the worker count, and the container directory serves random
/// tile access both through the engine and through a decode plan sniffed
/// from the stream's own header. The engine codes each tile through
/// the line cascade, so sampled tiles' cascade words and a one-tile grid
/// over the whole frame are checked against the multi-pass Table II
/// reference. CI runs this at 4096×4096.
fn fixed_codec(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Fixed-path codec smoke — {size}x{size} 12-bit frame -> LWCF"));
    let bank = FilterBank::table1(FilterId::F1);
    let scales = 5u32;
    let tile = DEFAULT_TILE_SIZE.min(size);
    let frame = synth::ct_phantom(size, size, 12, 42);
    let engine = TiledFixedCompressor::new(&bank, scales, tile, 0)?;
    let grid = engine.grid(size, size)?;
    println!(
        "tile grid: {}x{} tiles of {}x{} ({} tiles), {} workers, {scales} scales, bank F1",
        grid.tiles_x(),
        grid.tiles_y(),
        grid.tile_width(),
        grid.tile_height(),
        grid.tile_count(),
        engine.workers()
    );

    let (bytes, report) = engine.compress_with_report(&frame)?;
    println!(
        "compress (tiled-fixed): {} -> {} bytes in {:.3} s ({:.1} MB/s), ratio {:.2}:1 \
         ({:.2} bpp)",
        report.raw_bytes,
        report.compressed_bytes,
        report.wall.as_secs_f64(),
        report.megabytes_per_second(),
        report.ratio(),
        report.compressed_bytes as f64 * 8.0 / frame.pixel_count() as f64
    );
    println!(
        "(a ratio below 1 is the honest result: losslessness keeps every Table II \
         fractional bit, so the fixed path expands — the lifting codec is the \
         compressing path)"
    );

    let start = std::time::Instant::now();
    let back = engine.decompress(&bytes)?;
    let wall = start.elapsed().as_secs_f64();
    let exact = stats::bit_exact(&frame, &back)?;
    println!(
        "decompress: {:.3} s ({:.1} MB/s raw), lossless: {}",
        wall,
        report.raw_bytes as f64 / 1e6 / wall.max(1e-9),
        if exact { "yes" } else { "NO" }
    );
    assert!(exact, "fixed-path round trip must be bit exact");

    // Worker-count independence: the bitstream is defined by the image and
    // the engine's configuration alone, never by scheduling.
    for workers in [1usize, 2, 5] {
        let other = TiledFixedCompressor::new(&bank, scales, tile, workers)?;
        assert!(
            other.compress(&frame)? == bytes,
            "LWCF bytes must not depend on the worker count ({workers} workers)"
        );
    }
    println!("streams byte-identical across 1/2/5 workers");

    // Directory-driven random access, through the engine and through the
    // plan the stream's own header calls for.
    for index in [0, grid.tile_count() - 1] {
        let rect = grid.rect(index);
        let tile_image = engine.decompress_tile(&bytes, index)?;
        let mut plan = DecodePlan::sniff(bytes.as_slice())?;
        plan.select(BrickRect { plane: rect, z: 0, depth: 1 })?;
        let sniffed = plan.execute(1)?.into_image()?;
        assert!(
            stats::bit_exact(&frame.crop(rect)?, &tile_image)? && sniffed == tile_image,
            "tile {index} must decode to exactly its region"
        );
    }
    println!("sampled tile decodes match their regions pixel for pixel");

    // The one forward transform the engine runs per tile is the line
    // cascade: its words must equal the multi-pass reference of the tile's
    // crop, and over a one-tile grid the reference of the whole frame.
    let hw = engine.transform();
    for index in [0, grid.tile_count() / 2, grid.tile_count() - 1] {
        let rect = grid.rect(index);
        assert!(
            LineFixedDwt::forward_view(hw, &frame.view_rect(rect)?)?
                == hw.forward(&frame.crop(rect)?)?,
            "tile {index}: line-cascade words must match the multi-pass transform of its crop"
        );
    }
    println!("sampled tiles: line-cascade words match the multi-pass transform of their crops");
    let single = TiledFixedCompressor::new(&bank, scales, size, 0)?;
    let whole = single.grid(size, size)?;
    assert!(whole.is_single(), "a frame-sized tile must give a one-tile grid");
    let start = std::time::Instant::now();
    let cascade = LineFixedDwt::forward_view(single.transform(), &frame.view_rect(whole.rect(0))?)?;
    let line_s = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let reference = hw.forward(&frame)?;
    let multi_s = start.elapsed().as_secs_f64();
    assert!(cascade == reference, "a one-tile grid must reproduce the whole-frame transform");
    println!(
        "one-tile grid: line cascade {line_s:.3} s vs multi-pass {multi_s:.3} s, words identical \
         to the whole-frame transform"
    );
    Ok(())
}

fn conclusions(size: usize) -> Result<(), Box<dyn std::error::Error>> {
    heading(&format!("Conclusions — simulated architecture on a {size}x{size} 12-bit image"));
    let c = reproduction::conclusions(size)?;
    println!("{}", c.arch_report);
    println!("\nversus the Pentium-133 software model:\n{}", c.throughput);
    println!(
        "\nproposed datapath area: {:.1} mm2 (paper: {:.1} mm2)",
        c.proposed_area_mm2, c.paper.area_mm2
    );
    println!(
        "paper's headline figures: {:.1} images/s, {:.0}x speedup, {:.2}% utilization",
        c.paper.images_per_second,
        c.paper.speedup,
        c.paper.utilization * 100.0
    );
    if size != 512 {
        println!(
            "(run with `reproduce conclusions 512` for the paper's full-size workload; \
             utilization and per-pixel cycle cost are size independent)"
        );
    }
    // Also report the host software time for context.
    let bank = FilterBank::table1(FilterId::F2);
    let image = synth::random_image(size, size, 12, 7);
    let (model, seconds) = SoftwareModel::measure_host(&bank, &image, 6.min(image.max_scales()))?;
    println!("host f64 reference for the same image: {seconds:.3} s ({model})");

    // Batch compression engine — the software analogue of the paper's
    // pipelined datapath: images flow through a pool of workers, each
    // running the end-to-end lossless codec.
    let scales = 5.min(image.max_scales());
    let batch: Vec<Image> = (0..8)
        .map(|k| match k % 2 {
            0 => synth::ct_phantom(size, size, 12, 40 + k),
            _ => synth::mr_slice(size, size, 12, 40 + k),
        })
        .collect();
    let sequential = BatchCompressor::new(scales, 1)?;
    let parallel = BatchCompressor::with_codec(*sequential.codec(), 0);
    let (streams, seq) = sequential.compress_batch(&batch)?;
    let (par_streams, par) = parallel.compress_batch(&batch)?;
    assert_eq!(streams, par_streams, "parallel streams must be byte-identical");
    println!(
        "\nbatch compression engine ({} images of {size}x{size}, {scales} scales):",
        batch.len()
    );
    println!("  1 worker  : {seq}");
    println!("  {} workers : {par}", par.workers);
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "  speedup: {:.2}x on {cores} logical cores, streams byte-identical",
        par.speedup_over(&seq)
    );

    let single = &batch[0];

    // Tile-parallel engine — the paper's line-buffer locality argument taken
    // to software: one large image sharded into independently coded tiles.
    let tiled_engine = parallel.tiled((size / 4).max(32), (size / 4).max(32))?;
    let (tiled_bytes, tiled_report) = tiled_engine.compress_with_report(single)?;
    let tiled_back = tiled_engine.decompress(&tiled_bytes)?;
    assert!(stats::bit_exact(single, &tiled_back)?, "tiled round trip must be lossless");
    println!("  tile-parallel ({}px tiles): {tiled_report}", tiled_engine.tile_width());

    // Fixed-path codec — the paper-exact datapath, tile by tile through the
    // line cascade, with its Rice entropy back end, producing a real
    // decodable LWCF bitstream. Skipped (with a note) when the size's tiles
    // cannot halve to the configured depth. Losslessness keeps every Table II
    // fractional bit, so the fixed path *expands* (ratio below 1): the
    // lifting engines above are the compressing paths; this one makes the
    // hardware datapath measurable end to end.
    let fixed_tile = (size / 4).max(32);
    match TiledFixedCompressor::new(&bank, scales, fixed_tile, 0) {
        Ok(fixed) if fixed.grid(size, size).is_ok() => {
            let (lwcf, fixed_report) = fixed.compress_with_report(single)?;
            let back = fixed.decompress(&lwcf)?;
            assert!(stats::bit_exact(single, &back)?, "fixed-path round trip must be lossless");
            println!(
                "  fixed-path codec (LWCF, {fixed_tile}px tiles, {} workers): {:.2}:1 \
                 ({:.2} bpp) at {:.1} MB/s, round trip bit exact",
                fixed.workers(),
                fixed_report.ratio(),
                fixed_report.compressed_bytes as f64 * 8.0 / single.pixel_count() as f64,
                fixed_report.megabytes_per_second(),
            );
            println!(
                "    (a ratio below 1 is the honest result: lossless fixed-point words \
                 keep every Table II fractional bit, so only the lifting path compresses)"
            );
        }
        _ => println!(
            "  fixed-path codec: skipped ({fixed_tile}px tiles of a {size}px frame cannot \
             halve {scales} times)"
        ),
    }
    Ok(())
}
