//! Wall-clock throughput accounting for batch runs.

use std::fmt;
use std::time::Duration;

/// Throughput of one batch compression (or decompression) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Number of images processed.
    pub images: usize,
    /// Raw input volume in bytes (pixels at their nominal packed bit depth).
    pub raw_bytes: usize,
    /// Total compressed volume in bytes.
    pub compressed_bytes: usize,
    /// Worker threads that served the run.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Raw megabytes (10^6 bytes) processed per second of wall time.
    #[must_use]
    pub fn megabytes_per_second(&self) -> f64 {
        self.raw_bytes as f64 / 1e6 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Images completed per second of wall time.
    #[must_use]
    pub fn images_per_second(&self) -> f64 {
        self.images as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Compression ratio (raw / compressed); greater than 1 means the batch
    /// shrank.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / (self.compressed_bytes as f64).max(1.0)
    }

    /// Speedup of this run relative to `baseline` (same workload measured
    /// elsewhere, e.g. on one worker).
    #[must_use]
    pub fn speedup_over(&self, baseline: &BatchReport) -> f64 {
        baseline.wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} images in {:.3} s on {} workers: {:.1} MB/s, {:.1} images/s, {:.2}:1",
            self.images,
            self.wall.as_secs_f64(),
            self.workers,
            self.megabytes_per_second(),
            self.images_per_second(),
            self.ratio()
        )
    }
}

/// Throughput of one tiled compression run (see
/// [`crate::TiledCompressor::compress_with_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiledReport {
    /// Number of tiles in the grid.
    pub tiles: usize,
    /// Raw input volume in bytes (pixels at their nominal packed bit depth).
    pub raw_bytes: usize,
    /// Size of the produced stream in bytes.
    pub compressed_bytes: usize,
    /// Worker threads that served the run.
    pub workers: usize,
    /// Wall-clock time of the whole image.
    pub wall: Duration,
}

impl TiledReport {
    /// Raw megabytes (10^6 bytes) processed per second of wall time.
    #[must_use]
    pub fn megabytes_per_second(&self) -> f64 {
        self.raw_bytes as f64 / 1e6 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Tiles completed per second of wall time.
    #[must_use]
    pub fn tiles_per_second(&self) -> f64 {
        self.tiles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Compression ratio (raw / compressed).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / (self.compressed_bytes as f64).max(1.0)
    }
}

impl fmt::Display for TiledReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tiles in {:.3} s on {} workers: {:.1} MB/s, {:.1} tiles/s, {:.2}:1",
            self.tiles,
            self.wall.as_secs_f64(),
            self.workers,
            self.megabytes_per_second(),
            self.tiles_per_second(),
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchReport {
        BatchReport {
            images: 4,
            raw_bytes: 8_000_000,
            compressed_bytes: 4_000_000,
            workers: 2,
            wall: Duration::from_secs(2),
        }
    }

    #[test]
    fn derived_rates_are_consistent() {
        let r = sample();
        assert!((r.megabytes_per_second() - 4.0).abs() < 1e-9);
        assert!((r.images_per_second() - 2.0).abs() < 1e-9);
        assert!((r.ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_compares_wall_times() {
        let fast = sample();
        let slow = BatchReport { wall: Duration::from_secs(6), ..fast };
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_readable() {
        let text = sample().to_string();
        assert!(text.contains("4 images"));
        assert!(text.contains("MB/s"));
    }

    #[test]
    fn tiled_report_rates_and_display() {
        let r = TiledReport {
            tiles: 16,
            raw_bytes: 8_000_000,
            compressed_bytes: 2_000_000,
            workers: 4,
            wall: Duration::from_secs(2),
        };
        assert!((r.megabytes_per_second() - 4.0).abs() < 1e-9);
        assert!((r.tiles_per_second() - 8.0).abs() < 1e-9);
        assert!((r.ratio() - 4.0).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("16 tiles"));
        assert!(text.contains("tiles/s"));
    }
}
