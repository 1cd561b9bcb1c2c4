//! Convenient re-exports of the types most programs need.
//!
//! Each engine has inherent methods — [`LosslessCodec`], and the three
//! instances of the one tile/brick engine: [`TiledCompressor`], the
//! paper-exact [`TiledFixedCompressor`] and the volumetric
//! [`VolumeCompressor`]. A reader that does not know how a stream was
//! produced lets the stream's own header pick the decoder:
//! [`DecodePlan::sniff`] builds the plan, [`decompress_auto`] runs it.
//!
//! ```
//! use lwc_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = synth::mr_slice(64, 64, 12, 0);
//! let bytes = TiledCompressor::new(3, 32, 2)?.compress(&image)?;
//! let plan = DecodePlan::sniff(bytes.as_slice())?;
//! assert_eq!((plan.parts(), plan.is_volume()), (4, false));
//! assert!(stats::bit_exact(&image, &decompress_auto(&bytes)?)?);
//! # Ok(())
//! # }
//! ```

pub use lwc_arch::{ArchParams, ArchReport, ArchSimulator, InverseSimulationRun, SimulationRun};
pub use lwc_baselines::{table3, ArchitectureClass, ArchitectureCost, CostParameters};
pub use lwc_coder::{
    CompressionReport, FixedHeader, FixedStream, FixedSubbandCodec, LosslessCodec, VolumeHeader,
    VolumeStream,
};
pub use lwc_dwt::{
    Decomposition, Dwt2d, DwtError, FixedCoeffRow, FixedDwt2d, LineFixedDwt, Subband,
};
pub use lwc_filters::{
    BankMetrics, BiorthogonalityReport, CoefficientPrecision, FilterBank, FilterId, Kernel,
    QuantizedBank,
};
pub use lwc_fixed::{Fx, MacAccumulator, QFormat};
pub use lwc_image::{
    dicom, pgm, stats, synth, BrickGrid, BrickRect, DicomImage, Image, ImageError, ImageStack,
    ImageView, ImageViewMut, TileGrid, TileRect, VolumeView,
};
pub use lwc_lifting::{Lifting53, LineDwt53, LineIdwt53};
pub use lwc_metrics::{self as metrics, FidelityReport};
pub use lwc_perf::hardware::{HardwareModel, ThroughputReport};
pub use lwc_perf::software::SoftwareModel;
pub use lwc_pipeline::{
    decompress_auto, BatchCompressor, BatchReport, DecodePlan, PipelineError, Plan, RowBand,
    TiledCompressor, TiledFixedCompressor, TiledReport, VolumeCompressor, VolumeSlab, VolumeSlabs,
    DEFAULT_BRICK_DEPTH, DEFAULT_TILE_SIZE,
};
pub use lwc_server::{
    loadgen, Client, LoadGenConfig, LoadReport, Server, ServerConfig, ServerError, ServerStats,
};
pub use lwc_tech::{MemoryModel, MultiplierDesign, MultiplierModel, Process};
pub use lwc_wordlen::{integer_bits, WordLengthPlan};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_types_are_usable_together() {
        let bank = FilterBank::table1(FilterId::F5);
        let plan = WordLengthPlan::paper_default(&bank, 2).unwrap();
        assert_eq!(plan.word_bits(), 32);
        let image = synth::flat(16, 16, 12, 9);
        assert_eq!(stats::entropy_bits_per_pixel(&image), 0.0);
    }
}
