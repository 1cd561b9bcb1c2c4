//! # lwc-lifting — reversible integer 5/3 lifting transform (baseline)
//!
//! The paper achieves losslessness by giving the conventional filter-bank
//! datapath enough fixed-point precision. The modern alternative — adopted a
//! few years later by JPEG 2000 — is the **lifting scheme** with integer
//! rounding inside each lifting step, which is reversible by construction at
//! any word length. This crate implements the reversible LeGall 5/3 lifting
//! transform (the integer relative of the paper's F4 bank) as:
//!
//! * an algorithmic **baseline/ablation** against the wide-word approach
//!   (identical lossless guarantee, different arithmetic cost), and
//! * the transform behind the end-to-end compression examples, because its
//!   integer subbands feed an entropy coder directly.
//!
//! The 2-D transform uses the same Mallat layout and symmetric (mirror)
//! boundary extension as JPEG 2000, and — like JPEG 2000 — supports images
//! of **any** dimensions: every pass halves the active region rounding up
//! (see [`geometry`]), so odd, prime and single-sample sides decompose and
//! reconstruct exactly. This is what lets the tile-sharded codec in
//! `lwc-pipeline` feed ragged edge tiles through the ordinary transform.
//!
//! ```
//! use lwc_lifting::Lifting53;
//! use lwc_image::synth;
//!
//! # fn main() -> Result<(), lwc_lifting::LiftingError> {
//! let image = synth::ct_phantom(64, 64, 12, 0);
//! let lifting = Lifting53::new(3)?;
//! let coeffs = lifting.forward(&image)?;
//! let back = lifting.inverse(&coeffs)?;
//! assert_eq!(lwc_image::stats::max_abs_diff(&image, &back)?, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod geometry;
mod lifting1d;
mod line;
mod transform;
pub mod zaxis;

pub use error::LiftingError;
pub use lifting1d::{approx_len, detail_len, forward_53, forward_53_into, inverse_53};
pub use line::{CoeffRow, CoeffRowMut, LineDwt53, LineIdwt53};
pub use transform::{Lifting53, LiftingCoefficients};
pub use zaxis::{forward_z, inverse_z};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lifting53>();
        assert_send_sync::<LiftingCoefficients>();
        assert_send_sync::<LiftingError>();
    }
}
