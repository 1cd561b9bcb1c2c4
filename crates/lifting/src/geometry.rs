//! Subband geometry of the ragged (any-dimension) pyramid decomposition.
//!
//! Each analysis pass splits the active `w x h` region into a
//! `ceil(w/2) x ceil(h/2)` approximation and three detail bands holding the
//! remaining samples; the approximation becomes the next pass's region. For
//! dimensions divisible by `2^scales` this reduces to the classic halving
//! pyramid (`w >> scale` everywhere), which is how the generalized codec
//! stays byte-identical to the original on previously supported inputs.
//!
//! These helpers are the single source of truth for that geometry, shared by
//! the transform ([`crate::Lifting53`]), the line cascade and the entropy
//! codec.

use lwc_image::TileRect;

/// Side length of the active region at `scale`: `ceil(n / 2^scale)`, never
/// below 1 for `n >= 1`.
///
/// ```
/// use lwc_lifting::geometry::scaled_dim;
///
/// assert_eq!(scaled_dim(512, 3), 64);   // divisible: plain shift
/// assert_eq!(scaled_dim(37, 1), 19);    // ragged: rounds up
/// assert_eq!(scaled_dim(37, 6), 1);     // saturates at one sample
/// ```
#[must_use]
pub fn scaled_dim(n: usize, scale: u32) -> usize {
    let mut n = n;
    for _ in 0..scale {
        if n <= 1 {
            break;
        }
        n = n.div_ceil(2);
    }
    n
}

/// The rectangle of subband `(scale, band)` inside the Mallat layout of a
/// `width x height` decomposition. `band` follows the workspace convention:
/// 0 = approximation, 1 = horizontal detail, 2 = vertical detail,
/// 3 = diagonal detail.
///
/// Detail rectangles may be empty once a dimension has contracted to one
/// sample — the codec serializes such bands as zero samples.
///
/// # Panics
///
/// Panics if `scale` is zero or `band > 3`.
#[must_use]
pub fn band_rect(width: usize, height: usize, scale: u32, band: usize) -> TileRect {
    assert!(scale >= 1, "subbands exist from scale 1");
    assert!(band <= 3, "band {band} out of range");
    let parent_w = scaled_dim(width, scale - 1);
    let parent_h = scaled_dim(height, scale - 1);
    let aw = parent_w.div_ceil(2);
    let ah = parent_h.div_ceil(2);
    let (dw, dh) = (parent_w - aw, parent_h - ah);
    match band {
        0 => TileRect { x: 0, y: 0, width: aw, height: ah },
        1 => TileRect { x: aw, y: 0, width: dw, height: ah },
        2 => TileRect { x: 0, y: ah, width: aw, height: dh },
        _ => TileRect { x: aw, y: ah, width: dw, height: dh },
    }
}

/// Sample count of subband `(scale, band)`; see [`band_rect`].
///
/// # Panics
///
/// Panics if `scale` is zero or `band > 3`.
#[must_use]
pub fn band_len(width: usize, height: usize, scale: u32, band: usize) -> usize {
    band_rect(width, height, scale, band).pixel_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisible_dimensions_reduce_to_the_classic_pyramid() {
        for scale in 1..=5u32 {
            assert_eq!(scaled_dim(512, scale), 512 >> scale);
            for band in 0..=3usize {
                let rect = band_rect(512, 256, scale, band);
                let (w, h) = (512 >> scale, 256 >> scale);
                assert_eq!((rect.width, rect.height), (w, h), "scale {scale} band {band}");
                let expected = match band {
                    0 => (0, 0),
                    1 => (w, 0),
                    2 => (0, h),
                    _ => (w, h),
                };
                assert_eq!((rect.x, rect.y), expected);
                assert_eq!(band_len(512, 256, scale, band), w * h);
            }
        }
    }

    #[test]
    fn ragged_bands_tile_the_parent_region_exactly() {
        for (w, h) in [(37usize, 53usize), (1, 1), (2, 1), (7, 8), (101, 1), (640, 480)] {
            for scale in 1..=6u32 {
                let parent = scaled_dim(w, scale - 1) * scaled_dim(h, scale - 1);
                let total: usize = (0..=3).map(|b| band_len(w, h, scale, b)).sum();
                assert_eq!(total, parent, "{w}x{h} scale {scale}");
                // The four rectangles partition the parent region.
                let a = band_rect(w, h, scale, 0);
                let hdet = band_rect(w, h, scale, 1);
                let vdet = band_rect(w, h, scale, 2);
                assert_eq!(a.right(), hdet.x);
                assert_eq!(a.bottom(), vdet.y);
                assert_eq!(a.width + hdet.width, scaled_dim(w, scale - 1));
                assert_eq!(a.height + vdet.height, scaled_dim(h, scale - 1));
            }
        }
    }

    #[test]
    fn one_sample_dimensions_have_empty_details() {
        assert_eq!(scaled_dim(1, 0), 1);
        assert_eq!(scaled_dim(1, 9), 1);
        let rect = band_rect(1, 8, 1, 1);
        assert!(rect.is_empty());
        assert_eq!(band_len(1, 8, 1, 0), 4);
        assert_eq!(band_len(1, 1, 3, 0), 1);
        assert_eq!(band_len(1, 1, 3, 3), 0);
    }

    #[test]
    #[should_panic(expected = "scale 1")]
    fn scale_zero_is_rejected() {
        let _ = band_rect(8, 8, 0, 0);
    }
}
