//! Reversible 5/3 lifting along the z axis of a volume.
//!
//! The 3-D DWT of the volumetric datapath is **separable**: the 5/3 lifting
//! steps of [`crate::forward_53`] run along z across slices, and each
//! resulting coefficient plane then goes through the ordinary 2-D transform.
//! This module supplies the z leg over a plane-major buffer (slice `z`
//! occupies `plane_len` consecutive samples) as lifting steps over **whole
//! planes**, the software form of a 3-D DWT datapath whose z filter is fed
//! from frame buffers rather than single-voxel columns:
//!
//! ```text
//! predict: d[k][..] = x[2k+1][..] - ((x[2k][..] + x[2k+2][..]) >> 1)
//! update:  a[k][..] = x[2k][..]   + ((d[k-1][..] + d[k][..] + 2) >> 2)
//! ```
//!
//! Each step is one contiguous `plane_len`-long row operation, so the loops
//! autovectorize. A level writes its approximation planes, then its detail
//! planes (the Mallat layout along z), into one scratch buffer allocated per
//! call, and copies them back; nothing is gathered or scattered. The
//! boundary taps mirror in even- and detail-index space exactly like the
//! 1-D kernels, so every plane is bit-identical to running
//! [`crate::forward_53`] down each column ([`forward_z_columns`], the
//! reference the tests diff against).
//!
//! The ragged pyramid of [`crate::geometry`] applies unchanged: level `s`
//! operates on the first `scaled_dim(depth, s)` planes, halving rounding up,
//! so **any** slice count (odd, prime, or one) decomposes to any depth.
//! With `z_scales = 0` both passes are no-ops, which is what makes the 3-D
//! codec bit-identical per slice to the 2-D path in that configuration.

use crate::geometry::scaled_dim;
use crate::lifting1d::{
    approx_len, forward_53, inverse_53, mirror, predict_rows, unpredict_rows, unupdate_rows,
    update_rows,
};
use crate::LiftingError;

fn check_volume(samples: &[i32], plane_len: usize, depth: usize) -> Result<(), LiftingError> {
    if plane_len == 0 || depth == 0 || plane_len.checked_mul(depth) != Some(samples.len()) {
        return Err(LiftingError::ConfigurationMismatch(format!(
            "buffer holds {} samples but the volume needs {} x {}",
            samples.len(),
            plane_len,
            depth
        )));
    }
    Ok(())
}

/// Number of z levels that do work: the pyramid saturates at one plane after
/// `ceil(log2(depth))` levels, and every level past that is a no-op.
fn active_levels(depth: usize, z_scales: u32) -> u32 {
    let mut levels = 0;
    let mut n = depth;
    while levels < z_scales && n >= 2 {
        n = n.div_ceil(2);
        levels += 1;
    }
    levels
}

/// Plane `z` of a plane-major buffer.
fn plane(buf: &[i32], plane_len: usize, z: usize) -> &[i32] {
    &buf[z * plane_len..(z + 1) * plane_len]
}

/// Index of tap `k` of a `len`-long subsequence, mirrored at both ends.
fn mirrored(k: usize, delta: i64, len: usize) -> usize {
    mirror(k as i64 + delta, len as i64) as usize
}

/// One forward level over the first `n >= 2` planes of `src`: approximation
/// planes then detail planes into `dst`.
fn forward_level(src: &[i32], dst: &mut [i32], plane_len: usize, n: usize) {
    let a_len = approx_len(n);
    let d_len = n - a_len;
    let x = |z| plane(src, plane_len, z);
    let (approx, detail) = dst[..n * plane_len].split_at_mut(a_len * plane_len);
    for (k, out) in detail.chunks_exact_mut(plane_len).enumerate() {
        predict_rows(x(2 * k + 1), x(2 * k), x(2 * mirrored(k, 1, a_len)), out);
    }
    let detail = &*detail;
    let d = |j| plane(detail, plane_len, j);
    for (k, out) in approx.chunks_exact_mut(plane_len).enumerate() {
        update_rows(x(2 * k), d(mirrored(k, -1, d_len)), d(mirrored(k, 0, d_len)), out);
    }
}

/// One inverse level: the Mallat planes `0..n` of `src` back to interleaved
/// planes in `dst`.
fn inverse_level(src: &[i32], dst: &mut [i32], plane_len: usize, n: usize) {
    let a_len = approx_len(n);
    let d_len = n - a_len;
    let (approx, detail) = src[..n * plane_len].split_at(a_len * plane_len);
    let d = |j| plane(detail, plane_len, j);
    for (k, a) in approx.chunks_exact(plane_len).enumerate() {
        let out = &mut dst[2 * k * plane_len..(2 * k + 1) * plane_len];
        unupdate_rows(a, d(mirrored(k, -1, d_len)), d(mirrored(k, 0, d_len)), out);
    }
    for k in 0..d_len {
        // The odd plane sits between its even neighbours; an even-length
        // level mirrors the last right neighbour back to or before 2k.
        let m = mirrored(k, 1, a_len);
        let (before, rest) = dst.split_at_mut((2 * k + 1) * plane_len);
        let (out, after) = rest.split_at_mut(plane_len);
        let left = plane(before, plane_len, 2 * k);
        let right =
            if m > k { plane(after, plane_len, 0) } else { plane(before, plane_len, 2 * m) };
        unpredict_rows(d(k), left, right, out);
    }
}

/// Forward 5/3 lifting along z, in place, over a plane-major buffer of
/// `depth` planes of `plane_len` samples each. After the call, planes
/// `0..ceil(n/2)` of each level hold z-approximation coefficients and the
/// remainder z-detail, per the Mallat convention. `z_scales = 0` leaves the
/// buffer untouched; levels past the point where the z pyramid saturates at
/// one plane are no-ops, exactly like the 2-D transform.
///
/// # Errors
///
/// Returns [`LiftingError::ConfigurationMismatch`] if the buffer length is
/// not `plane_len * depth` or either dimension is zero.
pub fn forward_z(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    let levels = active_levels(depth, z_scales);
    if levels == 0 {
        return Ok(());
    }
    let mut scratch = vec![0i32; samples.len()];
    for s in 0..levels {
        let n = scaled_dim(depth, s);
        forward_level(samples, &mut scratch, plane_len, n);
        samples[..n * plane_len].copy_from_slice(&scratch[..n * plane_len]);
    }
    Ok(())
}

/// Inverse of [`forward_z`]: reconstructs the plane-major sample buffer from
/// its z-Mallat layout, in place. With the same `plane_len`, `depth` and
/// `z_scales` this exactly undoes the forward pass at any word length.
///
/// # Errors
///
/// Returns [`LiftingError::ConfigurationMismatch`] if the buffer length is
/// not `plane_len * depth` or either dimension is zero.
pub fn inverse_z(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    let levels = active_levels(depth, z_scales);
    if levels == 0 {
        return Ok(());
    }
    let mut scratch = vec![0i32; samples.len()];
    for s in (0..levels).rev() {
        let n = scaled_dim(depth, s);
        inverse_level(samples, &mut scratch, plane_len, n);
        samples[..n * plane_len].copy_from_slice(&scratch[..n * plane_len]);
    }
    Ok(())
}

/// Gathers every in-plane column of a plane-major buffer, hands it to `lift`
/// with the z pyramid's level sizes (shallowest first, ending where the
/// pyramid saturates at one plane), and scatters it back.
fn for_each_column(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
    mut lift: impl FnMut(&mut [i32], &[usize]),
) {
    let sizes: Vec<usize> =
        (0..z_scales).map(|s| scaled_dim(depth, s)).take_while(|&n| n >= 2).collect();
    let mut column = vec![0i32; depth];
    for i in 0..plane_len {
        for (z, slot) in column.iter_mut().enumerate() {
            *slot = samples[z * plane_len + i];
        }
        lift(&mut column, &sizes);
        for (z, &v) in column.iter().enumerate() {
            samples[z * plane_len + i] = v;
        }
    }
}

/// Reference form of [`forward_z`]: gathers every in-plane column and runs
/// [`crate::forward_53`] down it level by level. Bit-identical to
/// [`forward_z`] and far slower; kept as the definition the plane-wise pass
/// is checked against.
///
/// # Errors
///
/// As [`forward_z`].
pub fn forward_z_columns(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    for_each_column(samples, plane_len, depth, z_scales, |column, sizes| {
        for &n in sizes {
            let (a, d) = forward_53(&column[..n]);
            column[..a.len()].copy_from_slice(&a);
            column[a.len()..n].copy_from_slice(&d);
        }
    });
    Ok(())
}

/// Reference form of [`inverse_z`] over [`crate::inverse_53`], column by
/// column (see [`forward_z_columns`]).
///
/// # Errors
///
/// As [`inverse_z`].
pub fn inverse_z_columns(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    for_each_column(samples, plane_len, depth, z_scales, |column, sizes| {
        for &n in sizes.iter().rev() {
            let a_len = approx_len(n);
            let x = inverse_53(&column[..a_len], &column[a_len..n]);
            column[..n].copy_from_slice(&x);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifting1d::forward_53;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_volume(plane_len: usize, depth: usize, seed: u64) -> Vec<i32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..plane_len * depth).map(|_| rng.gen_range(-40960..40960)).collect()
    }

    #[test]
    fn roundtrip_is_exact_for_any_depth_and_scales() {
        for depth in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 17] {
            for z_scales in [0u32, 1, 2, 3, 6] {
                let original = random_volume(13, depth, depth as u64 + z_scales as u64);
                let mut data = original.clone();
                forward_z(&mut data, 13, depth, z_scales).unwrap();
                if z_scales == 0 || depth == 1 {
                    assert_eq!(data, original, "z_scales = 0 must be the identity");
                }
                inverse_z(&mut data, 13, depth, z_scales).unwrap();
                assert_eq!(data, original, "depth={depth} z_scales={z_scales}");
            }
        }
    }

    #[test]
    fn matches_the_1d_kernel_column_by_column() {
        // One z level over an even number of planes is exactly forward_53
        // applied to every (x, y) column.
        let plane_len = 7;
        let depth = 6;
        let original = random_volume(plane_len, depth, 3);
        let mut data = original.clone();
        forward_z(&mut data, plane_len, depth, 1).unwrap();
        for i in 0..plane_len {
            let column: Vec<i32> = (0..depth).map(|z| original[z * plane_len + i]).collect();
            let (a, d) = forward_53(&column);
            let got: Vec<i32> = (0..depth).map(|z| data[z * plane_len + i]).collect();
            assert_eq!(&got[..a.len()], &a[..], "column {i} approximation");
            assert_eq!(&got[a.len()..], &d[..], "column {i} detail");
        }
    }

    #[test]
    fn multi_level_passes_match_the_column_reference() {
        let mut rng = StdRng::seed_from_u64(16);
        let bound = i32::MAX / 2;
        for depth in 1usize..=20 {
            for z_scales in 0u32..=5 {
                for plane_len in [1usize, 3, 17, 64] {
                    let original: Vec<i32> =
                        (0..plane_len * depth).map(|_| rng.gen_range(-bound..=bound)).collect();
                    let mut data = original.clone();
                    let mut expect = original.clone();
                    forward_z(&mut data, plane_len, depth, z_scales).unwrap();
                    forward_z_columns(&mut expect, plane_len, depth, z_scales).unwrap();
                    let case = format!("depth={depth} z_scales={z_scales} plane_len={plane_len}");
                    assert_eq!(data, expect, "forward, {case}");
                    inverse_z(&mut data, plane_len, depth, z_scales).unwrap();
                    inverse_z_columns(&mut expect, plane_len, depth, z_scales).unwrap();
                    assert_eq!(data, expect, "inverse, {case}");
                    assert_eq!(data, original, "round trip, {case}");
                }
            }
        }
    }

    #[test]
    fn deep_decompositions_saturate_instead_of_failing() {
        let mut data = random_volume(5, 3, 9);
        let original = data.clone();
        forward_z(&mut data, 5, 3, 16).unwrap();
        inverse_z(&mut data, 5, 3, 16).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn saturating_scale_counts_return_at_once_and_round_trip() {
        // Past ceil(log2(depth)) levels the pyramid is one plane; the level
        // loop must stop there rather than walk every requested level.
        for depth in [1usize, 2, 9, 16] {
            let original = random_volume(6, depth, depth as u64);
            let mut data = original.clone();
            let start = std::time::Instant::now();
            forward_z(&mut data, 6, depth, u32::MAX).unwrap();
            let mut expect = original.clone();
            forward_z_columns(&mut expect, 6, depth, u32::MAX).unwrap();
            assert_eq!(data, expect, "depth={depth}");
            inverse_z(&mut data, 6, depth, u32::MAX).unwrap();
            assert!(start.elapsed() < std::time::Duration::from_secs(1), "depth={depth}");
            assert_eq!(data, original, "depth={depth}");
        }
    }

    #[test]
    fn constant_columns_have_zero_z_detail() {
        let plane_len = 4;
        let depth = 8;
        let mut data: Vec<i32> = (0..plane_len * depth).map(|i| (i % plane_len) as i32).collect();
        forward_z(&mut data, plane_len, depth, 2).unwrap();
        // Detail planes of both levels are all zero; the two remaining
        // approximation planes keep the per-column DC level.
        for z in 0..depth {
            for i in 0..plane_len {
                assert_eq!(data[z * plane_len + i], if z < 2 { i as i32 } else { 0 });
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut data = vec![0i32; 10];
        assert!(forward_z(&mut data, 3, 3, 1).is_err());
        assert!(forward_z(&mut data, 0, 10, 1).is_err());
        assert!(forward_z(&mut data, 10, 0, 1).is_err());
        assert!(inverse_z(&mut data, 3, 3, 1).is_err());
        // A shape whose product wraps around to the buffer length is a
        // mismatch: 2 * (usize::MAX / 2 + 6) = 2^BITS + 10.
        let wraps_to_ten = usize::MAX / 2 + 6;
        assert!(forward_z(&mut data, wraps_to_ten, 2, 1).is_err());
        assert!(inverse_z(&mut data, wraps_to_ten, 2, 1).is_err());
    }
}
