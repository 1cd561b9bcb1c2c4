//! Seeded inputs. Everything a workload feeds the program is a function of
//! the `--seed` argument and the stated sizes, generated before timing
//! starts; the program receives only the generated bytes.

use crate::Res;
use lwc_image::{dicom, synth, BrickRect, Image, ImageStack, TileRect};

/// SplitMix64: a small, well-mixed generator that makes the benchmark's
/// choices independent of any library's random-number implementation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent sub-seed for input stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Bits of a 12-bit raster, the depth of every generated input.
pub const BIT_DEPTH: u32 = 12;

/// Frames of a PACS archive: one CT phantom and one MR slice of `size`²,
/// each also held as DICOM Part 10 bytes (explicit VR little endian), the
/// form they arrive in.
#[derive(Debug, Clone, PartialEq)]
pub struct Frames {
    pub images: Vec<Image>,
    pub dicom: Vec<Vec<u8>>,
}

impl Frames {
    pub fn generate(seed: u64, size: usize) -> Res<Self> {
        let images = vec![
            synth::ct_phantom(size, size, BIT_DEPTH, derive(seed, 1)),
            synth::mr_slice(size, size, BIT_DEPTH, derive(seed, 2)),
        ];
        let dicom = images
            .iter()
            .map(|image| {
                dicom::encode(&ImageStack::from_slices(std::slice::from_ref(image))?, true, false)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { images, dicom })
    }
}

/// `count` correlated CT stacks of `width x height x depth`.
pub fn ct_stacks(
    seed: u64,
    count: usize,
    width: usize,
    height: usize,
    depth: usize,
) -> Vec<ImageStack> {
    (0..count as u64)
        .map(|i| synth::ct_volume(width, height, depth, BIT_DEPTH, derive(seed, 10 + i)))
        .collect()
}

/// Mixed 2-D frames for serving: CT phantoms and MR slices alternating.
pub fn serve_frames(seed: u64, count: usize, size: usize) -> Vec<Image> {
    (0..count as u64)
        .map(|i| {
            let s = derive(seed, 20 + i);
            if i % 2 == 0 {
                synth::ct_phantom(size, size, BIT_DEPTH, s)
            } else {
                synth::mr_slice(size, size, BIT_DEPTH, s)
            }
        })
        .collect()
}

/// A uniformly placed `w x h x d` box inside a `width x height x depth`
/// volume.
pub fn cuboid(
    rng: &mut Rng,
    volume: (usize, usize, usize),
    size: (usize, usize, usize),
) -> BrickRect {
    let (width, height, depth) = volume;
    let (w, h, d) = size;
    BrickRect {
        plane: TileRect {
            x: rng.below(width - w + 1),
            y: rng.below(height - h + 1),
            width: w,
            height: h,
        },
        z: rng.below(depth - d + 1),
        depth: d,
    }
}

/// The seven request kinds of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Compress,
    Decompress,
    DecompressTile,
    Region2d,
    CompressVolume,
    DecompressVolume,
    Region3d,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Compress,
        Kind::Decompress,
        Kind::DecompressTile,
        Kind::Region2d,
        Kind::CompressVolume,
        Kind::DecompressVolume,
        Kind::Region3d,
    ];

    /// The op name used in per-layer metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Compress => "compress",
            Kind::Decompress => "decompress",
            Kind::DecompressTile => "decompress-tile",
            Kind::Region2d => "decompress-region",
            Kind::CompressVolume => "compress-volume",
            Kind::DecompressVolume => "decompress-volume",
            Kind::Region3d => "decompress-region-3d",
        }
    }

    /// How many of each kind one pass of the request list holds. Fixed, so
    /// that every seed serves the same mix and only the inputs and
    /// coordinates change with it. The 512² compress and decompress requests
    /// are the middle half of the latency distribution, between the sub-ms
    /// tile and 2-D region reads and the whole-volume and 3-D region
    /// requests, so the median latency falls inside one cluster of similar
    /// requests rather than on the edge between two.
    fn per_list(self) -> usize {
        match self {
            Kind::Compress | Kind::Decompress => 12,
            Kind::DecompressTile => 8,
            Kind::Region2d | Kind::Region3d | Kind::CompressVolume | Kind::DecompressVolume => 4,
        }
    }
}

/// One entry of the serving request list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub kind: Kind,
    /// Index of the frame (2-D kinds) or stack (volume kinds).
    pub input: usize,
    /// Tile index for `DecompressTile`.
    pub tile: u32,
    /// Region for the region kinds (z = 0, depth = 1 for 2-D).
    pub rect: BrickRect,
}

/// Shapes of the serving inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub frames: usize,
    pub frame: usize,
    pub tile: usize,
    pub stacks: usize,
    pub stack: (usize, usize, usize),
}

/// The fixed request list of one serving pass, shuffled by `seed`.
pub fn request_list(seed: u64, shape: ServeShape) -> Vec<Request> {
    let mut rng = Rng::new(derive(seed, 30));
    let tiles = shape.frame.div_ceil(shape.tile).pow(2);
    let none = BrickRect { plane: TileRect { x: 0, y: 0, width: 0, height: 0 }, z: 0, depth: 0 };
    let mut list = Vec::new();
    for kind in Kind::ALL {
        for n in 0..kind.per_list() {
            let volume =
                matches!(kind, Kind::CompressVolume | Kind::DecompressVolume | Kind::Region3d);
            // Inputs in turn, so every kind touches each frame or stack
            // equally often whatever the seed.
            let input = n % if volume { shape.stacks } else { shape.frames };
            let tile = if kind == Kind::DecompressTile { rng.below(tiles) as u32 } else { 0 };
            let rect = match kind {
                Kind::Region2d => {
                    let side = (shape.frame * 3 / 16).max(1);
                    cuboid(&mut rng, (shape.frame, shape.frame, 1), (side, side, 1))
                }
                Kind::Region3d => {
                    let (w, h, d) = shape.stack;
                    cuboid(
                        &mut rng,
                        shape.stack,
                        ((w * 3 / 8).max(1), (h * 3 / 8).max(1), (d / 2).max(1)),
                    )
                }
                _ => none,
            };
            list.push(Request { kind, input, tile, rect });
        }
    }
    rng.shuffle(&mut list);
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ServeShape =
        ServeShape { frames: 4, frame: 64, tile: 16, stacks: 2, stack: (32, 32, 8) };

    #[test]
    fn same_seed_same_inputs_and_requests() {
        assert_eq!(Frames::generate(7, 32).unwrap(), Frames::generate(7, 32).unwrap());
        assert_eq!(ct_stacks(7, 2, 16, 16, 4), ct_stacks(7, 2, 16, 16, 4));
        assert_eq!(serve_frames(7, 2, 16), serve_frames(7, 2, 16));
        assert_eq!(request_list(7, SHAPE), request_list(7, SHAPE));
    }

    #[test]
    fn different_seed_different_inputs_and_requests() {
        assert_ne!(Frames::generate(7, 32).unwrap(), Frames::generate(8, 32).unwrap());
        assert_ne!(ct_stacks(7, 2, 16, 16, 4), ct_stacks(8, 2, 16, 16, 4));
        assert_ne!(serve_frames(7, 2, 16), serve_frames(8, 2, 16));
        assert_ne!(request_list(7, SHAPE), request_list(8, SHAPE));
    }

    #[test]
    fn every_seed_serves_the_same_mix_inside_the_inputs() {
        for seed in 0..20 {
            let list = request_list(seed, SHAPE);
            for kind in Kind::ALL {
                assert_eq!(list.iter().filter(|r| r.kind == kind).count(), kind.per_list());
            }
            for r in &list {
                let (w, h, d, n) = match r.kind {
                    Kind::CompressVolume | Kind::DecompressVolume | Kind::Region3d => {
                        (SHAPE.stack.0, SHAPE.stack.1, SHAPE.stack.2, SHAPE.stacks)
                    }
                    _ => (SHAPE.frame, SHAPE.frame, 1, SHAPE.frames),
                };
                assert!(r.input < n);
                assert!(
                    r.rect.plane.right() <= w && r.rect.plane.bottom() <= h && r.rect.back() <= d
                );
                assert!((r.tile as usize) < 16);
            }
        }
    }

    #[test]
    fn dicom_bytes_hold_the_frames() {
        let frames = Frames::generate(3, 32).unwrap();
        for (image, bytes) in frames.images.iter().zip(&frames.dicom) {
            assert_eq!(&dicom::parse(bytes).unwrap().frame0().unwrap(), image);
        }
    }
}
