//! The one tile- and brick-parallel engine under every container format.
//!
//! `LWCT`, `LWCF` and `LWCV` differ only in how one part is coded: a
//! [`PartCodec`] encodes one tile or brick of a frame to its payload,
//! decodes one payload back to plane-major samples, and goes between an
//! engine and the format's container header. [`BrickEngine`] is everything
//! else, once: the tile shape, brick depth and worker count, the part grid,
//! the encode plan ([`EncodePlan`]), the decode plan
//! ([`DecodePlan`](crate::DecodePlan)) and the streaming layer iterator
//! ([`Layers`]). A 2-D frame is a one-slice volume cut into one-slice
//! bricks, so the three engines are one engine over three codecs —
//! [`TiledCompressor`](crate::TiledCompressor),
//! [`TiledFixedCompressor`](crate::TiledFixedCompressor) and
//! [`VolumeCompressor`](crate::VolumeCompressor) name its instances.

use crate::pool::resolve_workers;
use crate::report::TiledReport;
use crate::{DecodePlan, PipelineError, Plan, RowBands};
use lwc_coder::{check_tile_sides, write_container, CoderError, Container, ContainerHeader};
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, VolumeView};
use std::borrow::Borrow;
use std::marker::PhantomData;
use std::time::Instant;

/// How one container format codes one part. It is public only so that it
/// can bound the engine's methods; the crate does not export it, so no
/// other crate can name or implement it.
pub trait PartCodec: Clone + Send + Sync + 'static {
    /// The format's container header.
    type Header: ContainerHeader + Send + Sync + 'static;
    /// What the format codes: an [`Image`] or an [`ImageStack`].
    type Frame: Frame;
    /// `true` for the volumetric format.
    const VOLUME: bool;

    /// Encodes the part at `rect` of `frame` to its payload.
    ///
    /// # Errors
    ///
    /// Returns the part's transform or coder error.
    fn encode(&self, frame: &VolumeView<'_>, rect: BrickRect) -> Result<Vec<u8>, PipelineError>;

    /// Decodes part `index`, placed at `rect`, to its plane-major samples,
    /// checking the payload against the header and the box.
    ///
    /// # Errors
    ///
    /// Returns a coder error for a malformed or mismatched payload.
    fn decode(
        &self,
        header: &Self::Header,
        index: usize,
        rect: BrickRect,
        bytes: &[u8],
    ) -> Result<Vec<i32>, PipelineError>;

    /// The header of a `bit_depth`-bit frame cut by `grid`, refusing a frame
    /// this codec cannot code.
    ///
    /// # Errors
    ///
    /// Returns an error for a frame outside the codec's range.
    fn header(&self, grid: &BrickGrid, bit_depth: u32) -> Result<Self::Header, PipelineError>;

    /// Refuses a parsed header this codec cannot decode.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::UnsupportedFormat`] for another depth or bank.
    fn check(&self, header: &Self::Header) -> Result<(), PipelineError>;

    /// The codec a parsed header calls for.
    ///
    /// # Errors
    ///
    /// Returns an error for a header no codec can decode.
    fn for_header(header: &Self::Header) -> Result<Self, PipelineError>;

    /// Parses a stream into its header and its directory: part `i` is
    /// `bytes[offsets[i]..offsets[i + 1]]`.
    ///
    /// # Errors
    ///
    /// Returns the container parser's error.
    fn parse(bytes: &[u8]) -> Result<(Self::Header, Vec<u64>), PipelineError> {
        parse_container(bytes)
    }

    /// Assembles the encoded parts, in part order, into the stream.
    ///
    /// # Errors
    ///
    /// Returns a container error if an offset overflows the directory.
    fn assemble(header: &Self::Header, parts: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        Ok(write_container(header, &parts)?)
    }
}

/// Parses an `H` container into its header and directory.
pub(crate) fn parse_container<H: ContainerHeader>(
    bytes: &[u8],
) -> Result<(H, Vec<u64>), PipelineError> {
    let stream = Container::<H>::parse(bytes)?;
    Ok((*stream.header(), stream.into_offsets()))
}

/// A frame an engine encodes, read as a volume: an [`Image`] is one slice.
pub trait Frame: Send + Sync + 'static {
    /// The whole frame as a volume view; no sample is copied.
    fn volume(&self) -> VolumeView<'_>;
}

impl Frame for Image {
    fn volume(&self) -> VolumeView<'_> {
        self.view().into()
    }
}

impl Frame for ImageStack {
    fn volume(&self) -> VolumeView<'_> {
        self.view()
    }
}

/// The tile- and brick-parallel engine over one part codec `C`.
///
/// Streams are deterministic for a given part shape: the worker count never
/// changes a byte, because every part is coded on its own and the parts are
/// assembled in grid order. Each part of a decode is placed into the output
/// as it finishes, so peak memory stays at the output plus one part per
/// worker.
#[derive(Debug, Clone, Copy)]
pub struct BrickEngine<C> {
    pub(crate) codec: C,
    tile_width: usize,
    tile_height: usize,
    brick_depth: usize,
    workers: usize,
}

impl<C: PartCodec> BrickEngine<C> {
    /// Refuses a part shape no container can carry — a zero side, or a tile
    /// side the coder's rule ([`check_tile_sides`]) rejects — and resolves
    /// `workers == 0` to the machine's available parallelism.
    pub(crate) fn build(
        codec: C,
        tile_width: usize,
        tile_height: usize,
        brick_depth: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        if tile_width == 0 || tile_height == 0 || brick_depth == 0 {
            return Err(PipelineError::Config("tile and brick dimensions must be nonzero".into()));
        }
        check_tile_sides(tile_width, tile_height)
            .map_err(|e| PipelineError::Config(e.to_string()))?;
        let workers = resolve_workers(workers);
        Ok(Self { codec, tile_width, tile_height, brick_depth, workers })
    }

    /// Nominal tile width.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Nominal tile height.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_height
    }

    /// Nominal brick depth in slices (1 for the 2-D engines).
    #[must_use]
    pub fn brick_depth(&self) -> usize {
        self.brick_depth
    }

    /// Worker threads used per frame.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The part grid of a `width x height x depth` frame.
    pub(crate) fn bricks(
        &self,
        width: usize,
        height: usize,
        depth: usize,
    ) -> Result<BrickGrid, PipelineError> {
        BrickGrid::new(width, height, depth, self.tile_width, self.tile_height, self.brick_depth)
            .map_err(|e| PipelineError::Config(format!("invalid part grid: {e}")))
    }

    /// The encode plan of `frame`: one part per tile or brick of its grid.
    /// `S` owns or borrows the frame; the frame is read in place.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] for zero frame dimensions, or the
    /// codec's refusal of the frame (see each engine's `compress`).
    pub fn encode_plan<S: Borrow<C::Frame>>(
        &self,
        frame: S,
    ) -> Result<EncodePlan<C, S>, PipelineError> {
        let view = frame.borrow().volume();
        let grid = self.bricks(view.width(), view.height(), view.depth())?;
        let header = self.codec.header(&grid, view.bit_depth())?;
        Ok(EncodePlan { codec: self.codec.clone(), frame, grid, header })
    }

    /// Encodes `frame` across the worker pool and reports part throughput.
    pub(crate) fn encode(&self, frame: &C::Frame) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let start = Instant::now();
        let plan = self.encode_plan(frame)?;
        let bytes = plan.execute(self.workers)?;
        let view = frame.volume();
        let report = TiledReport {
            tiles: plan.parts(),
            raw_bytes: (view.voxel_count() * view.bit_depth() as usize).div_ceil(8),
            compressed_bytes: bytes.len(),
            workers: self.workers.min(plan.parts()),
            wall: start.elapsed(),
        };
        Ok((bytes, report))
    }

    /// The decode plan of a stream over the whole frame; `B` owns or borrows
    /// the bytes. The stream is parsed and checked against this engine's
    /// part codec here, once; [`DecodePlan::select`] narrows it to a region.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed header or directory, or a stream
    /// this engine's codec cannot decode (another depth or filter bank).
    pub fn decode_plan<B: AsRef<[u8]>>(&self, bytes: B) -> Result<DecodePlan<B>, PipelineError> {
        DecodePlan::parts(bytes, |_| Ok(self.codec.clone()))
    }

    /// The layers of a stream, decoded one at a time on the worker pool.
    pub(crate) fn layers<'a, L: Layer>(&self, bytes: &'a [u8]) -> Layers<'a, L> {
        let plan = self.decode_plan(bytes).map_err(Some);
        Layers { plan, workers: self.workers, next: 0, layer: PhantomData }
    }
}

/// The calls the 2-D engines share.
impl<C: PartCodec<Frame = Image>> BrickEngine<C> {
    /// Compresses `image`, fanning its tiles across the worker pool. The
    /// bytes depend only on the image and the tile shape, never on the
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns the first per-tile error, or the codec's refusal of the
    /// image.
    pub fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        Ok(self.encode(image)?.0)
    }

    /// Compresses and reports tile-level throughput.
    ///
    /// # Errors
    ///
    /// See [`BrickEngine::compress`].
    pub fn compress_with_report(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        self.encode(image)
    }

    /// Reconstructs the image from a stream this engine's format reads.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, a stream coded with another
    /// configuration, or tiles that disagree with the grid.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        let stack = self.decode_plan(bytes)?.execute(self.workers)?;
        Ok(stack.into_image().map_err(CoderError::from)?)
    }

    /// Random tile access: decodes exactly one tile (row-major `index`)
    /// through the directory, without touching any other tile.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// an `index` outside the stream's tile grid.
    pub fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        let (header, offsets) = C::parse(bytes)?;
        self.tile(&header, index, |i| &bytes[offsets[i] as usize..offsets[i + 1] as usize])
    }

    /// [`BrickEngine::decompress_tile`] over an already-parsed container,
    /// for callers that parsed it once (to learn the tile count) and must
    /// not pay for a second directory parse per tile.
    ///
    /// # Errors
    ///
    /// See [`BrickEngine::decompress_tile`].
    pub fn decompress_parsed_tile(
        &self,
        stream: &Container<'_, C::Header>,
        index: usize,
    ) -> Result<Image, PipelineError> {
        self.tile(stream.header(), index, |i| stream.part_bytes(i))
    }

    /// Streaming decode: yields the image one tile-row **band** at a time,
    /// top to bottom, decoding each band's tiles on the worker pool. Peak
    /// memory is bounded by one band plus the compressed bytes, whatever
    /// the image height.
    ///
    /// A stream that does not parse yields its error as the first item, and
    /// each band's decode error is that band's item.
    #[must_use]
    pub fn decompress_row_bands<'a>(&self, bytes: &'a [u8]) -> RowBands<'a> {
        self.layers(bytes)
    }

    /// Decodes tile `index` of a parsed stream to its image.
    fn tile<'b>(
        &self,
        header: &C::Header,
        index: usize,
        part: impl FnOnce(usize) -> &'b [u8],
    ) -> Result<Image, PipelineError> {
        self.codec.check(header)?;
        let grid = header.bricks()?;
        let tiles = grid.brick_count();
        if index >= tiles {
            let message = format!("tile index {index} out of range: the stream has {tiles} tiles");
            return Err(CoderError::MalformedStream(message).into());
        }
        let rect = grid.rect(index);
        let samples = self.codec.decode(header, index, rect, part(index))?;
        let (width, height) = (rect.plane.width, rect.plane.height);
        let bit_depth = header.common().bit_depth;
        Ok(Image::from_samples(width, height, bit_depth, samples).map_err(CoderError::from)?)
    }
}

/// The encode plan of a [`BrickEngine`]: one part per tile or brick of the
/// frame's grid, assembled by the codec into its stream. `S` owns or
/// borrows the frame.
pub struct EncodePlan<C: PartCodec, S> {
    codec: C,
    frame: S,
    grid: BrickGrid,
    header: C::Header,
}

impl<C: PartCodec, S: Borrow<C::Frame> + Send + Sync> Plan for EncodePlan<C, S> {
    type Part = Vec<u8>;
    type Sink = Vec<Vec<u8>>;
    type Output = Vec<u8>;

    fn parts(&self) -> usize {
        self.grid.brick_count()
    }

    fn sink(&self) -> Vec<Vec<u8>> {
        vec![Vec::new(); self.parts()]
    }

    fn run(&self, index: usize) -> Result<Vec<u8>, PipelineError> {
        self.codec.encode(&self.frame.borrow().volume(), self.grid.rect(index))
    }

    fn place(&self, sink: &mut Vec<Vec<u8>>, index: usize, part: Vec<u8>) {
        sink[index] = part;
    }

    fn finish(&self, sink: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        C::assemble(&self.header, sink)
    }
}

/// One layer of a streamed decode: a row band of a 2-D stream or a slab of
/// a volume.
pub trait Layer: Sized {
    /// The box of layer `index` of `grid`, or `None` past the last layer.
    fn rect(grid: &BrickGrid, index: usize) -> Option<BrickRect>;

    /// The layer decoded into `stack`.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer's samples do not fit its type.
    fn new(rect: BrickRect, stack: ImageStack) -> Result<Self, PipelineError>;
}

/// Iterator over the layers of a compressed stream, in order: each layer is
/// the stream's decode plan narrowed to one row of parts along the outer
/// axis (tile rows of a 2-D stream, brick layers of a volume).
pub struct Layers<'a, L> {
    /// The stream's plan, or the error building it (the first item).
    plan: Result<DecodePlan<&'a [u8]>, Option<PipelineError>>,
    workers: usize,
    next: usize,
    layer: PhantomData<L>,
}

impl<L: Layer> Iterator for Layers<'_, L> {
    type Item = Result<L, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let plan = match &mut self.plan {
            Ok(plan) => plan,
            Err(error) => return error.take().map(Err),
        };
        let rect = L::rect(plan.grid(), self.next)?;
        self.next += 1;
        let stack = plan.select(rect).and_then(|()| plan.execute(self.workers));
        Some(stack.and_then(|stack| L::new(rect, stack)))
    }
}
