//! Order-preserving streaming over the pipeline's one fan-out.

use crate::pool::{guarded, run_indexed};
use crate::PipelineError;
use std::fmt;
use std::vec;

/// How many items per worker one window pulls from the source. Bounds peak
/// memory of the streaming APIs.
const FEED_AHEAD: usize = 2;

/// Pulls the next window from the source and runs it; empty once the source
/// is drained.
type NextWindow<T> = Box<dyn FnMut() -> Vec<Result<T, PipelineError>> + Send>;

/// An iterator over pipeline results, in input order.
///
/// Produced by [`crate::BatchCompressor::compress_iter`] and
/// [`crate::BatchCompressor::decompress_iter`]. The stream pulls a window of
/// `workers × 2` items from its source on the caller's thread, runs the
/// window across the worker pool, and yields the results in exactly the
/// order their inputs went in. A failing or panicking item yields `Err` in
/// its own position; every later item keeps its slot.
///
/// Nothing runs between calls to [`Iterator::next`]: dropping the stream
/// early leaves no thread behind and pulls nothing more from the source.
pub struct OrderedStream<T> {
    next_window: NextWindow<T>,
    ready: vec::IntoIter<Result<T, PipelineError>>,
}

impl<T> fmt::Debug for OrderedStream<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedStream").field("ready", &self.ready.len()).finish_non_exhaustive()
    }
}

impl<T: Send + 'static> OrderedStream<T> {
    /// A stream applying `job` to every item of `source`, a window of
    /// `workers × 2` items at a time on `workers` threads.
    pub(crate) fn new<In, Job>(
        workers: usize,
        mut source: impl Iterator<Item = In> + Send + 'static,
        job: Job,
    ) -> Self
    where
        In: Sync,
        Job: Fn(&In) -> Result<T, PipelineError> + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let next_window = move || {
            let window: Vec<In> = source.by_ref().take(workers * FEED_AHEAD).collect();
            // Each item is guarded on its own, so the window's run cannot
            // fail; an item's failure is its result.
            let results = run_indexed(workers, window.len(), |i| {
                Ok::<_, PipelineError>(guarded(|| job(&window[i])))
            });
            results.unwrap_or_else(|error| {
                let lost = format!("the window's run failed: {error}");
                window.iter().map(|_| Err(PipelineError::Config(lost.clone()))).collect()
            })
        };
        Self { next_window: Box::new(next_window), ready: Vec::new().into_iter() }
    }
}

impl<T> Iterator for OrderedStream<T> {
    type Item = Result<T, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(result) = self.ready.next() {
            return Some(result);
        }
        self.ready = (self.next_window)().into_iter();
        self.ready.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Jitter completion times so later items often finish first.
        let stream = OrderedStream::new(4, 0..64usize, |&n| {
            std::thread::sleep(std::time::Duration::from_micros(((64 - n) % 7) as u64 * 50));
            Ok(n * n)
        });
        let squares: Vec<usize> = stream.map(|r| r.unwrap()).collect();
        assert_eq!(squares, (0..64usize).map(|n| n * n).collect::<Vec<_>>());
    }

    #[test]
    fn errors_are_delivered_in_position() {
        let stream = OrderedStream::new(3, 0..10usize, |&n| {
            if n == 5 {
                Err(PipelineError::Config("boom".into()))
            } else {
                Ok(n)
            }
        });
        let results: Vec<Result<usize, PipelineError>> = stream.collect();
        assert_eq!(results.len(), 10);
        assert!(results[5].is_err());
        assert!(results.iter().enumerate().all(|(i, r)| i == 5 || matches!(r, Ok(v) if *v == i)));
    }

    #[test]
    fn a_dead_worker_surfaces_an_error_instead_of_misaligning() {
        // Item 3's job panics; the stream must report an error at position 3
        // and keep every later item in its right slot.
        let stream = OrderedStream::new(2, 0..6usize, |&n| {
            assert_ne!(n, 3, "injected worker death");
            Ok(n * 10)
        });
        let results: Vec<Result<usize, PipelineError>> = stream.collect();
        assert_eq!(results.len(), 6);
        for (i, result) in results.iter().enumerate() {
            if i == 3 {
                assert!(matches!(result, Err(PipelineError::Config(_))), "{result:?}");
            } else {
                assert!(matches!(result, Ok(v) if *v == i * 10), "{i}: {result:?}");
            }
        }
    }

    #[test]
    fn a_death_on_the_last_item_is_reported_not_truncated() {
        // The sole worker's job panics on the final item; the stream must
        // still yield six results, the last one an error.
        let stream = OrderedStream::new(1, 0..6usize, |&n| {
            assert_ne!(n, 5, "injected worker death");
            Ok(n)
        });
        let results: Vec<Result<usize, PipelineError>> = stream.collect();
        assert_eq!(results.len(), 6);
        assert!(results[..5].iter().enumerate().all(|(i, r)| matches!(r, Ok(v) if *v == i)));
        assert!(matches!(&results[5], Err(PipelineError::Config(_))));
    }

    #[test]
    fn dropping_the_stream_early_does_not_hang() {
        let stream = OrderedStream::new(2, 0..1_000_000usize, |&n| Ok(n));
        let first: Vec<usize> = stream.take(3).map(|r| r.unwrap()).collect();
        assert_eq!(first, vec![0, 1, 2]);
        // Only the first window was ever pulled; nothing runs after the
        // drop, so nothing walks the full million items.
    }
}
