//! The pipeline's one fan-out: indexed jobs (tiles, bricks, batch images)
//! on scoped worker threads.

use crate::PipelineError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// The worker count an engine runs with: `0` selects the machine's available
/// parallelism, anything else is taken as given. Every engine constructor
/// resolves its `workers` argument here.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        workers
    }
}

/// Runs `job(0..count)` across `workers` scoped threads with dynamic work
/// stealing and returns the outputs in index order. Every parallel engine
/// fans out through it: [`crate::Plan::execute`] — the encode and decode
/// plans of [`crate::TiledCompressor`], [`crate::TiledFixedCompressor`] and
/// [`crate::VolumeCompressor`], whose jobs run a part and place it — and the
/// images of [`crate::BatchCompressor::compress_batch`] (whose jobs fail with
/// different error types, hence the generic `Err`).
pub(crate) fn run_indexed<Out, Err, Job>(
    workers: usize,
    count: usize,
    job: Job,
) -> Result<Vec<Out>, PipelineError>
where
    Out: Send,
    Err: Into<PipelineError> + Send,
    Job: Fn(usize) -> Result<Out, Err> + Sync,
{
    let workers = workers.min(count).max(1);
    if workers == 1 {
        return (0..count).map(|i| job(i).map_err(Into::into)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Out>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<Err>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    return;
                }
                match job(index) {
                    Ok(output) => *slots[index].lock().expect("slot poisoned") = Some(output),
                    Err(error) => {
                        failure.lock().expect("failure poisoned").get_or_insert(error);
                        // Drain the remaining work: the run is doomed.
                        cursor.store(count, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });
    if let Some(error) = failure.into_inner().expect("failure poisoned") {
        return Err(error.into());
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("slot poisoned").ok_or_else(|| {
                PipelineError::Config("parallel worker abandoned a work item".into())
            })
        })
        .collect()
}
