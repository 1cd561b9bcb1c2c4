//! The pipeline's one fan-out: indexed jobs (tiles, bricks, batch images,
//! streaming windows) on scoped worker threads.

use crate::PipelineError;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
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

/// Runs `job`, turning a panic into a typed [`PipelineError::Config`] so it
/// fails the one job instead of unwinding into the caller.
pub(crate) fn guarded<Out, Err: Into<PipelineError>>(
    job: impl FnOnce() -> Result<Out, Err>,
) -> Result<Out, PipelineError> {
    match panic::catch_unwind(AssertUnwindSafe(job)) {
        Ok(result) => result.map_err(Into::into),
        Err(payload) => Err(PipelineError::Config(format!(
            "a pipeline job panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(message), _) => message,
        (_, Some(message)) => message,
        _ => "no message",
    }
}

/// Runs `job(0..count)` across `workers` scoped threads with dynamic work
/// stealing and returns the outputs in index order. Every parallel engine
/// fans out through it: [`crate::Plan::execute`] — the encode and decode
/// plans of [`crate::TiledCompressor`], [`crate::TiledFixedCompressor`] and
/// [`crate::VolumeCompressor`], whose jobs run a part and place it — the
/// images of [`crate::BatchCompressor::compress_batch`] (whose jobs fail with
/// different error types, hence the generic `Err`), and each window of the
/// streaming iterators ([`crate::OrderedStream`]). Every job runs under
/// [`guarded`], so a panicking job fails the run like an erroring one.
pub(crate) fn run_indexed<Out, Err, Job>(
    workers: usize,
    count: usize,
    job: Job,
) -> Result<Vec<Out>, PipelineError>
where
    Out: Send,
    Err: Into<PipelineError>,
    Job: Fn(usize) -> Result<Out, Err> + Sync,
{
    let workers = workers.min(count).max(1);
    if workers == 1 {
        return (0..count).map(|i| guarded(|| job(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Out>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<PipelineError>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    return;
                }
                match guarded(|| job(index)) {
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
        return Err(error);
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
