//! Crate-internal scoped-thread partitioning shared by the batch k-NN
//! drivers and the parallel embedder.

use std::sync::OnceLock;

/// The machine's core count, read once per process: the read is a system
/// call and tens of microseconds on some hosts.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Split `0..n` into `workers` contiguous chunks, run `work` on each
/// chunk in a `std::thread::scope` worker, and reassemble the per-chunk
/// outputs in input order (so parallelism never changes results, only
/// wall-clock time). `workers <= 1` (or `n <= 1`) runs inline.
pub(crate) fn partition_chunks<T, F>(n: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return work(0..n);
    }
    let chunk = n.div_ceil(workers);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let work = &work;
                let start = (w * chunk).min(n);
                let end = ((w + 1) * chunk).min(n);
                scope.spawn(move || work(start..end))
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("partitioned worker panicked")); // lint: allow(no-unwrap)
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_worker_count() {
        for n in [0usize, 1, 5, 16, 33] {
            for workers in [1usize, 2, 3, 7, 40] {
                let out = partition_chunks(n, workers, |range| {
                    range.map(|i| i * 10).collect::<Vec<_>>()
                });
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }
}
