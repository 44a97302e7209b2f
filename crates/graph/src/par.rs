//! Fork-join helpers shared by the ingestion pipeline: the edge-list
//! parse, the CSR build and the ordered graph.

use std::ops::Range;

/// Adjacency entries below which CSR and ordered-graph work runs on one
/// thread: about a tenth of a millisecond of it, where a second thread no
/// longer pays for its start.
pub(crate) const PARALLEL_FLOOR: usize = 1 << 16;

/// Whether work over `entries` adjacency entries is split into two halves
/// on two threads: at or above [`PARALLEL_FLOOR`], with a second core.
pub(crate) fn split_in_two(entries: usize) -> bool {
    entries >= PARALLEL_FLOOR && std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2)
}

/// The vertices `0..n` as one range, or as `0..mid` and `mid..n` when
/// `two`.
pub(crate) fn halves(n: usize, mid: usize, two: bool) -> Vec<Range<usize>> {
    if two {
        vec![0..mid, mid..n]
    } else {
        std::iter::once(0..n).collect()
    }
}

/// `f` of every item, in order: the first on this thread, the rest on
/// scoped threads. A panic in any of them is resumed here.
pub(crate) fn map_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        std::iter::once(f(first))
            .chain(
                rest.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    })
}

/// Splits the front of `data` into consecutive disjoint slices of the
/// given lengths.
pub(crate) fn split_lengths<T>(
    mut data: &mut [T],
    lengths: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    lengths
        .into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(len);
            data = tail;
            head
        })
        .collect()
}
