//! The one ordered worker pool behind every parallel loop in the harness.
//!
//! Suite files, triage clusters and stability targets all fan out the same
//! way: workers claim the next unclaimed index from a shared counter, write
//! the result into that index's own slot, and the caller reads the slots
//! back **in input order** — so the output is identical at every worker
//! count and parallelism stays a pure throughput knob. Each worker may
//! carry lazily-built state (a connection, say) across the items it
//! claims; states are handed back to the caller once the pool drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `work` over `items` on up to `workers` threads (`0` = all cores,
/// never more threads than items) and return the results in input order,
/// plus the state of every worker that built one.
///
/// `work` receives the worker's state slot (`None` until the worker first
/// fills it), the item's index and the item. A worker that never claims an
/// item, or never fills its state, retires nothing.
pub fn map_ordered<T, S, R>(
    items: &[T],
    workers: usize,
    work: impl Fn(&mut Option<S>, usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let workers = effective_workers(workers, items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let retired = Mutex::new(Vec::with_capacity(workers));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = None;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    let result = work(&mut state, index, item);
                    *slots[index].lock().expect("pool slot poisoned") = Some(result);
                }
                if let Some(state) = state {
                    retired.lock().expect("retired list poisoned").push(state);
                }
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("pool slot poisoned").expect("pool filled every slot"))
        .collect();
    (results, retired.into_inner().expect("retired list poisoned"))
}

/// Clamp a requested worker count: `0` means "all cores" (the machine's
/// available parallelism, falling back to 1 when it cannot be queried), and
/// there is never a point in more workers than items — the count is clamped
/// to `max(1, n_items)`, so an empty input still gets one (idle) worker and
/// `workers > items` never spawns threads that could not claim an item.
fn effective_workers(requested: usize, n_items: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, n_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 8] {
            let (results, _) =
                map_ordered(&items, workers, |_: &mut Option<()>, i, x| (i as u64, x * x));
            let want: Vec<(u64, u64)> = items.iter().map(|x| (*x, x * x)).collect();
            assert_eq!(results, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_state_is_lazy_and_retired() {
        let items: Vec<u32> = (0..20).collect();
        for workers in [1, 2, 8] {
            let (results, states) =
                map_ordered(&items, workers, |state: &mut Option<Vec<u32>>, _, x| {
                    state.get_or_insert_with(Vec::new).push(*x);
                    *x
                });
            assert_eq!(results, items);
            // Every item landed in exactly one retired state.
            let mut seen: Vec<u32> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, items, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_runs_nothing() {
        let (results, states) = map_ordered(&[] as &[u8], 4, |state: &mut Option<()>, _, _| {
            *state = Some(());
        });
        assert!(results.is_empty());
        assert!(states.is_empty(), "an idle worker retires no state");
    }

    #[test]
    fn more_workers_than_items() {
        let items = ["a", "b", "c"];
        let (results, states) = map_ordered(&items, 16, |state: &mut Option<usize>, i, s| {
            *state.get_or_insert(0) += 1;
            format!("{i}{s}")
        });
        assert_eq!(results, ["0a", "1b", "2c"]);
        // At most one worker per item, each retiring the count it ran.
        assert!((1..=3).contains(&states.len()), "{states:?}");
        assert_eq!(states.iter().sum::<usize>(), 3);
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(8, 0), 1);
        assert!(effective_workers(0, 64) >= 1);
    }

    #[test]
    fn effective_workers_edge_cases() {
        // 0 items: every request resolves to exactly one (idle) worker,
        // including the "all cores" request.
        assert_eq!(effective_workers(0, 0), 1);
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(usize::MAX, 0), 1);
        // workers > items: clamped to the item count.
        assert_eq!(effective_workers(100, 3), 3);
        assert_eq!(effective_workers(2, 1), 1);
        // "all cores" never exceeds the item count either.
        let auto = effective_workers(0, 2);
        assert!((1..=2).contains(&auto), "auto workers {auto} not clamped to 2 items");
    }
}
