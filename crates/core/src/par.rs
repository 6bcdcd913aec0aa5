//! The workspace's one fork-join primitive.
//!
//! [`par_map`] maps a list of work items on scoped threads and returns
//! the results in input order. Every parallel stage uses it: the
//! pipelined library build, the `report` workload, the fleet store warm,
//! the conventional full-flow baseline, and the scheduler's per-window
//! shard loop. No thread outlives the call. The caller picks the thread
//! count, so a caller whose items are cheaper than a thread start passes
//! fewer threads (the scheduler does, for small windows).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The host's available parallelism, or 1 when it cannot be queried.
///
/// The value is read once per process and cached: each query reads
/// cgroup files and costs ~25 µs, and the scheduler asks once per run.
/// A later change of the process's CPU affinity or quota is not seen.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Apply `f` to every item on `min(threads, items)` scoped threads and
/// return the results in input order.
///
/// With one thread or fewer the items are mapped on the calling thread,
/// in order, and nothing is spawned. Otherwise each worker claims the
/// next unclaimed item from a shared atomic cursor, so uneven per-item
/// cost still balances. A panic in `f` reaches the caller, with its own
/// payload, once every worker has stopped.
pub fn par_map<I, R, F>(items: impl IntoIterator<Item = I>, threads: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices. Each item moves
            // through its slot's mutex, and each result through `join`.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break done };
            let item = slot.lock().expect("item lock").take();
            done.push((i, f(item.expect("each item is claimed once"))));
        }
    };
    let mut out: Vec<Option<R>> = slots.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item is mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn results_keep_input_order_under_uneven_item_cost() {
        // Item 0 cannot finish until the last item has, so every other
        // worker's results come back before the first item's.
        let (last_done, wait_for_last) = mpsc::channel();
        let wait_for_last = Mutex::new(wait_for_last);
        let out = par_map(0..24u64, 4, |x| {
            if x == 0 {
                wait_for_last.lock().unwrap().recv().unwrap();
            }
            if x == 23 {
                last_done.send(()).unwrap();
            }
            x * 2
        });
        assert_eq!(out, (0..24).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn exactly_the_requested_threads_run_the_items() {
        // Items 0 and 1 meet at a barrier, so they must run on two
        // different workers at once.
        let both = Barrier::new(2);
        let seen = Mutex::new(HashSet::new());
        par_map(0..64, 2, |x| {
            if x < 2 {
                both.wait();
            }
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(!seen.contains(&std::thread::current().id()));
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<u8> = par_map(Vec::<u8>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn one_thread_maps_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let out = par_map(vec!["a", "b", "c"], 1, |s| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(s);
            s.to_uppercase()
        });
        assert_eq!(out, ["A", "B", "C"]);
        assert_eq!(order.into_inner().unwrap(), ["a", "b", "c"]);
        // Zero threads also runs serially rather than running nothing.
        assert_eq!(par_map(0..3, 0, |x| x + 1), [1, 2, 3]);
    }

    #[test]
    fn items_may_be_mutable_borrows() {
        let mut cells = vec![1, 2, 3, 4, 5];
        par_map(cells.iter_mut(), 3, |c| *c *= 10);
        assert_eq!(cells, [10, 20, 30, 40, 50]);
    }

    #[test]
    fn result_items_collect_to_the_first_error_in_input_order() {
        let out: Result<Vec<u32>, String> = par_map(0..10, 4, |x| {
            if x >= 7 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        })
        .into_iter()
        .collect();
        assert_eq!(out, Err("bad 7".to_string()));
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_panics_the_caller_with_its_payload() {
        par_map(0..8, 2, |x| {
            if x == 5 {
                panic!("item 5 failed");
            }
        });
    }
}
