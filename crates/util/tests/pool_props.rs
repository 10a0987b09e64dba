//! Property checks for the deterministic thread pool: output ordering,
//! thread-count invariance, panic propagation, and the degenerate inputs
//! (empty, single item) — across arbitrary input lengths and worker
//! counts, so every chunking configuration the static scheme can produce
//! gets exercised.

use iotlan_util::pool;

iotlan_util::props! {
    /// Output order equals input order for any (length, thread count).
    fn par_map_preserves_input_order(g) {
        let n = g.len(400);
        let threads = g.int_in(1..=9usize);
        let items: Vec<u64> = (0..n as u64).collect();
        let out = pool::with_threads(threads, || {
            pool::par_map(&items, |index, item| (index as u64, item.wrapping_mul(3)))
        });
        assert_eq!(out.len(), n);
        for (index, (echoed, tripled)) in out.iter().enumerate() {
            assert_eq!(*echoed, index as u64);
            assert_eq!(*tripled, (index as u64).wrapping_mul(3));
        }
    }

    /// par_map_range output is identical at 1 thread and at N threads.
    fn par_map_range_thread_count_invariant(g) {
        let n = g.len(300);
        let threads = g.int_in(2..=8usize);
        let salt = g.u64();
        let run = |t: usize| {
            pool::with_threads(t, || {
                pool::par_map_range(n, |i| {
                    let mut s = salt ^ i as u64;
                    iotlan_util::rng::splitmix64(&mut s)
                })
            })
        };
        assert_eq!(run(1), run(threads));
    }

    /// A panic in any worker propagates to the caller, at any position and
    /// thread count.
    fn worker_panic_propagates(g) {
        let n = 1 + g.len(200);
        let threads = g.int_in(1..=8usize);
        let panic_at = g.int_in(0..n);
        let result = std::panic::catch_unwind(|| {
            pool::with_threads(threads, || {
                pool::par_map_range(n, |i| {
                    if i == panic_at {
                        panic!("injected failure at {i}");
                    }
                    i
                })
            })
        });
        assert!(result.is_err(), "panic at {panic_at}/{n} was swallowed");
    }

    /// Empty and single-item inputs short-circuit correctly.
    fn degenerate_inputs(g) {
        let threads = g.int_in(1..=8usize);
        pool::with_threads(threads, || {
            let empty: Vec<u8> = Vec::new();
            assert!(pool::par_map(&empty, |_, v| *v).is_empty());
            assert!(pool::par_map_range(0, |i| i).is_empty());
            assert_eq!(pool::par_map(&[41u8], |i, v| *v as usize + i), vec![41]);
        });
    }
}
