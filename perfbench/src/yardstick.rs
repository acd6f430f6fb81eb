//! The reference loop the timed calls are scaled by.
//!
//! On a small VM of a shared machine, a single-threaded call runs up to
//! twice as slow from one second to the next, and its median over a run
//! moves by a tenth or more from one run to the next, with no steal time:
//! neighbours contend for the physical cores, their caches and memory.
//! [`Reading::take`] times a fixed loop (dependent loads from a 256 KiB
//! table, which stays in the core's private caches as the program's hot
//! data does, and one `exp` per load) that is benchmark code, independent
//! of the program. Timed right before a call, it says how fast the host is
//! at that moment, and [`Reading::scale`] turns the call's wall time into
//! the time it would take on a host where the loop takes [`NOMINAL_SECS`].
//! A serving session, whose client, shard workers and merger keep both
//! vCPUs busy, is scaled by the loop run on two threads at once, which
//! reads the speed of both. A change to the program moves the call and not the
//! loop; a change of host speed moves both.

use std::sync::OnceLock;
use std::time::Instant;

/// The loop's time the scaled call times refer to, on one thread and on
/// two threads at once: its median on a 2.1 GHz Xeon 2-vCPU VM of a shared
/// machine.
pub const NOMINAL_SECS: [f64; 2] = [0.030, 0.038];

/// Entries in the loop's table (256 KiB of `u32`).
const TABLE: usize = 1 << 16;
/// Dependent loads per loop.
const STEPS: u32 = 4_000_000;

/// The loop's table, filled once by a fixed xorshift sequence.
fn table() -> &'static [u32] {
    static TABLE_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE_CELL.get_or_init(|| {
        let mut x = 0x9E37_79B9_u32;
        (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect()
    })
}

/// Runs the reference loop once on the calling thread.
fn run_loop(table: &[u32]) {
    let mask = (TABLE - 1) as u32;
    let (mut i, mut acc) = (1_u32, 0.0_f64);
    for step in 0..STEPS {
        i = table[(i & mask) as usize] ^ step;
        acc += (f64::from(i & 1023) * 1e-3).exp();
    }
    std::hint::black_box(acc);
}

/// One timing of the reference loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Threads the loop ran on at once: 1 for a single-threaded call, 2
    /// for a call that keeps both vCPUs busy (serving).
    pub threads: usize,
    /// Wall time until every thread finished the loop.
    pub secs: f64,
}

impl Reading {
    /// Times the loop on `threads` threads at once (1 or 2).
    ///
    /// # Panics
    ///
    /// Panics on another thread count.
    pub fn take(threads: usize) -> Reading {
        assert!(
            (1..=NOMINAL_SECS.len()).contains(&threads),
            "the loop runs on 1 or 2 threads"
        );
        let table = table();
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(|| run_loop(table));
            }
            run_loop(table);
        });
        Reading {
            threads,
            secs: start.elapsed().as_secs_f64(),
        }
    }

    /// `secs`, measured right after this reading, at the nominal host
    /// speed.
    pub fn scale(&self, secs: f64) -> f64 {
        secs * NOMINAL_SECS[self.threads - 1] / self.secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_down_and_a_fast_one_up() {
        for threads in [1, 2] {
            let nominal = NOMINAL_SECS[threads - 1];
            let at = |secs| Reading { threads, secs };
            assert_eq!(at(2.0 * nominal).scale(1.0), 0.5);
            assert_eq!(at(nominal / 4.0).scale(1.0), 4.0);
            assert_eq!(at(nominal).scale(0.3), 0.3);
        }
    }

    #[test]
    fn the_loop_takes_time_on_each_thread_count() {
        for threads in [1, 2] {
            let r = Reading::take(threads);
            assert_eq!(r.threads, threads);
            assert!(r.secs.is_finite() && r.secs > 0.0, "{r:?}");
        }
    }
}
