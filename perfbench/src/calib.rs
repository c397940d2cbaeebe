//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! The benchmark's host shares its cores and caches with other tenants,
//! whose load slows everything on it by up to a third for minutes at a
//! time.  [`reference_s`] runs the same small discrete-event loop every time
//! — a binary-heap event queue, a scattered table of heap-allocated job
//! blocks, allocation and freeing, branches on random bits and a little
//! floating point, the simulator's mix — and returns its wall time.  Timed
//! next to each trial, it slows down with the trial, so a trial's wall time
//! over the kernel's is a cost in units that hold still while the host's
//! speed moves.  The kernel is
//! part of the benchmark, not of the code under test: nothing a change to
//! the simulator does can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Job-table slots: about 1 MB of scattered blocks, like the engine's
/// resident jobs and their DAGs, yet below every workload's own heap, so the
/// kernel does not raise the process's peak resident set.
const SLOTS: usize = 1 << 13;
/// Events kept in flight.
const IN_FLIGHT: usize = 2048;
/// Events one kernel call processes (about ten milliseconds).
const STEPS: usize = 60_000;

fn next(state: &mut u64) -> u64 {
    // xorshift64*
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Runs the kernel once and returns a checksum of its work.
pub fn kernel() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut table: Vec<Vec<u32>> = vec![Vec::new(); SLOTS];
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(2 * IN_FLIGHT);
    for _ in 0..IN_FLIGHT {
        let r = next(&mut rng);
        queue.push(Reverse((r >> 40, (r as u32) % SLOTS as u32)));
    }
    let mut checksum = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse((now, slot))) = queue.pop() else {
            break;
        };
        let r = next(&mut rng);
        let block = &mut table[slot as usize];
        if block.is_empty() {
            // Arrival: allocate and fill a job block.
            let len = 4 + (r % 61) as usize;
            block.extend((0..len as u32).map(|i| i.wrapping_mul(r as u32)));
        } else if r & 3 == 0 {
            // Completion: free the block.
            checksum = checksum.wrapping_add(block.len() as u64);
            *block = Vec::new();
        } else {
            // Progress: scan and update the block.
            let sum = block.iter().fold(0u32, |a, &x| a.wrapping_add(x));
            let i = (r >> 8) as usize % block.len();
            block[i] = sum ^ (r as u32);
            checksum = checksum.wrapping_add(sum as u64);
        }
        // Exponential delay to the slot's next event.
        let u = ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let delay = (-u.ln() * 1000.0) as u64 + 1;
        let target = ((r >> 20) as u32) % SLOTS as u32;
        queue.push(Reverse((now + delay, target)));
    }
    checksum
}

/// Host seconds one [`kernel`] call takes on the baseline host (see
/// `README.md`) when no other tenant loads it.  Calibrated seconds are
/// host seconds rescaled to that speed.
pub const NOMINAL_S: f64 = 0.009;

/// Host seconds of the faster of two [`kernel`] calls: the slower one has
/// usually caught an interrupt or a page fault, not a slower host.
pub fn reference_s() -> f64 {
    (0..2)
        .map(|_| {
            let started = Instant::now();
            black_box(kernel());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}
