//! The allocation meter's counters are process-global, so its test is
//! the only test in this binary: no other test thread can allocate,
//! free or rebase the peak while it measures.

use guess_bench::alloc_meter::{peak_bytes, reset_peak};

#[test]
fn peak_tracks_a_large_allocation() {
    reset_peak();
    let before = peak_bytes();
    let buf = vec![0u8; 1 << 20];
    assert!(
        peak_bytes() >= before + (1 << 20),
        "1 MiB allocation must raise the peak"
    );
    drop(buf);
    let high = peak_bytes();
    reset_peak();
    assert!(
        peak_bytes() <= high,
        "reset rebases the peak to the (lower) current level"
    );
}
