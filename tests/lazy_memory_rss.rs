//! Booting a machine commits host memory for its inverted page tables
//! and nothing else. Alone in its own integration target because the
//! process-wide resident-set high-water mark is what is asserted.
#![cfg(target_os = "linux")]

use platinum_repro::machine::{Machine, MachineConfig};

/// The process's peak resident set so far, in MB (Linux `VmHWM`).
fn vm_hwm_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).unwrap();
    let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb / 1024
}

#[test]
fn booting_16_gb_nominal_stays_under_64_mb_resident() {
    let m = Machine::new(MachineConfig {
        nodes: 4,
        frames_per_node: 1 << 20,
        ..MachineConfig::default()
    })
    .unwrap();
    assert_eq!(m.frames_materialized(), 0);
    // 4 Mi inverted-page-table entries of 8 bytes are 32 MB of it.
    let hwm = vm_hwm_mb();
    assert!(hwm < 64, "peak resident set {hwm} MB after boot");
}
