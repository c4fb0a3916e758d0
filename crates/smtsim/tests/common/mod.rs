//! Random kernels and core shapes shared by the property tests.

use vds_smtsim::core::CoreConfig;
use vds_smtsim::kernels::{self, Kernel};

/// One of the six suite kernels, sized by `size`.
pub fn kernel_for(idx: u64, size: u64, rounds: u32) -> Kernel {
    let n = 16 + (size % 64) as u32;
    match idx % 6 {
        0 => kernels::vecsum(n, rounds),
        1 => kernels::crc(n, rounds),
        2 => kernels::matmul(3 + (size % 5) as u32, rounds),
        3 => {
            // pchase rejects lengths divisible by 7 (its stride trick).
            let mut len = 64 + (size % 128) as u32;
            if len.is_multiple_of(7) {
                len += 1;
            }
            kernels::pchase(len, n, rounds)
        }
        4 => kernels::bsort(4 + (size % 12) as u32, rounds),
        _ => kernels::control(n, rounds),
    }
}

/// The default core with issue width, ALU count and memory latency
/// varied.
pub fn cfg_for(width: u64, latency: u64) -> CoreConfig {
    let mut cfg = CoreConfig::default();
    cfg.issue_width = 1 + (width % 4) as usize;
    cfg.num_alu = cfg.issue_width.max(2);
    cfg.mem_latency = 5 + (latency % 30) as u32;
    cfg
}
