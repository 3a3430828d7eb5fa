//! Synthetic traffic generators.
//!
//! Three classic access patterns, each parameterised by a read fraction and
//! generated deterministically from a seed:
//!
//! * [`Workload::Uniform`] — every cell equally likely; the stress case for
//!   bit-to-bit variation because every read lands on a *different* device.
//! * [`Workload::Zipf`] — a hot-set pattern (rank-`k` cell visited with
//!   probability ∝ `1/k^theta`), the shape of metadata and key-value
//!   traffic on the handheld devices the paper's introduction targets.
//! * [`Workload::ReadMostly`] — 95 % reads over a uniform footprint, the
//!   regime where read latency/energy (the paper's Table III axis)
//!   dominates the traffic cost.

use rand::rngs::StdRng;
use rand::Rng;
use stt_array::Address;

use crate::hierarchy::{Geometry, InterleavePolicy};
use crate::txn::{Trace, Transaction};

/// Cap on the Zipf rank table used by [`Workload::generate_physical`]. The
/// flat-footprint generator precomputes one cumulative weight per cell,
/// which is fine for a handful of 16 kb banks but impossible for a chip
/// whose addressable space is multi-GB (the whole point of lazy bank
/// materialisation). Capping the table keeps generation O(min(cells, 64k));
/// ranks are then spread over the full space by a fixed stride, so the hot
/// set still exercises every level of the hierarchy.
const MAX_ZIPF_RANKS: usize = 1 << 16;

/// The shape of the address space a workload targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Number of banks.
    pub banks: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Columns per bank.
    pub cols: usize,
}

impl Footprint {
    /// Total cells across all banks.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.banks * self.rows * self.cols
    }

    /// Maps a flat cell index to `(bank, addr)`, bank-major.
    #[must_use]
    fn locate(&self, index: usize) -> (usize, Address) {
        let per_bank = self.rows * self.cols;
        let bank = index / per_bank;
        let offset = index % per_bank;
        (bank, Address::new(offset / self.cols, offset % self.cols))
    }
}

/// A synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Uniformly random cells, `read_fraction` of transactions are reads.
    Uniform {
        /// Fraction of transactions that are reads (`0.0..=1.0`).
        read_fraction: f64,
    },
    /// Zipf-distributed cell popularity with exponent `theta`.
    Zipf {
        /// Skew exponent; `0.0` degenerates to uniform, `~1.0` is the
        /// classic heavy-hitter web/metadata shape.
        theta: f64,
        /// Fraction of transactions that are reads (`0.0..=1.0`).
        read_fraction: f64,
    },
    /// 95 % reads over a uniform footprint.
    ReadMostly,
}

impl Workload {
    /// The three patterns swept by the traffic harness.
    pub const ALL: [Workload; 3] = [
        Workload::Uniform { read_fraction: 0.5 },
        Workload::Zipf {
            theta: 0.99,
            read_fraction: 0.8,
        },
        Workload::ReadMostly,
    ];

    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Uniform { .. } => "uniform",
            Workload::Zipf { .. } => "zipf",
            Workload::ReadMostly => "read-mostly",
        }
    }

    /// The workload's read fraction.
    #[must_use]
    pub fn read_fraction(&self) -> f64 {
        match self {
            Workload::Uniform { read_fraction } | Workload::Zipf { read_fraction, .. } => {
                *read_fraction
            }
            Workload::ReadMostly => 0.95,
        }
    }

    /// Generates `count` transactions over `footprint`, deterministically
    /// under the caller's RNG.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is empty or the read fraction is outside
    /// `0.0..=1.0`.
    pub fn generate(&self, footprint: Footprint, count: usize, rng: &mut StdRng) -> Trace {
        assert!(
            footprint.cells() > 0,
            "workload needs a non-empty footprint"
        );
        let read_fraction = self.read_fraction();
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction {read_fraction} outside [0, 1]"
        );
        let picker = CellPicker::new(self, footprint.cells());
        let mut trace = Trace::new();
        for _ in 0..count {
            let (bank, addr) = footprint.locate(picker.pick(rng));
            let txn = if rng.gen_bool(read_fraction) {
                Transaction::read(bank, addr)
            } else {
                Transaction::write(bank, addr, rng.gen_bool(0.5))
            };
            trace.push(txn);
        }
        trace
    }

    /// Generates `count` transactions over a full-chip [`Geometry`]: the
    /// workload draws *linear host addresses* under its popularity law and
    /// `interleave` maps each onto a physical `(bank, cell)`, so the same
    /// traffic stream lands differently under different interleaving
    /// policies — which is exactly the comparison the topology sweep makes.
    /// Transactions carry **global bank indices**
    /// ([`Topology::flatten`](crate::hierarchy::Topology::flatten)), ready
    /// for [`Chip::run_trace`](crate::hierarchy::Chip::run_trace).
    ///
    /// Zipf workloads sample a rank table capped at 64 k entries (strided
    /// over the full space), so generation stays cheap even when the
    /// geometry addresses gigabits.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is empty or the read fraction is outside
    /// `0.0..=1.0`.
    pub fn generate_physical(
        &self,
        geometry: &Geometry,
        interleave: InterleavePolicy,
        count: usize,
        rng: &mut StdRng,
    ) -> Trace {
        let cells = geometry.cells();
        assert!(cells > 0, "workload needs a non-empty geometry");
        let read_fraction = self.read_fraction();
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction {read_fraction} outside [0, 1]"
        );
        let (sampled, scale) = match self {
            Workload::Zipf { .. } => {
                let capped = cells.min(MAX_ZIPF_RANKS);
                (capped, cells / capped)
            }
            Workload::Uniform { .. } | Workload::ReadMostly => (cells, 1),
        };
        let picker = CellPicker::new(self, sampled);
        let mut trace = Trace::new();
        for _ in 0..count {
            let linear = picker.pick(rng) * scale;
            let phys = interleave.decode(geometry, linear);
            let bank = geometry.topology.flatten(phys.coord);
            let txn = if rng.gen_bool(read_fraction) {
                Transaction::read(bank, phys.addr)
            } else {
                Transaction::write(bank, phys.addr, rng.gen_bool(0.5))
            };
            trace.push(txn);
        }
        trace
    }
}

/// Samples flat cell indices under a workload's popularity law.
enum CellPicker {
    Uniform {
        cells: usize,
    },
    /// Inverse-CDF sampling over precomputed cumulative Zipf weights;
    /// rank `k` (0-based) carries weight `1/(k+1)^theta`. Ranks are mapped
    /// to cells by a fixed stride so the hot set spreads across banks
    /// instead of piling into bank 0.
    Zipf {
        cumulative: Vec<f64>,
        stride: usize,
        cells: usize,
    },
}

impl CellPicker {
    fn new(workload: &Workload, cells: usize) -> Self {
        match *workload {
            Workload::Uniform { .. } | Workload::ReadMostly => CellPicker::Uniform { cells },
            Workload::Zipf { theta, .. } => {
                let mut cumulative = Vec::with_capacity(cells);
                let mut total = 0.0;
                for rank in 0..cells {
                    total += 1.0 / ((rank + 1) as f64).powf(theta);
                    cumulative.push(total);
                }
                // A stride coprime with the cell count scatters ranks over
                // the flat index space (and thus over banks).
                let mut stride = (cells / 3) | 1;
                while gcd(stride, cells) != 1 {
                    stride += 2;
                }
                CellPicker::Zipf {
                    cumulative,
                    stride,
                    cells,
                }
            }
        }
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        match self {
            CellPicker::Uniform { cells } => rng.gen_range(0..*cells),
            CellPicker::Zipf {
                cumulative,
                stride,
                cells,
            } => {
                let total = *cumulative.last().expect("non-empty footprint");
                let target = rng.gen::<f64>() * total;
                let rank = cumulative.partition_point(|&c| c < target).min(cells - 1);
                (rank * stride) % cells
            }
        }
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const FOOTPRINT: Footprint = Footprint {
        banks: 4,
        rows: 8,
        cols: 8,
    };

    #[test]
    fn generation_is_deterministic() {
        for workload in Workload::ALL {
            let a = workload.generate(FOOTPRINT, 500, &mut StdRng::seed_from_u64(7));
            let b = workload.generate(FOOTPRINT, 500, &mut StdRng::seed_from_u64(7));
            assert_eq!(a, b, "{}", workload.name());
        }
    }

    #[test]
    fn read_fractions_are_respected() {
        for workload in Workload::ALL {
            let trace = workload.generate(FOOTPRINT, 4000, &mut StdRng::seed_from_u64(3));
            let observed = trace.reads() as f64 / trace.len() as f64;
            let expected = workload.read_fraction();
            assert!(
                (observed - expected).abs() < 0.05,
                "{}: observed read fraction {observed}, expected {expected}",
                workload.name()
            );
        }
    }

    #[test]
    fn addresses_stay_in_range() {
        for workload in Workload::ALL {
            let trace = workload.generate(FOOTPRINT, 2000, &mut StdRng::seed_from_u64(11));
            for txn in trace.transactions() {
                assert!(txn.bank < FOOTPRINT.banks);
                assert!(txn.addr.row < FOOTPRINT.rows);
                assert!(txn.addr.col < FOOTPRINT.cols);
            }
        }
    }

    #[test]
    fn zipf_concentrates_traffic() {
        let zipf = Workload::Zipf {
            theta: 1.2,
            read_fraction: 1.0,
        };
        let uniform = Workload::Uniform { read_fraction: 1.0 };
        let count_distinct = |workload: &Workload| {
            let trace = workload.generate(FOOTPRINT, 2000, &mut StdRng::seed_from_u64(5));
            let mut seen = std::collections::HashSet::new();
            for txn in trace.transactions() {
                seen.insert((txn.bank, txn.addr.row, txn.addr.col));
            }
            seen.len()
        };
        assert!(
            count_distinct(&zipf) < count_distinct(&uniform),
            "a skewed law must touch fewer distinct cells"
        );
    }

    #[test]
    fn physical_generation_is_deterministic_and_in_range() {
        use crate::hierarchy::Topology;
        let geometry = Geometry::new(Topology::new(2, 1, 2, 2), 8, 8);
        for workload in Workload::ALL {
            for policy in InterleavePolicy::ALL {
                let make = || {
                    workload.generate_physical(
                        &geometry,
                        policy,
                        500,
                        &mut StdRng::seed_from_u64(13),
                    )
                };
                let trace = make();
                assert_eq!(trace, make(), "{} / {}", workload.name(), policy.name());
                for txn in trace.transactions() {
                    assert!(txn.bank < geometry.topology.total_banks());
                    assert!(txn.addr.row < geometry.rows && txn.addr.col < geometry.cols);
                }
            }
        }
    }

    #[test]
    fn physical_zipf_caps_its_rank_table_over_huge_geometries() {
        use crate::hierarchy::Topology;
        // 8 Gb addressable; an uncapped cumulative table would OOM.
        let geometry = Geometry::new(Topology::new(4, 2, 4, 8), 4096, 8192);
        let zipf = Workload::Zipf {
            theta: 0.99,
            read_fraction: 1.0,
        };
        let trace = zipf.generate_physical(
            &geometry,
            InterleavePolicy::ChannelStriped,
            200,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(trace.len(), 200);
        let mut banks = std::collections::HashSet::new();
        for txn in trace.transactions() {
            assert!(txn.bank < geometry.topology.total_banks());
            banks.insert(txn.bank);
        }
        assert!(
            banks.len() < geometry.topology.total_banks(),
            "a hot set should not need every one of {} banks",
            geometry.topology.total_banks()
        );
    }

    #[test]
    fn zipf_traffic_reaches_every_bank() {
        let zipf = Workload::Zipf {
            theta: 0.99,
            read_fraction: 1.0,
        };
        let trace = zipf.generate(FOOTPRINT, 2000, &mut StdRng::seed_from_u64(9));
        let mut banks_hit = [false; FOOTPRINT.banks];
        for txn in trace.transactions() {
            banks_hit[txn.bank] = true;
        }
        assert!(
            banks_hit.iter().all(|&hit| hit),
            "hot set piled into few banks"
        );
    }
}
