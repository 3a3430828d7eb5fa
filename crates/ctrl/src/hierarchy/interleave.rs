//! Address interleaving: how a linear host address maps onto the hierarchy.
//!
//! A controller advertises one flat address space (`0..geometry.cells()`);
//! an [`InterleavePolicy`] decides which physical cell each linear address
//! lands on. The mapping is the lever that trades locality against
//! parallelism: consecutive addresses can stay inside one bank (maximal
//! row locality, zero bank parallelism) or stripe across channels (maximal
//! parallelism, every access a different bus). Every policy must be a
//! **bijection** — `decode ∘ encode = identity` and no two linear addresses
//! alias the same cell — which the integration suite property-tests over
//! random geometries.

use serde::{Deserialize, Serialize};
use stt_array::Address;

use super::topology::{Geometry, PhysAddr};

/// The interleaving policies: bijective mappings between linear addresses
/// and physical locations.
///
/// Every policy satisfies, for every `geometry` and every
/// `linear < geometry.cells()`:
///
/// * `encode(geometry, decode(geometry, linear)) == linear`;
/// * `decode` never yields the same [`PhysAddr`] for two distinct linear
///   addresses (which follows from the first law plus range preservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterleavePolicy {
    /// Bank-major filling: linear address `a` lives in global bank
    /// `a / cells_per_bank` at row-major offset `a % cells_per_bank`.
    /// Sequential traffic hammers a single bank and its group bus.
    Linear,
    /// Row-XOR-bank swizzle within each channel. The linear address
    /// decomposes exactly like [`Linear`](Self::Linear), but the serving
    /// bank *within the channel* is permuted by the row index: for a
    /// power-of-two per-channel bank count the permutation is the textbook
    /// `bank ^ (row & (n-1))` XOR swizzle; otherwise it falls back to the
    /// additive rotation `(bank + row) mod n`, which is equally bijective
    /// for any `n`. Either way, row-sequential streams that `Linear` would
    /// pin to one bank rotate across the channel's whole bank pool.
    BankXor,
    /// Cell-granular channel striping: consecutive linear addresses rotate
    /// through the channels, then fill each channel bank-major. Even a
    /// small hot set recruits every channel — and therefore every worker
    /// shard.
    ChannelStriped,
}

impl InterleavePolicy {
    /// Every shipped policy, in sweep order.
    pub const ALL: [InterleavePolicy; 3] = [
        InterleavePolicy::Linear,
        InterleavePolicy::BankXor,
        InterleavePolicy::ChannelStriped,
    ];

    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InterleavePolicy::Linear => "linear",
            InterleavePolicy::BankXor => "bank-xor",
            InterleavePolicy::ChannelStriped => "channel-striped",
        }
    }

    /// Maps a linear address to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `linear >= geometry.cells()`.
    #[must_use]
    pub fn decode(self, geometry: &Geometry, linear: usize) -> PhysAddr {
        assert!(
            linear < geometry.cells(),
            "linear address {linear} outside geometry ({} cells)",
            geometry.cells()
        );
        let per_bank = geometry.cells_per_bank();
        let per_channel = geometry.topology.banks_per_channel();
        let (flat, offset) = match self {
            InterleavePolicy::Linear => (linear / per_bank, linear % per_bank),
            InterleavePolicy::BankXor => {
                let (flat, offset) = (linear / per_bank, linear % per_bank);
                let channel = flat / per_channel;
                let local = swizzle(per_channel, flat % per_channel, offset / geometry.cols);
                (channel * per_channel + local, offset)
            }
            InterleavePolicy::ChannelStriped => {
                let channels = geometry.topology.channels;
                let within = linear / channels;
                let local_bank = within / per_bank;
                (
                    (linear % channels) * per_channel + local_bank,
                    within % per_bank,
                )
            }
        };
        PhysAddr {
            coord: geometry.topology.coord(flat),
            addr: Address::new(offset / geometry.cols, offset % geometry.cols),
        }
    }

    /// Maps a physical location back to its linear address.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is outside the geometry.
    #[must_use]
    pub fn encode(self, geometry: &Geometry, phys: PhysAddr) -> usize {
        let per_channel = geometry.topology.banks_per_channel();
        let flat = geometry.topology.flatten(phys.coord);
        let (channel, local) = (flat / per_channel, flat % per_channel);
        match self {
            InterleavePolicy::Linear => join_bank_major(geometry, flat, phys.addr),
            InterleavePolicy::BankXor => {
                let local = unswizzle(per_channel, local, phys.addr.row);
                join_bank_major(geometry, channel * per_channel + local, phys.addr)
            }
            InterleavePolicy::ChannelStriped => {
                join_bank_major(geometry, local, phys.addr) * geometry.topology.channels + channel
            }
        }
    }
}

/// Joins `(global flat bank, row, col)` back into a bank-major linear
/// address.
fn join_bank_major(geometry: &Geometry, flat: usize, addr: Address) -> usize {
    assert!(
        addr.row < geometry.rows && addr.col < geometry.cols,
        "address {addr:?} outside the {}x{} bank array",
        geometry.rows,
        geometry.cols
    );
    flat * geometry.cells_per_bank() + addr.row * geometry.cols + addr.col
}

/// [`InterleavePolicy::BankXor`]'s permutation of a channel-local bank
/// index by `row`.
fn swizzle(per_channel: usize, local_bank: usize, row: usize) -> usize {
    if per_channel.is_power_of_two() {
        local_bank ^ (row & (per_channel - 1))
    } else {
        (local_bank + row) % per_channel
    }
}

/// The inverse of [`swizzle`].
fn unswizzle(per_channel: usize, swizzled: usize, row: usize) -> usize {
    if per_channel.is_power_of_two() {
        // XOR is an involution.
        swizzled ^ (row & (per_channel - 1))
    } else {
        (swizzled + per_channel - row % per_channel) % per_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Topology;

    fn geometries() -> Vec<Geometry> {
        vec![
            Geometry::new(Topology::new(2, 1, 2, 2), 8, 8),
            Geometry::new(Topology::new(3, 2, 3, 5), 4, 8), // nothing power-of-two
            Geometry::new(Topology::flat(1), 2, 2),
        ]
    }

    #[test]
    fn every_policy_round_trips_every_address() {
        for geometry in geometries() {
            for policy in InterleavePolicy::ALL {
                for linear in 0..geometry.cells() {
                    let phys = policy.decode(&geometry, linear);
                    assert_eq!(
                        policy.encode(&geometry, phys),
                        linear,
                        "{}: {geometry:?} @ {linear}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_policy_is_alias_free() {
        for geometry in geometries() {
            for policy in InterleavePolicy::ALL {
                let mut seen = std::collections::HashSet::new();
                for linear in 0..geometry.cells() {
                    let phys = policy.decode(&geometry, linear);
                    assert!(
                        seen.insert((phys.coord, phys.addr.row, phys.addr.col)),
                        "{}: linear {linear} aliases an earlier address",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn channel_striping_rotates_channels_per_cell() {
        let geometry = Geometry::new(Topology::new(4, 1, 2, 2), 8, 8);
        for linear in 0..32 {
            let phys = InterleavePolicy::ChannelStriped.decode(&geometry, linear);
            assert_eq!(phys.coord.channel, linear % 4);
        }
    }

    #[test]
    fn linear_keeps_sequential_addresses_in_one_bank() {
        let geometry = Geometry::new(Topology::new(2, 1, 2, 2), 8, 8);
        let first = InterleavePolicy::Linear.decode(&geometry, 0).coord;
        for linear in 0..geometry.cells_per_bank() {
            assert_eq!(
                InterleavePolicy::Linear.decode(&geometry, linear).coord,
                first
            );
        }
        assert_ne!(
            InterleavePolicy::Linear
                .decode(&geometry, geometry.cells_per_bank())
                .coord,
            first
        );
    }

    #[test]
    fn bank_xor_spreads_row_sequential_streams() {
        // Walk column 0 down the rows of what Linear would call "bank 0":
        // the XOR swizzle must visit more than one bank of the channel.
        let geometry = Geometry::new(Topology::new(1, 1, 2, 2), 8, 8);
        let mut banks = std::collections::HashSet::new();
        for row in 0..geometry.rows {
            let linear = row * geometry.cols;
            let coord = InterleavePolicy::BankXor.decode(&geometry, linear).coord;
            assert_eq!(coord.channel, 0);
            banks.insert((coord.rank, coord.group, coord.bank));
        }
        assert!(
            banks.len() > 1,
            "row-sequential traffic must rotate banks, saw {banks:?}"
        );
    }

    #[test]
    fn bank_xor_swizzle_inverts_for_any_bank_count() {
        for per_channel in 1..=9usize {
            for row in 0..20 {
                for bank in 0..per_channel {
                    let swizzled = swizzle(per_channel, bank, row);
                    assert!(swizzled < per_channel);
                    assert_eq!(unswizzle(per_channel, swizzled, row), bank);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn out_of_range_linear_addresses_panic() {
        let geometry = Geometry::new(Topology::flat(2), 4, 4);
        let _ = InterleavePolicy::Linear.decode(&geometry, geometry.cells());
    }
}
