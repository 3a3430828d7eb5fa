//! Chip topology: channels × ranks × bank groups × banks.
//!
//! The flat [`Controller`](crate::Controller) treats banks as an unordered
//! pool; a real chip arranges them in a hierarchy whose *shared* resources
//! are what shape behaviour at scale: banks in a group share a data bus,
//! groups in a rank share the rank's slice of the channel, ranks share a
//! channel, and channels share nothing — which is exactly why the
//! [`Chip`](crate::hierarchy::Chip) engine shards its event loops at
//! channel granularity.
//!
//! A [`Topology`] is purely structural (counts per level); pairing it with
//! per-bank array dimensions gives a [`Geometry`], the address space the
//! [`InterleavePolicy`](crate::hierarchy::InterleavePolicy) variants map linear
//! addresses into. Topologies parse from the compact `CxRxGxB` notation
//! (`"2x1x4x4"` = 2 channels × 1 rank × 4 groups × 4 banks), with a typed
//! [`GeometryParseError`] in the same style as
//! [`TraceParseError`](crate::txn::TraceParseError).

use std::str::FromStr;

use serde::{Deserialize, Serialize};
use stt_array::Address;

/// Counts per level of the chip hierarchy.
///
/// Every level count must be at least 1; the [`Topology::new`] constructor
/// and the `CxRxGxB` parser both enforce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    /// Independent channels (the sharding grain: channels share nothing).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (banks in a group share a data bus).
    pub groups: usize,
    /// Banks per bank group.
    pub banks: usize,
}

impl Topology {
    /// A validated topology.
    ///
    /// # Panics
    ///
    /// Panics if any level count is zero.
    #[must_use]
    pub fn new(channels: usize, ranks: usize, groups: usize, banks: usize) -> Self {
        let topology = Self {
            channels,
            ranks,
            groups,
            banks,
        };
        topology.validate();
        topology
    }

    /// A degenerate single-channel, single-rank, single-group topology of
    /// `banks` banks — the shape every pre-hierarchy controller had.
    #[must_use]
    pub fn flat(banks: usize) -> Self {
        Self::new(1, 1, 1, banks)
    }

    /// The default full-chip topology the traffic harness sweeps: 2
    /// channels × 1 rank × 2 bank groups × 2 banks (8 paper-scale banks).
    #[must_use]
    pub fn date2010() -> Self {
        Self::new(2, 1, 2, 2)
    }

    fn validate(&self) {
        assert!(
            self.channels > 0 && self.ranks > 0 && self.groups > 0 && self.banks > 0,
            "every topology level needs at least one member, got {self}"
        );
    }

    /// Banks per channel (`ranks × groups × banks`).
    #[must_use]
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.groups * self.banks
    }

    /// Total banks across the chip.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.channels * self.banks_per_channel()
    }

    /// Flattens a coordinate to a global bank index (channel-major, then
    /// rank, group, bank) — the index the per-bank RNG stream derives from,
    /// so a bank's random sequence is a function of *where it sits*, never
    /// of which thread serves it or when it was materialised.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate field is out of range.
    #[must_use]
    pub fn flatten(&self, coord: BankCoord) -> usize {
        assert!(
            coord.channel < self.channels
                && coord.rank < self.ranks
                && coord.group < self.groups
                && coord.bank < self.banks,
            "coordinate {coord:?} outside topology {self}"
        );
        ((coord.channel * self.ranks + coord.rank) * self.groups + coord.group) * self.banks
            + coord.bank
    }

    /// Decomposes a global bank index back into its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    #[must_use]
    pub fn coord(&self, flat: usize) -> BankCoord {
        assert!(
            flat < self.total_banks(),
            "bank {flat} outside topology {self} ({} banks)",
            self.total_banks()
        );
        let bank = flat % self.banks;
        let rest = flat / self.banks;
        let group = rest % self.groups;
        let rest = rest / self.groups;
        let rank = rest % self.ranks;
        let channel = rest / self.ranks;
        BankCoord {
            channel,
            rank,
            group,
            bank,
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}",
            self.channels, self.ranks, self.groups, self.banks
        )
    }
}

/// A malformed `CxRxGxB` geometry string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryParseError {
    /// What was wrong with it.
    pub kind: GeometryParseErrorKind,
}

/// The ways a `CxRxGxB` geometry string can be malformed. Each variant
/// carries the offending text verbatim, mirroring
/// [`TraceParseErrorKind`](crate::txn::TraceParseErrorKind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryParseErrorKind {
    /// Wrong number of `x`-separated fields (need exactly four).
    FieldCount {
        /// How many fields the string actually had.
        got: usize,
    },
    /// A level count failed to parse as a positive integer.
    BadCount {
        /// Which level (`"channels"`, `"ranks"`, `"groups"`, `"banks"`).
        level: &'static str,
        /// The text that failed to parse.
        value: String,
    },
    /// A level count parsed but was zero.
    ZeroCount {
        /// Which level was zero.
        level: &'static str,
    },
}

impl GeometryParseErrorKind {
    /// The hierarchy level the error anchors to
    /// ([`GeometryParseErrorKind::FieldCount`] has none).
    #[must_use]
    pub fn level(&self) -> Option<&'static str> {
        match self {
            GeometryParseErrorKind::FieldCount { .. } => None,
            GeometryParseErrorKind::BadCount { level, .. }
            | GeometryParseErrorKind::ZeroCount { level } => Some(level),
        }
    }
}

impl std::fmt::Display for GeometryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "geometry: ")?;
        match &self.kind {
            GeometryParseErrorKind::FieldCount { got } => {
                write!(f, "expected CxRxGxB (4 fields), got {got}")
            }
            GeometryParseErrorKind::BadCount { level, value } => {
                write!(f, "bad {level} count {value:?}")
            }
            GeometryParseErrorKind::ZeroCount { level } => {
                write!(f, "{level} count must be at least 1")
            }
        }
    }
}

impl std::error::Error for GeometryParseError {}

impl FromStr for Topology {
    type Err = GeometryParseError;

    /// Parses the `CxRxGxB` notation (`"4x2x4x4"`), case-insensitive on the
    /// separator.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        const LEVELS: [&str; 4] = ["channels", "ranks", "groups", "banks"];
        let err = |kind| GeometryParseError { kind };
        let fields: Vec<&str> = text.split(['x', 'X']).collect();
        if fields.len() != 4 {
            return Err(err(GeometryParseErrorKind::FieldCount {
                got: fields.len(),
            }));
        }
        let mut counts = [0usize; 4];
        for (slot, (field, level)) in counts.iter_mut().zip(fields.iter().zip(LEVELS)) {
            let value: usize = field.trim().parse().map_err(|_| {
                err(GeometryParseErrorKind::BadCount {
                    level,
                    value: (*field).to_string(),
                })
            })?;
            if value == 0 {
                return Err(err(GeometryParseErrorKind::ZeroCount { level }));
            }
            *slot = value;
        }
        Ok(Topology::new(counts[0], counts[1], counts[2], counts[3]))
    }
}

/// The coordinate of one bank within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BankCoord {
    /// Channel index (`0..channels`).
    pub channel: usize,
    /// Rank index within the channel (`0..ranks`).
    pub rank: usize,
    /// Bank-group index within the rank (`0..groups`).
    pub group: usize,
    /// Bank index within the group (`0..banks`).
    pub bank: usize,
}

/// A full physical location: which bank, and which cell within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// The bank's coordinate in the hierarchy.
    pub coord: BankCoord,
    /// The cell within that bank.
    pub addr: Address,
}

/// A [`Topology`] paired with per-bank array dimensions: the complete
/// linear address space an
/// [`InterleavePolicy`](crate::hierarchy::InterleavePolicy) maps into
/// physical locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Structural counts per hierarchy level.
    pub topology: Topology,
    /// Rows per bank.
    pub rows: usize,
    /// Columns per bank.
    pub cols: usize,
}

impl Geometry {
    /// A validated geometry.
    ///
    /// # Panics
    ///
    /// Panics if either array dimension is zero.
    #[must_use]
    pub fn new(topology: Topology, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "banks need non-empty arrays");
        Self {
            topology,
            rows,
            cols,
        }
    }

    /// Cells per bank.
    #[must_use]
    pub fn cells_per_bank(&self) -> usize {
        self.rows * self.cols
    }

    /// Total addressable cells across the chip. A multi-GB address space is
    /// *addressable* through this geometry whether or not any bank has been
    /// materialised — lazy allocation is the engine's job, not the address
    /// map's.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.topology.total_banks() * self.cells_per_bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_coord_are_inverse() {
        let topology = Topology::new(3, 2, 4, 5);
        for flat in 0..topology.total_banks() {
            let coord = topology.coord(flat);
            assert_eq!(topology.flatten(coord), flat);
        }
        assert_eq!(topology.total_banks(), 3 * 2 * 4 * 5);
        assert_eq!(topology.banks_per_channel(), 2 * 4 * 5);
    }

    #[test]
    fn flat_topology_matches_legacy_bank_indexing() {
        let topology = Topology::flat(8);
        for bank in 0..8 {
            let coord = topology.coord(bank);
            assert_eq!(coord.channel, 0);
            assert_eq!(coord.rank, 0);
            assert_eq!(coord.group, 0);
            assert_eq!(coord.bank, bank);
        }
    }

    #[test]
    fn parse_round_trips_display() {
        let topology: Topology = "4x2x4x4".parse().unwrap();
        assert_eq!(topology, Topology::new(4, 2, 4, 4));
        assert_eq!(topology.to_string().parse::<Topology>(), Ok(topology));
        assert_eq!("2X1X2X2".parse::<Topology>(), Ok(Topology::date2010()));
    }

    #[test]
    fn parse_errors_are_typed() {
        let error = "4x2x4".parse::<Topology>().unwrap_err();
        assert_eq!(error.kind, GeometryParseErrorKind::FieldCount { got: 3 });
        assert_eq!(error.kind.level(), None);
        assert_eq!(
            error.to_string(),
            "geometry: expected CxRxGxB (4 fields), got 3"
        );

        let error = "4xtwox4x4".parse::<Topology>().unwrap_err();
        assert_eq!(
            error.kind,
            GeometryParseErrorKind::BadCount {
                level: "ranks",
                value: "two".to_string(),
            }
        );
        assert_eq!(error.kind.level(), Some("ranks"));

        let error = "4x2x0x4".parse::<Topology>().unwrap_err();
        assert_eq!(
            error.kind,
            GeometryParseErrorKind::ZeroCount { level: "groups" }
        );
        assert_eq!(
            error.to_string(),
            "geometry: groups count must be at least 1"
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_level_topologies_are_rejected() {
        let _ = Topology::new(1, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_coords_are_rejected() {
        let topology = Topology::new(2, 1, 2, 2);
        let _ = topology.flatten(BankCoord {
            channel: 2,
            rank: 0,
            group: 0,
            bank: 0,
        });
    }

    #[test]
    fn geometry_counts_cells() {
        let geometry = Geometry::new(Topology::new(2, 1, 2, 2), 8, 8);
        assert_eq!(geometry.cells_per_bank(), 64);
        assert_eq!(geometry.cells(), 8 * 64);
    }
}
