//! March-test programs and their lowering to per-cell operation schedules.
//!
//! A March test is a sequence of *elements*; each element walks every cell
//! of the array in a prescribed address order and applies the same short
//! sequence of read/write operations to each cell before moving on. The
//! notation `⇑(r0,w1)` means "ascending over all cells: read expecting 0,
//! then write 1". Because every element touches every cell, a program with
//! k operations across its elements costs exactly `k·n` operations on an
//! n-cell array — the figure of merit test engineers quote (March C– is
//! "a 10n test").

/// One March operation applied to the current cell of an element walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarchOp {
    /// Read the cell and compare against the expected bit; a mismatch marks
    /// the cell as failing.
    R(bool),
    /// Write the bit through the bank's real write datapath.
    W(bool),
}

/// The address order of one element's walk over the cell array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressOrder {
    /// Ascending row-major (`⇑`).
    Up,
    /// Descending row-major (`⇓`).
    Down,
    /// Either order is permitted (`⇕`); lowering picks ascending.
    Any,
}

/// One March element: an address order and the operations applied to each
/// cell of the walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchElement {
    /// Walk direction over the cell array.
    pub order: AddressOrder,
    /// Operations applied, in sequence, to every cell the walk visits.
    pub ops: Vec<MarchOp>,
}

/// A complete March algorithm as a sequence of elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchProgram {
    /// Human-readable algorithm name (`"March C-"`).
    pub name: &'static str,
    /// The elements, applied in order.
    pub elements: Vec<MarchElement>,
}

/// One lowered March operation: element `element` of the program applies
/// `op` to row-major cell `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchStep {
    /// Row-major cell index within the bank.
    pub cell: u32,
    /// The operation.
    pub op: MarchOp,
    /// Index of the element this step belongs to (for fail attribution).
    pub element: u8,
}

/// The data background a March run is executed against.
///
/// Classic March notation is defined over a *solid* background (`w0`
/// writes 0 everywhere). Re-reading `0`/`1` as "background value" /
/// "inverse background value" preserves every detection property of the
/// algorithm while letting the tester sensitise defects a solid pattern
/// can't: inter-word coupling faults need neighbouring cells to hold
/// *opposite* values while the aggressor toggles, which a checkerboard
/// provides by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DataBackground {
    /// All-zeros base pattern — the textbook lowering.
    #[default]
    Solid,
    /// Physical checkerboard: cell `(row, col)` starts at `(row + col) & 1`,
    /// so every cell's four physical neighbours hold its complement.
    Checkerboard,
    /// `0x55` stripes along the row-major word order: odd cells hold 1 —
    /// adjacent cells *within a word* alternate, the pattern datasheets
    /// call a 55/AA sweep.
    Alt55,
}

impl DataBackground {
    /// Every background in the library.
    pub const ALL: [DataBackground; 3] = [
        DataBackground::Solid,
        DataBackground::Checkerboard,
        DataBackground::Alt55,
    ];

    /// Display name (CSV-friendly).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataBackground::Solid => "solid",
            DataBackground::Checkerboard => "checkerboard",
            DataBackground::Alt55 => "alt55",
        }
    }

    /// The background bit of row-major `cell` on a `cols`-wide array.
    #[must_use]
    pub fn bit(self, cell: u32, cols: u32) -> bool {
        match self {
            DataBackground::Solid => false,
            DataBackground::Checkerboard => {
                let row = cell / cols;
                let col = cell % cols;
                (row + col) & 1 == 1
            }
            DataBackground::Alt55 => cell & 1 == 1,
        }
    }
}

/// Which March algorithm to run — the `Copy` handle configuration structs
/// carry; [`MarchAlgorithm::program`] builds the full description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarchAlgorithm {
    /// March C–: `{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}`,
    /// the classic 10n test. Detects all stuck-at and transition faults and
    /// state coupling faults, but performs only *transition* writes after
    /// its initialisation element — so it provably cannot sensitise
    /// disturb coupling faults triggered by non-transition writes.
    CMinus,
    /// March SS: a 22n test whose elements repeat reads and add
    /// **non-transition writes** (`…,w0,…` on a cell holding 0, `…,w1,…`
    /// on a cell holding 1), the sensitising sequence disturb coupling
    /// faults (CFds) require.
    Ss,
}

impl MarchAlgorithm {
    /// Every algorithm in the library.
    pub const ALL: [MarchAlgorithm; 2] = [MarchAlgorithm::CMinus, MarchAlgorithm::Ss];

    /// The algorithm's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MarchAlgorithm::CMinus => "March C-",
            MarchAlgorithm::Ss => "March SS",
        }
    }

    /// Builds the full program description.
    #[must_use]
    pub fn program(self) -> MarchProgram {
        match self {
            MarchAlgorithm::CMinus => march_c_minus(),
            MarchAlgorithm::Ss => march_ss(),
        }
    }
}

/// Shorthand element constructor.
fn element(order: AddressOrder, ops: &[MarchOp]) -> MarchElement {
    MarchElement {
        order,
        ops: ops.to_vec(),
    }
}

/// March C–: `{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}`.
#[must_use]
pub fn march_c_minus() -> MarchProgram {
    use AddressOrder::{Any, Down, Up};
    use MarchOp::{R, W};
    MarchProgram {
        name: "March C-",
        elements: vec![
            element(Any, &[W(false)]),
            element(Up, &[R(false), W(true)]),
            element(Up, &[R(true), W(false)]),
            element(Down, &[R(false), W(true)]),
            element(Down, &[R(true), W(false)]),
            element(Any, &[R(false)]),
        ],
    }
}

/// March SS:
/// `{⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0); ⇓(r0,r0,w0,r0,w1);
/// ⇓(r1,r1,w1,r1,w0); ⇕(r0)}`.
#[must_use]
pub fn march_ss() -> MarchProgram {
    use AddressOrder::{Any, Down, Up};
    use MarchOp::{R, W};
    MarchProgram {
        name: "March SS",
        elements: vec![
            element(Any, &[W(false)]),
            element(Up, &[R(false), R(false), W(false), R(false), W(true)]),
            element(Up, &[R(true), R(true), W(true), R(true), W(false)]),
            element(Down, &[R(false), R(false), W(false), R(false), W(true)]),
            element(Down, &[R(true), R(true), W(true), R(true), W(false)]),
            element(Any, &[R(false)]),
        ],
    }
}

impl MarchProgram {
    /// Operations per cell (`10` for March C–): the `k` of the `k·n` cost.
    #[must_use]
    pub fn ops_per_cell(&self) -> usize {
        self.elements.iter().map(|e| e.ops.len()).sum()
    }

    /// Lowers the program onto a data background: a flat per-cell schedule
    /// over `cells` cells in which every `0`/`1` in the notation is
    /// reinterpreted as "background value of the cell" / "its complement",
    /// i.e. each step's bit is XORed with [`DataBackground::bit`]. A
    /// [`DataBackground::Solid`] lowering is the textbook one, whatever
    /// `cols`.
    ///
    /// Each element expands to its full walk before the next element
    /// starts — the March contract — and `Any` orders lower ascending, so
    /// the schedule is a pure function of its arguments and identical
    /// across serial and sharded dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero (the checkerboard needs the array's
    /// physical width).
    #[must_use]
    pub fn lower_with_background(
        &self,
        cells: u32,
        cols: u32,
        background: DataBackground,
    ) -> Vec<MarchStep> {
        assert!(cols > 0, "a data background needs a nonzero array width");
        let mut steps = Vec::with_capacity(self.ops_per_cell() * cells as usize);
        for (index, element) in self.elements.iter().enumerate() {
            let element_id = u8::try_from(index).expect("March programs have few elements");
            let walk: Box<dyn Iterator<Item = u32>> = match element.order {
                AddressOrder::Up | AddressOrder::Any => Box::new(0..cells),
                AddressOrder::Down => Box::new((0..cells).rev()),
            };
            for cell in walk {
                let base = background.bit(cell, cols);
                for &op in &element.ops {
                    let op = match op {
                        MarchOp::R(expected) => MarchOp::R(expected ^ base),
                        MarchOp::W(bit) => MarchOp::W(bit ^ base),
                    };
                    steps.push(MarchStep {
                        cell,
                        op,
                        element: element_id,
                    });
                }
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(program: &MarchProgram, cells: u32) -> Vec<MarchStep> {
        program.lower_with_background(cells, 1, DataBackground::Solid)
    }

    #[test]
    fn march_c_minus_is_a_10n_test() {
        let program = march_c_minus();
        assert_eq!(program.ops_per_cell(), 10);
        assert_eq!(solid(&program, 64).len(), 640);
    }

    #[test]
    fn march_ss_is_a_22n_test() {
        let program = march_ss();
        assert_eq!(program.ops_per_cell(), 22);
        assert_eq!(solid(&program, 10).len(), 220);
    }

    #[test]
    fn lowering_expands_each_element_fully_before_the_next() {
        let program = march_c_minus();
        let steps = solid(&program, 4);
        // Element 0 (⇕ w0) covers cells 0..4 ascending first.
        assert_eq!(steps[0].cell, 0);
        assert_eq!(steps[3].cell, 3);
        assert!(steps[..4].iter().all(|s| s.element == 0));
        // Element 3 (⇓) walks descending.
        let down: Vec<u32> = steps
            .iter()
            .filter(|s| s.element == 3)
            .map(|s| s.cell)
            .collect();
        assert_eq!(down, [3, 3, 2, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn march_ss_contains_non_transition_writes_and_c_minus_does_not() {
        // The CFds coverage argument, checked structurally: after the
        // initialisation element, March C– only ever writes the complement
        // of the value it just read (transition writes), while March SS
        // rewrites the value it read (non-transition writes).
        for (program, expect_non_transition) in [(march_c_minus(), false), (march_ss(), true)] {
            let mut found = false;
            for element in &program.elements[1..] {
                let mut last_read: Option<bool> = None;
                for &op in &element.ops {
                    match op {
                        MarchOp::R(expected) => last_read = Some(expected),
                        MarchOp::W(bit) => {
                            if last_read == Some(bit) {
                                found = true;
                            }
                        }
                    }
                }
            }
            assert_eq!(found, expect_non_transition, "{}", program.name);
        }
    }

    #[test]
    fn solid_background_lowering_is_the_textbook_lowering() {
        let program = march_c_minus();
        let steps = program.lower_with_background(64, 8, DataBackground::Solid);
        assert_eq!(steps, solid(&program, 64));
        // Solid XORs nothing: each cell sees the ops as the notation writes them.
        let cell_ops: Vec<MarchOp> = steps.iter().filter(|s| s.cell == 5).map(|s| s.op).collect();
        let textbook: Vec<MarchOp> = program
            .elements
            .iter()
            .flat_map(|e| e.ops.clone())
            .collect();
        assert_eq!(cell_ops, textbook);
    }

    #[test]
    fn checkerboard_background_alternates_neighbouring_cells() {
        // On a 4-wide array, cells 0 and 1 are physical row neighbours and
        // must start at opposite values; cells 3 and 4 wrap to the next row
        // (col 3 → col 0) and both land on background 1.
        let program = march_c_minus();
        let steps = program.lower_with_background(8, 4, DataBackground::Checkerboard);
        let init: Vec<MarchOp> = steps[..8].iter().map(|s| s.op).collect();
        assert_eq!(
            init,
            [
                MarchOp::W(false),
                MarchOp::W(true),
                MarchOp::W(false),
                MarchOp::W(true),
                MarchOp::W(true),
                MarchOp::W(false),
                MarchOp::W(true),
                MarchOp::W(false),
            ]
        );
        // Reads expect the same XORed pattern: element 1 on cell 1 is
        // (r0,w1) over background 1 → (r1,w0).
        let cell1: Vec<MarchOp> = steps
            .iter()
            .filter(|s| s.element == 1 && s.cell == 1)
            .map(|s| s.op)
            .collect();
        assert_eq!(cell1, [MarchOp::R(true), MarchOp::W(false)]);
    }

    #[test]
    fn alt55_background_follows_cell_parity_not_geometry() {
        let bg = DataBackground::Alt55;
        for cols in [1, 4, 64] {
            assert!(!bg.bit(0, cols));
            assert!(bg.bit(1, cols));
            assert!(!bg.bit(2, cols));
        }
        assert_eq!(DataBackground::default(), DataBackground::Solid);
        assert_eq!(DataBackground::ALL.len(), 3);
    }

    #[test]
    fn every_algorithm_handle_matches_its_program() {
        assert_eq!(MarchAlgorithm::CMinus.program(), march_c_minus());
        assert_eq!(MarchAlgorithm::Ss.program(), march_ss());
        assert_eq!(MarchAlgorithm::CMinus.name(), "March C-");
        assert_eq!(MarchAlgorithm::Ss.name(), "March SS");
    }
}
