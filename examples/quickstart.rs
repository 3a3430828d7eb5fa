//! Quickstart: sense one STT-RAM cell with all three schemes.
//!
//! Builds the paper's typical device (Table I), derives the three design
//! points (including the optimal current ratios β of Eqs. 5/10), and reads
//! the cell in both states under each scheme.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_array::CellSpec;
use stt_mtj::ResistanceState;
use stt_sense::{
    ChipTiming, ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme,
    SchemeKind, SenseScheme,
};
use stt_units::Amps;

fn main() {
    // The calibrated typical device: R_L(0) = 1525 Ω, R_H(0) = 3050 Ω,
    // ΔR_Hmax = 600 Ω ≫ ΔR_Lmax = 100 Ω, R_T = 917 Ω.
    let spec = CellSpec::date2010_chip();
    let cell = spec.nominal_cell();
    println!(
        "device: R_L(0) = {}, R_H(0) = {}, TMR(0) = {:.0} %",
        cell.device().r_low(Amps::ZERO),
        cell.device().r_high(Amps::ZERO),
        cell.device().tmr(Amps::ZERO) * 100.0,
    );

    // Design points at the paper's current budget (I_max = 200 µA, α = 0.5).
    let design = DesignPoint::date2010(&cell);
    println!(
        "optimal current ratios: β_destructive = {:.3} (paper: 1.22), β_nondestructive = {:.3} (paper: 2.13)",
        design.destructive.beta(),
        design.nondestructive.beta(),
    );

    let conventional = ConventionalScheme::new(design.conventional);
    let destructive = DestructiveScheme::new(design.destructive);
    let nondestructive = NondestructiveScheme::new(design.nondestructive);

    let mut rng = StdRng::seed_from_u64(2010);
    for bit in [false, true] {
        let stored = ResistanceState::from_bit(bit);
        println!("\nstored bit: {}", u8::from(bit));
        let conv = conventional.read(&cell, stored, &mut rng);
        let dest = destructive.read(&cell, stored, &mut rng);
        let nond = nondestructive.read(&cell, stored, &mut rng);
        println!(
            "  conventional     → {} (differential {})",
            u8::from(conv.bit),
            conv.differential
        );
        println!(
            "  destructive SR   → {} (differential {})",
            u8::from(dest.bit),
            dest.differential
        );
        println!(
            "  nondestructive SR→ {} (differential {})",
            u8::from(nond.bit),
            nond.differential
        );
    }

    // Margins and read cost.
    println!("\nsense margins on the nominal cell:");
    let timing = ChipTiming::date2010();
    for (name, kind, margins) in [
        (
            "conventional",
            SchemeKind::Conventional,
            conventional.margins(&cell),
        ),
        (
            "destructive SR",
            SchemeKind::Destructive,
            destructive.margins(&cell),
        ),
        (
            "nondestructive SR",
            SchemeKind::Nondestructive,
            nondestructive.margins(&cell),
        ),
    ] {
        let cost = timing.read_cost(kind, &design);
        println!(
            "  {name:<18} SM0 = {:>9}  SM1 = {:>9}  latency = {:>7}  energy = {:>9}",
            margins.margin0,
            margins.margin1,
            cost.latency(),
            cost.energy(),
        );
    }
    println!(
        "\nthe nondestructive scheme reads in {} without ever writing the cell —\n\
         the destructive baseline needs {} and loses the bit if power fails mid-read",
        timing
            .read_cost(SchemeKind::Nondestructive, &design)
            .latency(),
        timing.read_cost(SchemeKind::Destructive, &design).latency(),
    );
}
