//! One bank: a sampled array, its own RNG, and the logic that serves a
//! transaction end to end.
//!
//! A bank owns everything it touches — cell array, ground-truth mirror,
//! telemetry, random streams — so banks can be driven from different
//! threads with no sharing at all. Its RNG is seeded from `(controller
//! seed, bank index)` with the same SplitMix64 scrambling as the
//! Monte-Carlo runner, which is what makes an N-thread run bit-identical
//! to a serial one.
//!
//! Four independent RNG streams per bank keep orthogonal concerns from
//! perturbing each other:
//!
//! * the **demand** stream serves host traffic (senses, write pulses);
//! * the **scrub** stream serves background scrub reads and repairs, so an
//!   interleaved scrub never changes what a demand read would have seen;
//! * the **fault** stream drives retention and read-disturb injection on
//!   demand reads, and is only drawn from when those fault models are
//!   enabled — a quiet plan leaves demand traffic bit-identical to builds
//!   without soft errors (scrub and March draw their soft errors from
//!   their own streams);
//! * the **March** stream serves manufacturing-test traffic
//!   ([`Bank::execute_march_op`]) so a test pass is deterministic and
//!   independent of whatever demand traffic preceded it.
//!
//! A calibration burst draws nothing: it is priced, not sensed (see
//! [`crate::calib`]).
//!
//! Every read kind — a demand read of one cell or of an ECC word, a scrub
//! step, a decoded or raw March read — runs one datapath, `read_span`:
//! retention decay, one sense per cell, the destructive write-back landing
//! on stuck cells, then read disturb, all on the reader's streams. The read
//! kinds differ only in the span they read and the clock they charge, the
//! way demand and March writes share `write_cell`.
//!
//! Dynamic drift (see [`DriftPlan`]) evolves each bank's cells on its
//! demand busy clock. A new drift quantum marks every cell stale, and a
//! stale cell is rebuilt when an access next reads its device. A rebuild
//! draws no RNG, so the lazy result equals an eager one and drift-laden
//! runs stay bit-identical across serial, parallel and event-driven
//! dispatch too.
//!
//! Each cell keeps its [`SettleCodes`], which decide most sense attempts
//! without the exact offset draw (see [`Scheme::resolve_span`]). A cell's
//! codes are cleared when it is rebuilt, and every code when a refit
//! changes the scheme.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;
use stt_array::{AccessTransistor, Address, Array, Cell, OperationCost, Phase, PhaseKind};
use stt_mtj::{LinearRolloff, MtjSpec, ResistanceCurve};
use stt_sense::{ChipTiming, DesignPoint, SchemeKind};

use crate::calib::CalibConfig;
use crate::engine::ControllerConfig;
use crate::faults::{CouplingKind, DriftKey, DriftPlan, DriftStep, FaultPlan};
use crate::march::MarchOp;
use crate::reliability::codec::{self, DecodeKind};
use crate::reliability::{word_count, ScrubCursor, WORD_BITS};
use crate::retry::RetryPolicy;
use crate::sense::{Scheme, SenseWork, SettleCodes};
use crate::telemetry::{BankTelemetry, EccEventKind};
use crate::txn::{Op, Transaction};

/// Programming pulses a write may burn before the controller declares the
/// cell unwritable (`(1 − p_switch)⁸` residual failure).
const MAX_WRITE_ATTEMPTS: u32 = 8;

/// Seed salt for the per-bank scrub RNG stream (distinct from every demand
/// stream by construction: SplitMix64 scrambles the salted seed).
const SCRUB_STREAM: u64 = 0x5343_5255_4253_4d31;
/// Seed salt for the per-bank fault-injection RNG stream.
const FAULT_STREAM: u64 = 0x4641_554c_5453_4d32;
/// Seed salt for the per-bank March-test RNG stream.
const MARCH_STREAM: u64 = 0x4d41_5243_4853_4d33;

/// Residual high/low separation of a pinhole-shorted MTJ. The MgO defect
/// shunts the tunnel barrier, so both magnetic states conduct through the
/// short: the cell's "high" state is electrically a low state a few percent
/// stiffer, far below any scheme's sensing threshold.
const PINHOLE_RESIDUAL_TMR: f64 = 0.02;

/// Which seeded RNG stream an operation draws from. Keeping demand, scrub
/// and March traffic on separate streams means enabling one never perturbs
/// what the others would have seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    Demand,
    Scrub,
    March,
}

/// The bank's seeded RNG streams. The two accessors are the one place an
/// operation's [`Stream`] picks its RNG.
#[derive(Debug)]
struct Streams {
    demand: StdRng,
    scrub: StdRng,
    fault: StdRng,
    march: StdRng,
}

impl Streams {
    /// The RNG serving `stream`'s senses and write pulses.
    fn pulses(&mut self, stream: Stream) -> &mut StdRng {
        match stream {
            Stream::Demand => &mut self.demand,
            Stream::Scrub => &mut self.scrub,
            Stream::March => &mut self.march,
        }
    }

    /// The RNG serving `stream`'s soft-error draws (retention, read
    /// disturb): demand traffic draws them from the fault stream, so a
    /// quiet plan leaves its senses untouched; scrub and March draw them
    /// from their own streams.
    fn soft_errors(&mut self, stream: Stream) -> &mut StdRng {
        match stream {
            Stream::Demand => &mut self.fault,
            Stream::Scrub => &mut self.scrub,
            Stream::March => &mut self.march,
        }
    }
}

/// What one [`Bank::read_span`] sensed.
#[derive(Clone, Copy)]
struct SpanSense {
    /// The received bits: bit `k` is cell `span.start + k`.
    bits: u64,
    /// The most attempts any one cell needed: the span's latency in reads,
    /// one sense amplifier per column.
    slowest: u32,
    /// Attempts summed over the span: its energy in reads.
    attempts: u64,
    /// `true` when any cell fell back unconfidently.
    unconfident: bool,
}

/// Controller-side ECC state for one bank: the per-word check store
/// (modelling dedicated check columns, updated on writes, never corrupted
/// by the array) and the scrub walk cursor.
#[derive(Debug)]
struct EccState {
    check: Vec<u8>,
    cursor: ScrubCursor,
}

/// Dynamic-drift state for one bank, present only under a non-quiet
/// [`DriftPlan`].
///
/// A slice whose key can move keeps the per-cell *undrifted* baseline
/// specs (captured after sampling and pinhole swaps, so defects drift with
/// the rest of the array) and rebuilds stale cells from them lazily. A
/// slice with a constant key is applied once in [`Bank::new`] and keeps no
/// baseline.
#[derive(Debug)]
struct DriftState {
    /// This bank's slice of the plan.
    plan: DriftPlan,
    /// The key every cell is built at, or is rebuilt at when next touched.
    key: DriftKey,
    /// The key's factors.
    step: DriftStep,
    /// Row-major per-cell baseline specs at the 300 K calibration point;
    /// empty under a constant key.
    baseline: Vec<MtjSpec>,
    /// Bit `c % 64` of word `c / 64` is set while cell `c` still holds the
    /// device of an earlier key; empty under a constant key.
    stale: Vec<u64>,
}

/// Deterministic work counts of one bank, kept outside its telemetry so
/// they never reach a digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankWork {
    /// Sense attempts, exact-path attempts and settle-code fills.
    pub sense: SenseWork,
    /// Cells rebuilt for a new drift key.
    pub cell_rebuilds: u64,
    /// Drift-key changes after construction.
    pub key_changes: u64,
}

/// One independently-addressable bank of the controller.
#[derive(Debug)]
pub struct Bank {
    index: usize,
    array: Array,
    /// What the host believes each cell holds: bit `c % 64` of word
    /// `c / 64` is row-major cell `c`, and bits past the last cell are 0.
    truth: Vec<u64>,
    streams: Streams,
    scheme: Scheme,
    retry: RetryPolicy,
    /// This bank's slice of the fault plan: the scalar knobs and only the
    /// defects that sit on this bank.
    faults: FaultPlan,
    read_cost: OperationCost,
    write_cost: OperationCost,
    telemetry: BankTelemetry,
    reads_served: u64,
    /// SECDED sidecar, present only under `EccMode::Secded`.
    ecc: Option<EccState>,
    /// Busy-time stamp (ns) of each cell's last access, the retention
    /// fault's per-cell clock. Busy time — not wall time — so retention is
    /// identical across serial, parallel and event-driven dispatch. Empty
    /// when retention faults are off.
    last_touch_ns: Vec<f64>,
    /// Dynamic-drift sidecar, present only under a non-quiet plan.
    drift: Option<DriftState>,
    /// Each cell's settle codes under the current scheme (row-major).
    codes: Vec<SettleCodes>,
    work: BankWork,
    /// Nominal (unvaried) device recipe, the β refit's starting point.
    nominal_mtj: MtjSpec,
    nominal_transistor: AccessTransistor,
    /// Demand-read count at the last calibration check.
    calib_reads_mark: u64,
    /// `misreads + unconfident_reads` at the last calibration check.
    calib_errors_mark: u64,
}

impl Bank {
    /// Samples and initialises bank `index` of `config`.
    ///
    /// The bank keeps its own slice of `config.faults` (the scalar knobs and
    /// the defects on bank `index`) and injects it into everything it
    /// serves, so no service call takes a fault plan.
    ///
    /// The array is filled with a random pattern (ideal preload writes, not
    /// traffic), stuck cells are snapped to their defect value, and the
    /// host's truth mirror starts equal to the actual stored state — so
    /// every misread and corrupted bit the telemetry later reports was
    /// caused by served traffic, not initial conditions. Under ECC the
    /// per-word check store is encoded from that same consistent state.
    #[must_use]
    pub fn new(index: usize, config: &ControllerConfig) -> Self {
        let spec = &config.spec;
        let mut rng = stt_stats::trial_rng(config.seed, index);
        let mut array = spec.sample(&mut rng);
        let cells = spec.capacity_bits();
        let mut truth = vec![0; word_count(cells)];
        let cols = spec.cols;
        // Row-major, one draw per cell, straight into the state plane.
        let states = array.states_mut();
        for cell in 0..cells {
            let bit = rng.gen_bool(0.5);
            states.set(cell, bit);
            set_bit(&mut truth, cell, bit);
        }
        let faults = config.faults.for_bank(index);
        for cell in &faults.stuck_cells {
            array.write_bit(cell.addr, cell.value);
            set_bit(&mut truth, cell.addr.row * cols + cell.addr.col, cell.value);
        }
        // Pinhole defects: swap the sampled device for one whose "high"
        // state is the low-state curve scaled by the residual TMR, keeping
        // the sampled transistor (the preloaded state stays in the plane).
        // No RNG is drawn, so a quiet plan leaves every stream untouched.
        for defect in &faults.pinhole_cells {
            let mtj = &spec.cell.mtj;
            let low = mtj.resistance.r_low0();
            let dr_low = mtj.resistance.dr_low_max();
            let collapsed = MtjSpec {
                resistance: LinearRolloff::new(
                    low,
                    low * (1.0 + PINHOLE_RESIDUAL_TMR),
                    dr_low,
                    dr_low * (1.0 + PINHOLE_RESIDUAL_TMR),
                    mtj.resistance.i_max(),
                ),
                switching: mtj.switching,
            };
            let transistor = *array.cell(defect.addr).transistor();
            *array.cell_mut(defect.addr) = Cell::new(collapsed.into_device(), transistor);
        }
        // Dynamic drift on this bank's slice of the plan, from the pinhole-
        // swapped array, so every defect drifts along with the healthy
        // cells. Nothing here (or in a later rebuild) draws RNG.
        let mut work = BankWork::default();
        let drift = (!config.drift.is_quiet()).then(|| {
            let plan = config.drift.for_bank(index);
            let key = plan.key_at(index, 0.0);
            let step = key.step();
            let (baseline, stale) = if plan.has_constant_key() {
                for cell in 0..cells {
                    let spec = undrifted_spec(&array, cell);
                    rebuild(&mut array, cell, &spec, &step);
                }
                work.cell_rebuilds += cells as u64;
                (Vec::new(), Vec::new())
            } else {
                let baseline = (0..cells).map(|cell| undrifted_spec(&array, cell));
                (baseline.collect(), vec![u64::MAX; word_count(cells)])
            };
            DriftState {
                plan,
                key,
                step,
                baseline,
                stale,
            }
        });
        let nominal = spec.cell.nominal_cell();
        let mut telemetry = BankTelemetry::default();
        let ecc = config.ecc.is_enabled().then(|| {
            let words = word_count(spec.capacity_bits());
            telemetry.ecc.words_total = words as u64;
            EccState {
                check: truth.iter().map(|&word| codec::encode(word)).collect(),
                cursor: ScrubCursor::new(words),
            }
        });
        let last_touch_ns = if faults.retention_rate_per_ns.is_some() {
            vec![0.0; cells]
        } else {
            Vec::new()
        };
        let design = DesignPoint::date2010(&spec.cell.nominal_cell());
        let timing = ChipTiming::date2010();
        Self {
            index,
            array,
            truth,
            streams: Streams {
                demand: rng,
                scrub: stt_stats::trial_rng(config.seed ^ SCRUB_STREAM, index),
                fault: stt_stats::trial_rng(config.seed ^ FAULT_STREAM, index),
                march: stt_stats::trial_rng(config.seed ^ MARCH_STREAM, index),
            },
            scheme: Scheme::for_kind(config.kind, &design),
            retry: config.retry,
            faults,
            read_cost: timing.read_cost(config.kind, &design),
            write_cost: write_cost(&timing),
            telemetry,
            reads_served: 0,
            ecc,
            last_touch_ns,
            drift,
            codes: vec![SettleCodes::default(); cells],
            work,
            nominal_mtj: spec.cell.mtj.clone(),
            nominal_transistor: *nominal.transistor(),
            calib_reads_mark: 0,
            calib_errors_mark: 0,
        }
    }

    /// This bank's index in the controller.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn telemetry(&self) -> &BankTelemetry {
        &self.telemetry
    }

    /// Deterministic work counts so far: sense attempts and their exact
    /// evaluations, settle-code fills, cell rebuilds and drift-key changes.
    #[must_use]
    pub fn work(&self) -> BankWork {
        self.work
    }

    /// Serves one transaction, injecting the faults this bank was built
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if the transaction's address is out of this bank's range.
    pub fn execute(&mut self, txn: &Transaction) {
        self.maybe_apply_drift();
        match txn.op {
            Op::Read => {
                self.reads_served += 1;
                self.telemetry.reads += 1;
                if self.faults.cuts_power_on(self.reads_served) {
                    self.serve_read_with_power_cut(txn.addr);
                } else if self.ecc.is_some() {
                    self.serve_read_ecc(txn.addr);
                } else {
                    self.serve_read_plain(txn.addr);
                }
            }
            Op::Write(bit) => self.serve_write(txn.addr, bit),
        }
    }

    /// Serves one lowered March operation on `cell` (row-major index): `W`
    /// drives the shared write datapath on the March RNG stream, `R` senses
    /// through the real read path (plain or ECC, matching the bank's
    /// protection) and records the verdict against the expectation in
    /// [`crate::telemetry::MarchTelemetry`]. Occupancy is charged to
    /// `telemetry.march.busy_time`, not the demand busy clock, so test time
    /// never accelerates the retention decay it screens for.
    ///
    /// With `raw` set, reads bypass the SECDED codec and observe the bare
    /// array bit (see [`MarchConfig::raw`](crate::sched::MarchConfig)) —
    /// the tester's raw-array mode that recovers single-cell-fault
    /// coverage the codec would otherwise absorb. No effect without ECC.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of this bank's range.
    pub fn execute_march_op(&mut self, cell: u32, op: MarchOp, element: u8, raw: bool) {
        self.maybe_apply_drift();
        let addr = self.addr_of(cell as usize);
        self.telemetry.march.ops += 1;
        match op {
            MarchOp::W(bit) => {
                self.telemetry.march.writes += 1;
                let pulses_burned = self.write_cell(addr, bit, Stream::March);
                self.telemetry.march.busy_time +=
                    self.write_cost.latency() * f64::from(pulses_burned);
                self.telemetry.energy += self.write_cost.energy() * f64::from(pulses_burned);
                self.touch(addr);
            }
            MarchOp::R(expected) => {
                self.telemetry.march.reads += 1;
                let got = self.march_read(addr, raw);
                if got != expected {
                    self.telemetry
                        .march
                        .record_mismatch(cell, element, expected, got);
                }
            }
        }
    }

    /// One March read on the March stream through the bank's read
    /// datapath. With ECC the tester observes the *decoded* bit — exactly
    /// what a host would — so single-cell defects the codec absorbs
    /// legitimately escape the test at that protection level; `raw`
    /// bypasses the codec and senses the one cell directly, like an
    /// unprotected part.
    fn march_read(&mut self, addr: Address, raw: bool) -> bool {
        let cell = self.array.index_of(addr);
        let word = cell / WORD_BITS;
        let (span, check) = match &self.ecc {
            Some(ecc) if !raw => (self.word_span(word), Some(ecc.check[word])),
            _ => (cell..cell + 1, None),
        };
        let sense = self.read_span(span.clone(), Stream::March);
        self.telemetry.march.busy_time += self.read_cost.latency() * f64::from(sense.slowest);
        self.telemetry.energy += self.read_cost.energy() * sense.attempts as f64;
        let bits = check.map_or(sense.bits, |check| codec::decode(sense.bits, check).data);
        (bits >> (cell - span.start)) & 1 == 1
    }

    fn serve_read_plain(&mut self, addr: Address) {
        let cell = self.array.index_of(addr);
        let sense = self.read_span(cell..cell + 1, Stream::Demand);
        if (sense.bits == 1) != self.truth_bit(cell) {
            self.telemetry.misreads += 1;
        }
        self.charge_demand_read(sense);
    }

    /// An ECC-protected read: sense the whole 64-cell word, decode it
    /// against the check store, and classify the access as clean /
    /// corrected CE / detected UE / silent. The delivered bit is cut from
    /// the *decoded* word, so a single-bit error anywhere in the word —
    /// stuck cell, retention flip, marginal sense — no longer reaches the
    /// host.
    fn serve_read_ecc(&mut self, addr: Address) {
        let cell = self.array.index_of(addr);
        let word = cell / WORD_BITS;
        let span = self.word_span(word);
        let sense = self.read_span(span.clone(), Stream::Demand);
        self.charge_demand_read(sense);
        let check = self.ecc.as_ref().expect("ECC read without ECC state").check[word];
        let decoded = codec::decode(sense.bits, check);
        let truth = self.truth[word];
        let ecc = &mut self.telemetry.ecc;
        match decoded.kind {
            DecodeKind::Uncorrectable => {
                ecc.detected_ue += 1;
                ecc.log_event(word, EccEventKind::DemandUe);
            }
            _ if decoded.data != truth => {
                // The codec passed it (clean or "corrected"), but the word
                // is still wrong: the silent residue ECC cannot see.
                ecc.silent_errors += 1;
                ecc.log_event(word, EccEventKind::DemandSilent);
            }
            kind if kind.is_corrected() => {
                ecc.corrected_ce += 1;
                ecc.log_event(word, EccEventKind::DemandCe);
            }
            _ => ecc.clean_reads += 1,
        }
        let delivered = (decoded.data >> (cell - span.start)) & 1 == 1;
        if delivered != self.truth_bit(cell) {
            self.telemetry.misreads += 1;
        }
    }

    /// Charges a demand read's sense on the demand clock: its retries and
    /// unconfident count, and a latency of the slowest cell's attempts
    /// with an energy of every cell's.
    fn charge_demand_read(&mut self, sense: SpanSense) {
        self.telemetry.read_retries += u64::from(sense.slowest - 1);
        if sense.unconfident {
            self.telemetry.unconfident_reads += 1;
        }
        let latency = self.read_cost.latency() * f64::from(sense.slowest);
        self.telemetry.record_read_latency(latency);
        self.telemetry.busy_time += latency;
        self.telemetry.energy += self.read_cost.energy() * sense.attempts as f64;
    }

    /// A read interrupted by a power cut after its first state-mutating
    /// step, the scheme's most vulnerable point: for the destructive scheme
    /// that is after the erase (the §I window), so a stored 1 is lost
    /// whenever the erase pulse switches it; the read-only schemes never
    /// mutate the cell.
    /// The cut falls before any write-back, so the sensed bit is never
    /// used, but the sense still runs for its draw on the demand stream.
    /// The aborted read delivers no bit and charges no latency: the rail is
    /// down.
    fn serve_read_with_power_cut(&mut self, addr: Address) {
        self.telemetry.power_cuts += 1;
        let cell = self.array.index_of(addr);
        self.refresh(cell..cell + 1);
        let _ = self
            .scheme
            .sense_readonly(&self.array, addr, &mut self.streams.demand);
        if self.scheme.is_destructive() {
            let before = self.array.read_state(addr);
            self.array
                .write_bit_pulsed(addr, false, &mut self.streams.demand);
            if self.array.read_state(addr) != before {
                self.telemetry.corrupted_bits += 1;
            }
        }
        self.snap_stuck_cells();
    }

    fn serve_write(&mut self, addr: Address, bit: bool) {
        self.telemetry.writes += 1;
        let pulses_burned = self.write_cell(addr, bit, Stream::Demand);
        self.telemetry.busy_time += self.write_cost.latency() * f64::from(pulses_burned);
        self.telemetry.energy += self.write_cost.energy() * f64::from(pulses_burned);
        self.touch(addr);
    }

    /// Resets `addr`'s retention clock to now; a no-op when retention
    /// faults are off.
    fn touch(&mut self, addr: Address) {
        let index = self.array.index_of(addr);
        let now_ns = self.busy_now_ns();
        if let Some(last) = self.last_touch_ns.get_mut(index) {
            *last = now_ns;
        }
    }

    /// The write datapath shared by demand and March traffic: programming
    /// pulses on the stream's RNG, then every write-time defect hook in
    /// physical order — write transition fault, stuck snap, backhopping,
    /// intra-word coupling. Returns the pulses burned for the caller to
    /// price on its own clock. The truth mirror and ECC check store always
    /// track what the host *believes* it wrote; the defects corrupt only
    /// the stored state.
    fn write_cell(&mut self, addr: Address, bit: bool, stream: Stream) -> u32 {
        let index = self.array.index_of(addr);
        self.refresh(index..index + 1);
        let prior = self.array.read_state(addr).bit();
        let transition_lost = prior != bit
            && self
                .faults
                .transition_faults
                .iter()
                .any(|fault| fault.addr == addr && fault.rising == bit);
        let pulses_burned = if transition_lost {
            // WTF: the pulse is driven (and priced) but the free layer never
            // switches in this direction — and the same defect defeats the
            // read-verify loop, so the failure is silent: the controller
            // believes the first pulse stuck.
            self.telemetry.write_transition_faults += 1;
            1
        } else {
            let array = &mut self.array;
            let rng = self.streams.pulses(stream);
            match array.write_bit_verified(addr, bit, MAX_WRITE_ATTEMPTS, rng) {
                Some(used) => {
                    self.telemetry.write_retries += u64::from(used - 1);
                    used
                }
                None => {
                    self.telemetry.write_failures += 1;
                    MAX_WRITE_ATTEMPTS
                }
            }
        };
        set_bit(&mut self.truth, index, bit);
        self.snap_stuck_cells();
        // Backhopping: a completed write hops back before the next access.
        if !transition_lost {
            let prob = self
                .faults
                .backhop_cells
                .iter()
                .find(|cell| cell.addr == addr)
                .map(|cell| cell.prob);
            if let Some(prob) = prob {
                if self.streams.pulses(stream).gen_bool(prob) {
                    self.array.write_bit(addr, !bit);
                    self.telemetry.backhop_flips += 1;
                }
            }
        }
        self.apply_coupling(addr, index, bit, prior);
        // Controller-side read-modify-write: the check columns are refreshed
        // from the host's word, so they always match the truth mirror.
        if let Some(ecc) = &mut self.ecc {
            let word = index / WORD_BITS;
            ecc.check[word] = codec::encode(self.truth[word]);
        }
        pulses_burned
    }

    /// Evaluates intra-word coupling defects after a write to `addr` (the
    /// potential aggressor) settles. The CFst trigger is the *final stored*
    /// aggressor state — so a backhop or stuck defect on the aggressor
    /// participates — while the CFds trigger is the non-transition `w1`
    /// pulse itself (`prior && bit`). Victims are corrupted behind the
    /// host's back: the truth mirror is not updated.
    fn apply_coupling(&mut self, addr: Address, index: usize, bit: bool, prior: bool) {
        let word = index / WORD_BITS;
        let position = index % WORD_BITS;
        let stored = self.array.read_state(addr).bit();
        let mut forced: Vec<(usize, bool)> = Vec::new();
        for fault in &self.faults.coupling_faults {
            if fault.word != word || fault.aggressor_bit != position {
                continue;
            }
            let victim = fault.word * WORD_BITS + fault.victim_bit;
            if victim >= self.cell_count() {
                continue;
            }
            match fault.kind {
                CouplingKind::State {
                    aggressor_value,
                    victim_value,
                } if stored == aggressor_value => forced.push((victim, victim_value)),
                CouplingKind::Disturb { victim_value } if bit && prior => {
                    forced.push((victim, victim_value));
                }
                _ => {}
            }
        }
        let any_forced = !forced.is_empty();
        for (victim, value) in forced {
            self.array.write_bit(self.addr_of(victim), value);
            self.telemetry.coupling_triggers += 1;
        }
        if any_forced {
            // A stuck victim stays stuck: the defect dominates the coupling.
            self.snap_stuck_cells();
        }
    }

    /// One background scrub step: re-read the next word in the round-robin
    /// walk through the demand read datapath (on the dedicated scrub RNG
    /// stream), decode it, and **repair in place** — every cell whose
    /// stored state disagrees with the decoded word is rewritten, which
    /// fixes retention flips, read-disturb flips and power-cut damage alike
    /// as long as the word is still correctable.
    ///
    /// An *uncorrectable* word is raised to the host and reconstructed from
    /// the host's copy (the truth mirror stands in for the page cache /
    /// RAID layer a real system recovers from), the patrol-scrub →
    /// page-retirement → re-migration flow: the word costs one recoverable
    /// `scrub_ue_found` event instead of becoming a permanent demand-UE
    /// emitter that every later read of the word trips over. Without this,
    /// a single double-flip inside one scrub rotation poisons its word for
    /// the rest of the run — and a third flip on top miscorrects, so scrub
    /// would lock wrong data in place.
    ///
    /// Returns `false` when the bank runs without ECC (nothing to scrub
    /// against). What the step found and repaired lands in
    /// [`EccTelemetry`](crate::EccTelemetry). Scrub time is charged to
    /// `ecc.scrub_busy_time`, not the demand busy clock, so scrub never
    /// advances the retention decay it repairs; its energy joins the
    /// bank's total.
    pub fn scrub_next(&mut self) -> bool {
        let Some(state) = &mut self.ecc else {
            return false;
        };
        let (word, wrapped) = state.cursor.advance();
        let check = state.check[word];
        self.maybe_apply_drift();
        let span = self.word_span(word);
        let sense = self.read_span(span.clone(), Stream::Scrub);
        let mut latency = self.read_cost.latency() * f64::from(sense.slowest);
        let mut energy = self.read_cost.energy() * sense.attempts as f64;
        let decoded = codec::decode(sense.bits, check);
        let ecc = &mut self.telemetry.ecc;
        let target = match decoded.kind {
            DecodeKind::Clean => None,
            DecodeKind::Uncorrectable => {
                ecc.scrub_ue_found += 1;
                ecc.log_event(word, EccEventKind::ScrubUe);
                // Host-assisted reconstruction: restore the host's copy.
                // The check sidecar already holds encode(truth), so the
                // word re-reads clean afterwards.
                Some(self.truth[word])
            }
            _ => {
                ecc.scrub_ce_corrected += 1;
                ecc.log_event(word, EccEventKind::ScrubCe);
                // A transient mis-sense decodes to the stored state itself,
                // so nothing is rewritten (and no RNG is drawn) — scrub
                // stays a no-op on a healthy array.
                Some(decoded.data)
            }
        };
        if let Some(target) = target {
            let mut rewritten = 0;
            for (k, cell) in span.enumerate() {
                let addr = self.addr_of(cell);
                let bit = (target >> k) & 1 == 1;
                // The read above rebuilt every cell of the span, so the
                // rewrite pulses see current devices.
                if self.array.read_state(addr).bit() != bit {
                    let pulses = self
                        .array
                        .write_bit_verified(addr, bit, MAX_WRITE_ATTEMPTS, &mut self.streams.scrub)
                        .unwrap_or(MAX_WRITE_ATTEMPTS);
                    latency += self.write_cost.latency() * f64::from(pulses);
                    energy += self.write_cost.energy() * f64::from(pulses);
                    rewritten += 1;
                }
            }
            if rewritten > 0 {
                self.snap_stuck_cells();
            }
            self.telemetry.ecc.scrub_cells_rewritten += rewritten;
        }
        self.telemetry.ecc.scrub_words_scanned += 1;
        if wrapped {
            self.telemetry.ecc.scrub_passes += 1;
        }
        self.telemetry.ecc.scrub_busy_time += latency;
        self.telemetry.energy += energy;
        true
    }

    /// Advances dynamic drift to the bank's current busy-time temperature /
    /// age point. Quantised by [`DriftPlan`]'s step, so only a move to a new
    /// key does anything: it marks every cell stale, to be rebuilt at the
    /// new key by [`Self::refresh`] when an access next reads its device.
    /// A constant key, applied in [`Bank::new`], is never looked up again.
    fn maybe_apply_drift(&mut self) {
        let busy = self.busy_now_ns();
        let Some(state) = self.drift.as_mut().filter(|state| !state.stale.is_empty()) else {
            return;
        };
        let key = state.plan.key_at(self.index, busy);
        if state.key == key {
            return;
        }
        state.key = key;
        state.step = key.step();
        state.stale.fill(u64::MAX);
        self.work.key_changes += 1;
    }

    /// Rebuilds every cell of `span` (row-major, within one 64-cell word)
    /// that a key change left stale at the current drift key, and clears
    /// its settle codes: one stale-bitset test, and a rebuild for each set
    /// bit. Every path that reads a cell's device calls this first. The
    /// rebuild swaps the device for the drifted baseline, keeps the stored
    /// state and the sampled transistor, and draws **no** RNG — exactly the
    /// pinhole-swap pattern — so every stream stays bit-identical across
    /// serial, parallel and frontend dispatch, and a lazy rebuild equals an
    /// eager one.
    fn refresh(&mut self, span: Range<usize>) {
        let Some(state) = self.drift.as_mut() else {
            return;
        };
        let word = span.start / WORD_BITS;
        assert!(
            (span.end - 1) / WORD_BITS == word,
            "{span:?} crosses a word"
        );
        let Some(stale) = state.stale.get_mut(word) else {
            return;
        };
        let mut due = *stale & (u64::MAX >> (WORD_BITS - span.len()) << (span.start % WORD_BITS));
        *stale &= !due;
        while due != 0 {
            let cell = word * WORD_BITS + due.trailing_zeros() as usize;
            due &= due - 1;
            rebuild(&mut self.array, cell, &state.baseline[cell], &state.step);
            self.codes[cell] = SettleCodes::default();
            self.work.cell_rebuilds += 1;
        }
    }

    /// One calibration check on this bank, the daemon's entry point (the
    /// scheduler frontend offers it as periodic background work). Applies
    /// any pending drift first — an idle bank's temperature still follows
    /// the plan — then compares the error rate since the last check against
    /// the trip threshold; on a trip, runs the burst + refit. Returns `true`
    /// when a burst + refit ran.
    pub fn calibration_tick(&mut self, calib: &CalibConfig) -> bool {
        self.maybe_apply_drift();
        let reads = self.telemetry.reads - self.calib_reads_mark;
        let errors =
            (self.telemetry.misreads + self.telemetry.unconfident_reads) - self.calib_errors_mark;
        self.calib_reads_mark = self.telemetry.reads;
        self.calib_errors_mark = self.telemetry.misreads + self.telemetry.unconfident_reads;
        if reads == 0 || !calib.trips(errors, reads) {
            return false;
        }
        self.telemetry.calib.trips += 1;
        self.calibration_burst(*calib);
        true
    }

    /// A calibration burst: the time and energy of
    /// [`CalibConfig::burst_reads`] reference reads, then the β refit. The
    /// refit uses only the drifted nominal device, so the reads are priced,
    /// not sensed: no cell is read and no RNG drawn. Occupancy lands on
    /// `telemetry.calib.busy_time`, not the demand clock, so a burst never
    /// advances retention decay or the drift clock itself.
    fn calibration_burst(&mut self, calib: CalibConfig) {
        self.telemetry.calib.bursts += 1;
        self.telemetry.calib.burst_reads += u64::from(calib.burst_reads);
        self.telemetry.calib.busy_time += self.read_cost.latency() * f64::from(calib.burst_reads);
        self.telemetry.energy += self.read_cost.energy() * f64::from(calib.burst_reads);
        self.refit();
    }

    /// Re-runs the paper's Eq. 5/10 β optimiser against the *drifted*
    /// nominal device (nominal recipe pushed through the current drift key)
    /// and swaps the new operating point into this bank's read path. Read
    /// timing is deliberately left at the design-time cost: the SA's clamp
    /// and integration windows are hardware, only the current ratio β moves.
    /// A refit that changes the scheme clears every settle code.
    fn refit(&mut self) {
        let spec = match &self.drift {
            Some(state) => state.step.apply(&self.nominal_mtj),
            None => self.nominal_mtj.clone(),
        };
        let cell = Cell::new(spec.into_device(), self.nominal_transistor);
        let design = DesignPoint::date2010(&cell);
        let scheme = Scheme::for_kind(self.scheme.kind(), &design);
        if scheme != self.scheme {
            self.scheme = scheme;
            self.codes.fill(SettleCodes::default());
        }
        self.telemetry.calib.refits += 1;
        self.telemetry.calib.last_beta = match self.scheme.kind() {
            SchemeKind::Conventional => 0.0,
            SchemeKind::Destructive => design.destructive.beta(),
            SchemeKind::Nondestructive => design.nondestructive.beta(),
        };
    }

    /// The read datapath every read kind shares — demand (one cell or a
    /// whole word), scrub and March. In physical order: retention decay
    /// materialises on the span, its stale cells are rebuilt, the span is
    /// sensed through [`Scheme::resolve_span`] on `stream`'s RNG, a
    /// destructive scheme's write-back re-pins stuck cells, read disturb
    /// hits the span, and stuck cells are re-pinned over any soft-error
    /// flip. Pricing is the
    /// caller's: each read kind charges its own clock.
    fn read_span(&mut self, span: Range<usize>, stream: Stream) -> SpanSense {
        self.apply_retention(span.clone(), stream);
        self.refresh(span.clone());
        let mut sense = SpanSense {
            bits: 0,
            slowest: 1,
            attempts: 0,
            unconfident: false,
        };
        self.scheme.resolve_span(
            &self.retry,
            &mut self.array,
            span.clone(),
            self.streams.pulses(stream),
            &mut self.codes[span.clone()],
            &mut self.work.sense,
            |k, resolution| {
                sense.bits |= u64::from(resolution.bit) << k;
                sense.slowest = sense.slowest.max(resolution.attempts);
                sense.attempts += u64::from(resolution.attempts);
                sense.unconfident |= !resolution.confident;
            },
        );
        if self.scheme.is_destructive() {
            // The erase/write-back pulses may have hit a stuck cell.
            self.snap_stuck_cells();
        }
        self.apply_read_disturb(span, stream);
        if self.faults.has_soft_errors() {
            self.snap_stuck_cells();
        }
        sense
    }

    /// Materialises retention decay on every cell of `span`: each cell
    /// flips with the exponential-hazard probability of its idle span on
    /// the bank's busy-time clock, then has its clock reset. Draws nothing
    /// when retention faults are off.
    fn apply_retention(&mut self, span: Range<usize>, stream: Stream) {
        if self.faults.retention_rate_per_ns.is_none() {
            return;
        }
        let now_ns = self.busy_now_ns();
        for cell in span {
            let p = self
                .faults
                .retention_flip_prob(now_ns - self.last_touch_ns[cell]);
            self.last_touch_ns[cell] = now_ns;
            if p > 0.0 && self.streams.soft_errors(stream).gen_bool(p) {
                self.flip(cell);
                self.telemetry.retention_flips += 1;
            }
        }
    }

    /// Read disturb: after a sense, each cell of the victim span flips with
    /// the plan's per-read probability. Draws nothing when disabled.
    fn apply_read_disturb(&mut self, span: Range<usize>, stream: Stream) {
        let Some(p) = self.faults.read_disturb_prob else {
            return;
        };
        for cell in span {
            if self.streams.soft_errors(stream).gen_bool(p) {
                self.flip(cell);
                self.telemetry.read_disturb_flips += 1;
            }
        }
    }

    /// Inverts the stored state of `cell` (row-major) behind the host's
    /// back.
    fn flip(&mut self, cell: usize) {
        let states = self.array.states_mut();
        let stored = states.get(cell);
        states.set(cell, !stored);
    }

    /// The bank's stored bits right now, row-major — the quantity the
    /// scheduler frontend's bit-identity property compares against serial
    /// replay.
    #[must_use]
    pub fn stored_bits(&self) -> Vec<bool> {
        let states = self.array.states();
        (0..states.len()).map(|cell| states.get(cell)).collect()
    }

    /// Integrity audit: cells whose stored state disagrees with the host's
    /// truth mirror right now, a word at a time.
    #[must_use]
    pub fn audit_corrupted_bits(&self) -> u64 {
        self.array.states().count_differing(&self.truth)
    }

    /// Re-pins every stuck cell to its defect value (a stuck MTJ "accepts"
    /// the pulse, then relaxes straight back).
    fn snap_stuck_cells(&mut self) {
        for cell in &self.faults.stuck_cells {
            self.array.write_bit(cell.addr, cell.value);
        }
    }

    /// What the host believes cell `cell` (row-major) holds.
    fn truth_bit(&self, cell: usize) -> bool {
        (self.truth[cell / WORD_BITS] >> (cell % WORD_BITS)) & 1 == 1
    }

    fn cell_count(&self) -> usize {
        self.array.rows() * self.array.cols()
    }

    fn addr_of(&self, cell: usize) -> Address {
        let cols = self.array.cols();
        Address::new(cell / cols, cell % cols)
    }

    /// The cell range of ECC word `word` (the last word may be partial; its
    /// missing bits are constant zeros on both sides of the codec).
    fn word_span(&self, word: usize) -> Range<usize> {
        let start = word * WORD_BITS;
        start..(start + WORD_BITS).min(self.cell_count())
    }

    fn busy_now_ns(&self) -> f64 {
        self.telemetry.busy_time.get() * 1e9
    }
}

/// Sets bit `cell` of a row-major bit mirror packed 64 cells to a word.
fn set_bit(words: &mut [u64], cell: usize, bit: bool) {
    let mask = 1u64 << (cell % WORD_BITS);
    if bit {
        words[cell / WORD_BITS] |= mask;
    } else {
        words[cell / WORD_BITS] &= !mask;
    }
}

/// The linear-calibration spec of cell `cell`'s device (row-major).
///
/// # Panics
///
/// Panics if the device is not on the linear calibration, which drift
/// requires.
fn undrifted_spec(array: &Array, cell: usize) -> MtjSpec {
    let device = array
        .cell(Address::new(cell / array.cols(), cell % array.cols()))
        .device();
    let ResistanceCurve::Linear(rolloff) = device.curve() else {
        panic!("dynamic drift requires linear-calibration cells")
    };
    MtjSpec {
        resistance: *rolloff,
        switching: *device.switching(),
    }
}

/// Swaps cell `cell`'s device (row-major) for `reference` drifted by
/// `step`, keeping its sampled transistor (the stored state stays in the
/// plane).
fn rebuild(array: &mut Array, cell: usize, reference: &MtjSpec, step: &DriftStep) {
    let cell = &mut array.cells_mut()[cell];
    *cell = Cell::new(step.apply(reference).into_device(), *cell.transistor());
}

/// Latency/energy of one programming pulse (decode + pulse + driver
/// overhead). `ChipTiming` only prices reads; writes are scheme-independent.
fn write_cost(timing: &ChipTiming) -> OperationCost {
    OperationCost::new(vec![
        Phase::new(
            PhaseKind::Decode,
            "decode + WL",
            timing.decode,
            timing.decode_current,
            timing.vdd,
        ),
        Phase::new(
            PhaseKind::Write,
            "program pulse",
            timing.write_pulse + timing.write_overhead,
            timing.write_current,
            timing.vdd,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ThermalTransient;
    use crate::reliability::EccMode;
    use stt_sense::SchemeKind;

    fn small_config(kind: SchemeKind, faults: &FaultPlan) -> ControllerConfig {
        ControllerConfig::small(kind, 1)
            .with_seed(77)
            .with_faults(faults.clone())
    }

    fn small_bank(kind: SchemeKind, faults: &FaultPlan) -> Bank {
        Bank::new(0, &small_config(kind, faults))
    }

    fn small_ecc_bank(kind: SchemeKind, faults: &FaultPlan) -> Bank {
        Bank::new(0, &small_config(kind, faults).with_ecc(EccMode::Secded))
    }

    #[test]
    fn a_fresh_bank_audits_clean() {
        for kind in SchemeKind::ALL {
            let bank = small_bank(kind, &FaultPlan::none());
            assert_eq!(bank.audit_corrupted_bits(), 0, "{kind}");
            assert!(bank.ecc.is_none());
        }
    }

    #[test]
    fn writes_then_reads_round_trip() {
        let faults = FaultPlan::none();
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        let addr = Address::new(2, 5);
        for bit in [true, false, true] {
            bank.execute(&Transaction::write(0, addr, bit));
            bank.execute(&Transaction::read(0, addr));
        }
        assert_eq!(bank.telemetry().reads, 3);
        assert_eq!(bank.telemetry().writes, 3);
        assert_eq!(bank.telemetry().misreads, 0);
        assert_eq!(bank.audit_corrupted_bits(), 0);
    }

    #[test]
    fn read_latency_scales_with_attempts() {
        let faults = FaultPlan::none();
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::read(0, Address::new(1, 1)));
        let telemetry = bank.telemetry();
        // A single nondestructive read is 14 ns (ChipTiming::date2010 docs);
        // any retries add whole multiples of it.
        let attempts = 1 + telemetry.read_retries;
        let expected_ns = 14.0 * attempts as f64;
        assert!((telemetry.read_latency_ns.mean() - expected_ns).abs() < 1e-9);
    }

    #[test]
    fn stuck_cell_defeats_writes() {
        let addr = Address::new(3, 3);
        let faults = FaultPlan::none().with_stuck_cell(0, addr, false);
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::write(0, addr, true));
        bank.execute(&Transaction::read(0, addr));
        assert_eq!(
            bank.telemetry().misreads,
            1,
            "stuck-at-0 must defeat a write of 1"
        );
        assert!(bank.audit_corrupted_bits() >= 1);
    }

    #[test]
    fn power_cut_corrupts_destructive_reads_only() {
        // Cut every read; serve one read per scheme on a cell storing "1"
        // (the erase writes "0", so the destructive loss is visible).
        let addr = Address::new(4, 4);
        let faults = FaultPlan::none().with_power_cut_every(1);
        for kind in SchemeKind::ALL {
            let mut bank = small_bank(kind, &faults);
            bank.execute(&Transaction::write(0, addr, true));
            bank.execute(&Transaction::read(0, addr));
            let telemetry = bank.telemetry();
            assert_eq!(telemetry.power_cuts, 1, "{kind}");
            if kind == SchemeKind::Destructive {
                assert!(telemetry.corrupted_bits >= 1, "{kind}: erase must stick");
                assert!(bank.audit_corrupted_bits() >= 1, "{kind}");
            } else {
                assert_eq!(telemetry.corrupted_bits, 0, "{kind}: read path is inert");
                assert_eq!(bank.audit_corrupted_bits(), 0, "{kind}");
            }
        }
    }

    #[test]
    fn ecc_read_classifies_and_absorbs_a_stuck_cell() {
        // The 8×8 test array is exactly one ECC word. A stuck cell the host
        // writes against is a persistent single-bit error: without ECC it
        // is a misread, with ECC it is a corrected CE and the host gets the
        // right bit.
        let addr = Address::new(3, 3);
        let faults = FaultPlan::none().with_stuck_cell(0, addr, false);
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        assert!(bank.ecc.is_some());
        bank.execute(&Transaction::write(0, addr, true));
        bank.execute(&Transaction::read(0, addr));
        let ecc = &bank.telemetry().ecc;
        assert_eq!(ecc.corrected_ce, 1, "{ecc:?}");
        assert_eq!(ecc.detected_ue + ecc.silent_errors, 0);
        assert_eq!(
            bank.telemetry().misreads,
            0,
            "ECC must deliver the written bit despite the stuck cell"
        );
        assert_eq!(ecc.error_log.len(), 1);
        assert_eq!(ecc.error_log[0].kind, EccEventKind::DemandCe);
    }

    #[test]
    fn ecc_clean_reads_stay_clean() {
        let faults = FaultPlan::none();
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        for col in 0..4 {
            bank.execute(&Transaction::read(0, Address::new(0, col)));
        }
        let ecc = &bank.telemetry().ecc;
        assert_eq!(
            ecc.clean_reads + ecc.corrected_ce,
            4,
            "a healthy array decodes clean (or corrects a transient): {ecc:?}"
        );
        assert_eq!(ecc.detected_ue + ecc.silent_errors, 0);
        assert_eq!(bank.telemetry().misreads, 0);
        assert_eq!(ecc.words_total, 1);
    }

    #[test]
    fn ecc_word_read_charges_word_energy_single_read_latency() {
        let faults = FaultPlan::none();
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::read(0, Address::new(0, 0)));
        let telemetry = bank.telemetry();
        // 64 parallel sense amps: latency is one read times the slowest
        // cell's attempts, far below 64 serial reads.
        assert!(telemetry.read_latency_ns.mean() < 14.0 * 4.0);
        // Energy covers every cell of the word at least once. The single-cell
        // baseline may itself have retried (up to the policy's attempt cap),
        // so compare against a retry-robust multiple.
        let one_cell_read_energy = {
            let mut single = small_bank(SchemeKind::Nondestructive, &faults);
            single.execute(&Transaction::read(0, Address::new(0, 0)));
            single.telemetry().energy
        };
        assert!(telemetry.energy.get() >= one_cell_read_energy.get() * 8.0);
    }

    #[test]
    fn scrub_repairs_a_flipped_cell() {
        let faults = FaultPlan::none();
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        // Corrupt one stored cell behind the host's back (as a power cut or
        // retention flip would).
        let victim = Address::new(5, 5);
        let stored = bank.array.read_state(victim).bit();
        bank.array.write_bit(victim, !stored);
        assert_eq!(bank.audit_corrupted_bits(), 1);
        assert!(bank.scrub_next(), "ECC bank must scrub");
        assert_eq!(bank.audit_corrupted_bits(), 0, "scrub must repair in place");
        let ecc = &bank.telemetry().ecc;
        assert_eq!(ecc.scrub_ce_corrected, 1, "{ecc:?}");
        assert_eq!(ecc.scrub_cells_rewritten, 1);
        assert_eq!(ecc.scrub_passes, 1, "single-word bank wraps every scan");
    }

    #[test]
    fn scrub_charges_every_sense_attempt_of_its_word() {
        let faults = FaultPlan::none();
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        let before = bank.telemetry().energy;
        assert!(bank.scrub_next(), "ECC bank must scrub");
        assert_eq!(
            bank.telemetry().ecc.scrub_cells_rewritten,
            0,
            "a healthy word needs no repair"
        );
        // Like a demand word read, energy sums every cell's attempts: at
        // least one sense per cell of the word.
        let charged = (bank.telemetry().energy - before).get();
        let floor = bank.read_cost.energy().get() * WORD_BITS as f64;
        assert!(charged >= floor, "scrub charged {charged} J < {floor} J");
    }

    #[test]
    fn scrub_without_ecc_is_refused() {
        let mut bank = small_bank(SchemeKind::Nondestructive, &FaultPlan::none());
        assert!(!bank.scrub_next());
    }

    #[test]
    fn scrub_on_a_healthy_bank_leaves_state_and_demand_stream_alone() {
        let faults = FaultPlan::none();
        let mut scrubbed = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        let mut control = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        for _ in 0..8 {
            assert!(scrubbed.scrub_next());
            assert_eq!(scrubbed.telemetry().ecc.scrub_cells_rewritten, 0);
        }
        assert_eq!(scrubbed.stored_bits(), control.stored_bits());
        // Demand reads after scrubbing see the exact same RNG stream.
        let addr = Address::new(2, 2);
        for _ in 0..16 {
            scrubbed.execute(&Transaction::read(0, addr));
            control.execute(&Transaction::read(0, addr));
        }
        assert_eq!(scrubbed.telemetry().misreads, control.telemetry().misreads);
        assert_eq!(
            scrubbed.telemetry().read_retries,
            control.telemetry().read_retries
        );
    }

    #[test]
    fn retention_faults_flip_idle_cells_and_ecc_corrects_them() {
        // An aggressive decay rate against a bank kept busy by writes to one
        // cell: other cells of the word accumulate idle time and flip.
        let faults = FaultPlan::none().with_retention_rate(1e-3);
        let mut bank = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        let hot = Address::new(0, 0);
        for k in 0..200 {
            bank.execute(&Transaction::write(0, hot, k % 2 == 0));
            bank.execute(&Transaction::read(0, hot));
        }
        assert!(
            bank.telemetry().retention_flips > 0,
            "accelerated decay must flip something"
        );
    }

    #[test]
    fn read_disturb_flips_are_counted() {
        let faults = FaultPlan::none().with_read_disturb(0.2);
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        let addr = Address::new(1, 1);
        for _ in 0..50 {
            bank.execute(&Transaction::read(0, addr));
        }
        assert!(bank.telemetry().read_disturb_flips > 0);
    }

    #[test]
    fn soft_fault_streams_leave_quiet_plans_bit_identical() {
        // A plan with soft-error models *present but the bank untouched by
        // them* must not perturb the demand stream: same seed, same reads,
        // same outcomes as a no-fault run. The rates are so small that no
        // cell flips, but `b` still draws every retention and disturb
        // trial, from its fault stream.
        let quiet = FaultPlan::none();
        let soft = FaultPlan::none()
            .with_retention_rate(1e-15)
            .with_read_disturb(1e-12);
        let mut a = small_bank(SchemeKind::Nondestructive, &quiet);
        let mut b = small_bank(SchemeKind::Nondestructive, &soft);
        for col in 0..8 {
            let addr = Address::new(4, col);
            a.execute(&Transaction::read(0, addr));
            b.execute(&Transaction::read(0, addr));
        }
        assert_eq!(a.telemetry(), b.telemetry());
        assert_eq!(a.stored_bits(), b.stored_bits());
        assert_eq!(
            a.streams.demand.gen::<u64>(),
            b.streams.demand.gen::<u64>(),
            "soft-error draws must leave the demand stream where it was"
        );
    }

    #[test]
    fn transition_fault_silently_loses_the_failing_direction() {
        let addr = Address::new(2, 6);
        let faults = FaultPlan::none().with_transition_fault(0, addr, true);
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        // Falling writes are healthy (the fault is rising-only)...
        bank.execute(&Transaction::write(0, addr, false));
        assert_eq!(bank.telemetry().write_transition_faults, 0);
        assert!(!bank.array.read_state(addr).bit());
        // ...but the 0→1 transition is silently lost: one pulse charged,
        // the array unchanged, the truth mirror fooled.
        bank.execute(&Transaction::write(0, addr, true));
        assert_eq!(bank.telemetry().write_transition_faults, 1);
        assert!(
            !bank.array.read_state(addr).bit(),
            "the write must not land"
        );
        bank.execute(&Transaction::read(0, addr));
        assert_eq!(bank.telemetry().misreads, 1, "the host sees stale data");
        assert!(bank.audit_corrupted_bits() >= 1);
    }

    #[test]
    fn backhopping_flips_a_completed_write() {
        let addr = Address::new(5, 2);
        let faults = FaultPlan::none().with_backhop(0, addr, 1.0);
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::write(0, addr, true));
        assert_eq!(bank.telemetry().backhop_flips, 1);
        assert!(
            !bank.array.read_state(addr).bit(),
            "a p=1 backhop must undo every completed write"
        );
        assert!(bank.audit_corrupted_bits() >= 1);
    }

    #[test]
    fn state_coupling_forces_the_victim_on_aggressor_writes() {
        // The 8×8 test array is one 64-bit word: aggressor bit 4 is cell
        // (0,4), victim bit 11 is cell (1,3).
        let aggressor = Address::new(0, 4);
        let victim = Address::new(1, 3);
        let faults = FaultPlan::none().with_coupling_fault(
            0,
            0,
            4,
            11,
            CouplingKind::State {
                aggressor_value: true,
                victim_value: true,
            },
        );
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::write(0, victim, false));
        let triggers_before = bank.telemetry().coupling_triggers;
        bank.execute(&Transaction::write(0, aggressor, true));
        assert_eq!(bank.telemetry().coupling_triggers, triggers_before + 1);
        assert!(
            bank.array.read_state(victim).bit(),
            "the victim must be forced to the coupled value"
        );
        assert!(bank.audit_corrupted_bits() >= 1, "the host never wrote it");
    }

    #[test]
    fn disturb_coupling_needs_a_non_transition_write_to_fire() {
        let aggressor = Address::new(0, 4);
        let victim = Address::new(1, 3);
        let faults = FaultPlan::none().with_coupling_fault(
            0,
            0,
            4,
            11,
            CouplingKind::Disturb { victim_value: true },
        );
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute(&Transaction::write(0, victim, false));
        bank.execute(&Transaction::write(0, aggressor, false));
        // The transition write 0→1 does not sensitise CFds...
        bank.execute(&Transaction::write(0, aggressor, true));
        assert_eq!(bank.telemetry().coupling_triggers, 0);
        assert!(!bank.array.read_state(victim).bit());
        // ...the non-transition w1 does.
        bank.execute(&Transaction::write(0, aggressor, true));
        assert_eq!(bank.telemetry().coupling_triggers, 1);
        assert!(bank.array.read_state(victim).bit());
    }

    #[test]
    fn a_pinhole_cell_senses_zero_under_every_scheme() {
        let addr = Address::new(3, 2);
        let faults = FaultPlan::none().with_pinhole(0, addr);
        for kind in SchemeKind::ALL {
            let mut bank = small_bank(kind, &faults);
            // The write datapath works (verified by state read-back), but
            // the collapsed TMR leaves nothing for the sense amp to see.
            bank.execute(&Transaction::write(0, addr, true));
            bank.execute(&Transaction::read(0, addr));
            assert_eq!(
                bank.telemetry().misreads,
                1,
                "{kind}: a stored 1 must sense as 0 through a pinhole"
            );
        }
    }

    /// A step hot-spot on bank 0 from t = 0: +60 K at tc = 0.01/K
    /// flattens the high-state roll-off to ~62 % of its calibrated reach,
    /// driving the static-β nondestructive stored-1 margin decisively
    /// negative (≈ −3.6 mV): every stored-1 read misreads. A refit β
    /// re-equalises both margins at ≈ +3.3 mV — bit-correct again, though
    /// still inside the 8 mV confidence guard band, so retry pressure
    /// (the daemon's trip signal) persists while the hot-spot holds.
    fn hot_plan() -> DriftPlan {
        DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 0.0,
            ramp_ns: 0.0,
            hold_ns: 1e12,
            fall_ns: 0.0,
            amplitude_k: 60.0,
        })
    }

    fn hammer_reads(bank: &mut Bank, addr: Address, reads: usize) {
        for _ in 0..reads {
            bank.execute(&Transaction::read(0, addr));
        }
    }

    #[test]
    fn thermal_drift_degrades_static_beta_reads() {
        let faults = FaultPlan::none();
        let addr = Address::new(2, 2);
        let config = small_config(SchemeKind::Nondestructive, &faults).with_drift(hot_plan());
        let mut bank = Bank::new(0, &config);
        bank.execute(&Transaction::write(0, addr, true));
        hammer_reads(&mut bank, addr, 40);
        let telemetry = bank.telemetry();
        assert!(
            telemetry.misreads + telemetry.unconfident_reads > 10,
            "a 150 K excursion must collapse the stored-1 margin under the \
             design-time beta (got {} misreads, {} unconfident)",
            telemetry.misreads,
            telemetry.unconfident_reads
        );
    }

    #[test]
    fn quiet_drift_plan_is_bit_identical_to_no_plan() {
        let faults = FaultPlan::none();
        let config = small_config(SchemeKind::Nondestructive, &faults);
        let mut plain = Bank::new(0, &config);
        let mut quiet = Bank::new(0, &config.clone().with_drift(DriftPlan::quiet()));
        for k in 0..50 {
            let addr = Address::new(k % 8, (3 * k) % 8);
            let txn = if k % 3 == 0 {
                Transaction::write(0, addr, k % 2 == 0)
            } else {
                Transaction::read(0, addr)
            };
            plain.execute(&txn);
            quiet.execute(&txn);
        }
        assert_eq!(plain.telemetry(), quiet.telemetry());
        assert_eq!(plain.stored_bits(), quiet.stored_bits());
    }

    #[test]
    fn inline_calibration_trips_and_recovers_the_misread_rate() {
        let faults = FaultPlan::none();
        let addr = Address::new(2, 2);
        let config = small_config(SchemeKind::Nondestructive, &faults).with_drift(hot_plan());
        let calib = CalibConfig::date2010();

        let mut statics = Bank::new(0, &config);
        let mut calibrated = Bank::new(0, &config);
        for bank in [&mut statics, &mut calibrated] {
            bank.execute(&Transaction::write(0, addr, true));
        }
        hammer_reads(&mut statics, addr, 192);
        // A check every 64 demand reads, as a daemon ticking in the gaps of
        // a steady read stream would.
        for _ in 0..3 {
            hammer_reads(&mut calibrated, addr, 64);
            calibrated.calibration_tick(&calib);
        }
        // Static β under the hot-spot: the stored-1 margin is negative, so
        // every one of the 192 reads delivers the wrong bit.
        assert_eq!(statics.telemetry().misreads, 192);
        let calib = &calibrated.telemetry().calib;
        assert!(calib.trips >= 1, "the error rate must trip the daemon");
        assert_eq!(calib.bursts, calib.trips);
        assert_eq!(calib.refits, calib.trips);
        assert_eq!(calib.burst_reads, 32 * calib.bursts);
        assert!(calib.busy_time.get() > 0.0);
        assert!(
            calib.last_beta > 1.9 && calib.last_beta < 2.3,
            "the refit beta stays near the paper's operating point, got {}",
            calib.last_beta
        );
        // The first trip fires at the first tick (64 reads in); from the
        // refit onward the delivered bits are correct again.
        let misread_calibrated = calibrated.telemetry().misreads;
        assert!(
            misread_calibrated * 2 < statics.telemetry().misreads,
            "recalibration must recover most of the misread rate \
             (static {}, calibrated {misread_calibrated})",
            statics.telemetry().misreads
        );
        // The hot-spot narrows the sensing window below the 8 mV guard
        // band, so reads stay retry-resolved (unconfident) even after the
        // refit — exactly the standing signal the trip detector watches.
        assert!(
            calibrated.telemetry().unconfident_reads > misread_calibrated,
            "retry pressure persists while the transient holds"
        );
        assert_eq!(
            calibrated.audit_corrupted_bits(),
            0,
            "calibration bursts are read-only"
        );
    }

    #[test]
    fn calibration_tick_is_the_frontend_entry_point() {
        let faults = FaultPlan::none();
        let addr = Address::new(2, 2);
        let config = small_config(SchemeKind::Nondestructive, &faults).with_drift(hot_plan());
        let mut bank = Bank::new(0, &config);
        let calib = CalibConfig::date2010();
        assert!(
            !bank.calibration_tick(&calib),
            "no reads yet, nothing to trip on"
        );
        bank.execute(&Transaction::write(0, addr, true));
        hammer_reads(&mut bank, addr, 40);
        assert!(bank.calibration_tick(&calib), "a 25 %+ error rate trips");
        assert_eq!(bank.telemetry().calib.refits, 1);
        assert!(
            !bank.calibration_tick(&calib),
            "the mark advanced: no new reads, no second trip"
        );
    }

    #[test]
    fn raw_march_reads_bypass_the_codec() {
        let addr = Address::new(3, 3); // row-major cell 27
        let faults = FaultPlan::none().with_stuck_cell(0, addr, false);
        // Decoded reads: SECDED absorbs the single stuck cell, the tester
        // sees a passing part. Raw reads: the defect is observed directly.
        let mut decoded = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        decoded.execute_march_op(27, MarchOp::W(true), 1, false);
        decoded.execute_march_op(27, MarchOp::R(true), 1, false);
        assert_eq!(
            decoded.telemetry().march.mismatches,
            0,
            "the codec must absorb a single stuck cell on the decoded path"
        );
        let mut raw = small_ecc_bank(SchemeKind::Nondestructive, &faults);
        raw.execute_march_op(27, MarchOp::W(true), 1, true);
        raw.execute_march_op(27, MarchOp::R(true), 1, true);
        assert_eq!(
            raw.telemetry().march.mismatches,
            1,
            "raw mode must observe the stuck cell the codec hides"
        );
    }

    /// FNV-1a over a byte string: a small, dependency-free fingerprint.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins every read datapath — demand (plain and word), scrub, decoded
    /// and raw March — under stuck cells, retention and read disturb. Each
    /// datapath draws its senses and soft errors from its own stream, so a
    /// read that takes the wrong stream, or disturbs the wrong span, moves
    /// the fingerprint of the bank's telemetry and stored bits. The pins
    /// move only with an intended change to simulated results.
    #[test]
    fn read_datapaths_are_pinned_under_soft_errors() {
        use crate::march::{DataBackground, MarchAlgorithm};
        use rand::SeedableRng;

        let faults = FaultPlan::none()
            .with_stuck_cell(0, Address::new(0, 3), true)
            .with_stuck_cell(0, Address::new(5, 6), false)
            .with_retention_rate(2e-5)
            .with_read_disturb(0.02);
        // March C− over the first row: 80 steps a pass, so the run below
        // completes a decoded pass and most of a raw one.
        let march =
            MarchAlgorithm::CMinus
                .program()
                .lower_with_background(8, 1, DataBackground::Solid);
        let pins = [
            (
                SchemeKind::Conventional,
                EccMode::None,
                0x2386_02b4_b394_12fa,
            ),
            (
                SchemeKind::Conventional,
                EccMode::Secded,
                0x7aee_3f08_4069_cde0,
            ),
            (
                SchemeKind::Destructive,
                EccMode::None,
                0x237a_2bd2_aad9_2e95,
            ),
            (
                SchemeKind::Destructive,
                EccMode::Secded,
                0x5248_fd74_02e0_dab0,
            ),
            (
                SchemeKind::Nondestructive,
                EccMode::None,
                0x0833_cd33_bc82_53c5,
            ),
            (
                SchemeKind::Nondestructive,
                EccMode::Secded,
                0x9157_8f07_d89f_05f3,
            ),
        ];
        for (kind, ecc, expected) in pins {
            let mut bank = Bank::new(0, &small_config(kind, &faults).with_ecc(ecc));
            let mut traffic = StdRng::seed_from_u64(31);
            let mut marched = 0;
            for step in 0..400 {
                let addr = Address::new(traffic.gen_range(0..8), traffic.gen_range(0..8));
                let txn = if traffic.gen_bool(0.6) {
                    Transaction::read(0, addr)
                } else {
                    Transaction::write(0, addr, traffic.gen_bool(0.5))
                };
                bank.execute(&txn);
                if step % 7 == 0 {
                    let _ = bank.scrub_next();
                }
                if step % 3 == 0 {
                    let op = march[marched % march.len()];
                    let raw = (marched / march.len()) % 2 == 1;
                    bank.execute_march_op(op.cell, op.op, op.element, raw);
                    marched += 1;
                }
            }
            let telemetry = bank.telemetry();
            assert!(
                telemetry.retention_flips > 0 && telemetry.read_disturb_flips > 0,
                "{kind}/{}: both soft-error models must fire",
                ecc.name()
            );
            let fingerprint = fnv1a(format!("{telemetry:?}{:?}", bank.stored_bits()).as_bytes());
            assert_eq!(
                fingerprint,
                expected,
                "{kind}/{}: simulated results moved (got {fingerprint:#018x})",
                ecc.name()
            );
        }
    }

    /// Pins a drifting, calibrated bank under each scheme: bank 0 warms
    /// through a ramp and cools again, so its drift key moves a step at a
    /// time, and bank 1 sits at a constant 310 K behind SECDED. Demand reads and writes,
    /// scrub, raw March, power cuts and calibration ticks all touch drifted
    /// cells, and the refits move β. A 16 × 10 bank spans two and a half
    /// ECC words, so reads touch only part of the array between key
    /// changes. The pins move only with an intended change to simulated
    /// results.
    #[test]
    fn drifting_calibrated_banks_are_pinned() {
        use crate::march::{DataBackground, MarchAlgorithm};
        use rand::SeedableRng;

        let drift = DriftPlan::quiet()
            .with_ambient(310.0)
            .with_transient(ThermalTransient {
                bank: 0,
                start_ns: 200.0,
                ramp_ns: 1_500.0,
                hold_ns: 800.0,
                fall_ns: 1_500.0,
                amplitude_k: 60.0,
            });
        let faults = FaultPlan::none()
            .with_power_cut_every(23)
            .with_retention_rate(1e-5);
        let mut spec = stt_array::ArraySpec::small_test_array();
        spec.rows = 16;
        spec.cols = 10;
        spec.bitline.cells_per_bitline = 16;
        let march =
            MarchAlgorithm::CMinus
                .program()
                .lower_with_background(160, 1, DataBackground::Solid);
        let calib = CalibConfig::date2010();
        let pins = [
            (SchemeKind::Conventional, 0, 0x3f26_7ab6_caa9_e24f),
            (SchemeKind::Conventional, 1, 0x5c14_4eff_40a2_374c),
            (SchemeKind::Destructive, 0, 0xd06c_37b9_e64b_6e84),
            (SchemeKind::Destructive, 1, 0x2a8e_5883_50ee_f674),
            (SchemeKind::Nondestructive, 0, 0xc77e_5151_f0b4_5a40),
            (SchemeKind::Nondestructive, 1, 0x4d96_d0f7_0d8c_9cc7),
        ];
        for (kind, index, expected) in pins {
            let mut config = ControllerConfig::small(kind, 2)
                .with_seed(91)
                .with_faults(faults.clone())
                .with_drift(drift.clone());
            config.spec = spec.clone();
            if index == 1 {
                config = config.with_ecc(EccMode::Secded);
            }
            let mut bank = Bank::new(index, &config);
            let mut traffic = StdRng::seed_from_u64(47);
            for step in 0..600 {
                let addr = Address::new(traffic.gen_range(0..16), traffic.gen_range(0..10));
                let txn = if traffic.gen_bool(0.6) {
                    Transaction::read(0, addr)
                } else {
                    Transaction::write(0, addr, traffic.gen_bool(0.5))
                };
                bank.execute(&txn);
                if step % 5 == 0 {
                    let _ = bank.scrub_next();
                }
                if step % 11 == 0 {
                    let op = march[(step / 11) % march.len()];
                    bank.execute_march_op(op.cell, op.op, op.element, true);
                }
                if step % 16 == 0 {
                    let _ = bank.calibration_tick(&calib);
                }
            }
            let telemetry = bank.telemetry();
            assert!(telemetry.power_cuts > 0, "{kind}/bank {index}");
            assert!(
                index == 1 || telemetry.calib.refits > 0,
                "{kind}: the hot bank must refit"
            );
            let fingerprint = fnv1a(format!("{telemetry:?}{:?}", bank.stored_bits()).as_bytes());
            assert_eq!(
                fingerprint, expected,
                "{kind}/bank {index}: simulated results moved (got {fingerprint:#018x})"
            );
        }
    }

    /// Pins the work of a drifting SECDED bank under each scheme, not just
    /// its results: bank 0 warms through a ramp and cools again while
    /// demand reads and writes, scrub, raw March and calibration ticks all
    /// read drifted cells. Every [`BankWork`] count is exact per seed, so a
    /// change that does more (or less) sensing, filling or rebuilding fails
    /// here whatever the host's timing noise. The pins move only with an
    /// intended change to the work a bank does.
    #[test]
    fn drifting_ecc_bank_work_is_pinned() {
        use crate::march::{DataBackground, MarchAlgorithm};
        use rand::SeedableRng;

        let drift = DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 200.0,
            ramp_ns: 1_500.0,
            hold_ns: 800.0,
            fall_ns: 1_500.0,
            amplitude_k: 60.0,
        });
        let faults = FaultPlan::none()
            .with_power_cut_every(23)
            .with_retention_rate(1e-5);
        let mut spec = stt_array::ArraySpec::small_test_array();
        spec.rows = 16;
        spec.cols = 10;
        spec.bitline.cells_per_bitline = 16;
        let march =
            MarchAlgorithm::CMinus
                .program()
                .lower_with_background(160, 1, DataBackground::Solid);
        let calib = CalibConfig::date2010();
        let work = |attempts, exact, fills, cell_rebuilds, key_changes| BankWork {
            sense: SenseWork {
                attempts,
                exact,
                fills,
            },
            cell_rebuilds,
            key_changes,
        };
        // Each scheme's guard band sits near its cells' differentials, so
        // reads retry, fall back and trip the calibration daemon.
        let pins = [
            (
                SchemeKind::Conventional,
                20.0,
                work(28_043, 580, 6_903, 6_461, 60),
            ),
            (
                SchemeKind::Destructive,
                70.0,
                work(29_204, 392, 3_690, 3_317, 41),
            ),
            (
                SchemeKind::Nondestructive,
                8.0,
                work(40_641, 4_105, 5_211, 4_800, 60),
            ),
        ];
        for (kind, guard_mv, expected) in pins {
            let mut config = ControllerConfig::small(kind, 1)
                .with_seed(91)
                .with_faults(faults.clone())
                .with_ecc(EccMode::Secded)
                .with_drift(drift.clone());
            config.spec = spec.clone();
            config.retry.guard_band = stt_units::Volts::from_milli(guard_mv);
            let mut bank = Bank::new(0, &config);
            let mut traffic = StdRng::seed_from_u64(47);
            for step in 0..600 {
                let addr = Address::new(traffic.gen_range(0..16), traffic.gen_range(0..10));
                let txn = if traffic.gen_bool(0.6) {
                    Transaction::read(0, addr)
                } else {
                    Transaction::write(0, addr, traffic.gen_bool(0.5))
                };
                bank.execute(&txn);
                if step % 5 == 0 {
                    let _ = bank.scrub_next();
                }
                if step % 11 == 0 {
                    let op = march[(step / 11) % march.len()];
                    bank.execute_march_op(op.cell, op.op, op.element, true);
                }
                if step % 16 == 0 {
                    let _ = bank.calibration_tick(&calib);
                }
            }
            assert!(
                bank.telemetry().calib.bursts > 0,
                "{kind}: a burst must run"
            );
            assert_eq!(bank.work(), expected, "{kind}: the bank's work moved");
        }
    }

    /// `true` when `cell` is not stale and holds exactly the device an
    /// eager rebuild at the bank's current key would have given it.
    fn rebuilt(bank: &Bank, cell: usize) -> bool {
        let state = bank.drift.as_ref().expect("a drifting bank");
        let stale = (state.stale[cell / WORD_BITS] >> (cell % WORD_BITS)) & 1 == 1;
        let key = state.plan.key_at(bank.index, bank.busy_now_ns());
        let eager = state.plan.drifted_spec(&state.baseline[cell], key);
        !stale && *bank.array.cell(bank.addr_of(cell)).device() == eager.into_device()
    }

    /// Each path that reads a cell's device rebuilds the stale cells it
    /// touches to exactly the eager result, and leaves every other cell
    /// stale. A read whose outcome a stale device would not move — a power
    /// cut's sense — still passes through the rebuild.
    #[test]
    fn device_reading_paths_rebuild_the_cells_they_touch() {
        let config = ControllerConfig::small(SchemeKind::Destructive, 1)
            .with_seed(3)
            .with_ecc(EccMode::Secded)
            .with_drift(hot_plan());
        let plain = |faults: FaultPlan| {
            let mut config = config.clone().with_faults(faults);
            config.ecc = EccMode::None;
            Bank::new(0, &config)
        };
        let untouched = 63;

        let mut bank = plain(FaultPlan::none());
        bank.execute(&Transaction::write(0, Address::new(1, 2), true));
        assert!(rebuilt(&bank, 10), "a write rebuilds its cell");
        bank.execute(&Transaction::read(0, Address::new(2, 3)));
        assert!(rebuilt(&bank, 19), "a plain read rebuilds its cell");
        assert!(!rebuilt(&bank, untouched));

        let mut bank = plain(FaultPlan::none().with_power_cut_every(1));
        bank.execute(&Transaction::read(0, Address::new(0, 5)));
        assert_eq!(bank.telemetry().power_cuts, 1);
        assert!(rebuilt(&bank, 5), "a power-cut read rebuilds its cell");
        assert!(!rebuilt(&bank, untouched));

        let mut bank = Bank::new(0, &config);
        let victim = Address::new(0, 7);
        let stored = bank.array.read_state(victim).bit();
        bank.array.write_bit(victim, !stored);
        assert!(bank.scrub_next());
        assert_eq!(bank.telemetry().ecc.scrub_cells_rewritten, 1);
        assert!(
            (0..64).all(|cell| rebuilt(&bank, cell)),
            "scrub rebuilds its word"
        );
    }

    /// The smallest `u1` the settle bound before the exact form decided:
    /// `1/(1 + (1 − ε)k²/2)`, from `ln u ≥ 1 − 1/u`, under the same limits
    /// on `k` and `room`.
    fn loose_threshold(differential: f64, guard: f64, sigma: f64) -> f64 {
        let margin = differential.abs();
        let room = if margin > guard {
            margin - guard
        } else {
            (guard - margin).min(margin)
        };
        let k = room / sigma;
        if !(sigma > 0.0 && k >= 1e-3 && room >= 1e-6 * guard) {
            return f64::INFINITY;
        }
        1.0 / (1.0 + (1.0 - 1e-9) * k * k / 2.0)
    }

    /// A paper-scale nondestructive bank behind SECDED, warmed through a
    /// ramp with the calibration daemon ticking: the work counters show
    /// the lazy rebuild and the exact settle bound paying.
    #[test]
    fn settle_codes_and_lazy_rebuilds_cut_the_work_of_a_hot_bank() {
        use crate::sense::SenseWork;
        use rand::SeedableRng;
        use stt_sense::SenseScheme;
        use stt_stats::dist::box_muller_uniforms;

        let drift = DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 5_000.0,
            ramp_ns: 30_000.0,
            hold_ns: 20_000.0,
            fall_ns: 30_000.0,
            amplitude_k: 60.0,
        });
        let config = ControllerConfig::date2010(SchemeKind::Nondestructive, 1)
            .with_seed(5)
            .with_ecc(EccMode::Secded)
            .with_drift(drift);
        let mut bank = Bank::new(0, &config);
        let calib = CalibConfig::date2010();
        let mut traffic = StdRng::seed_from_u64(13);
        for step in 0..3_000 {
            let addr = Address::new(traffic.gen_range(0..128), traffic.gen_range(0..128));
            let txn = if traffic.gen_bool(0.7) {
                Transaction::read(0, addr)
            } else {
                Transaction::write(0, addr, traffic.gen_bool(0.5))
            };
            bank.execute(&txn);
            if step % 50 == 0 {
                let _ = bank.calibration_tick(&calib);
            }
        }
        let work = bank.work();
        let cells = bank.cell_count();
        assert!(bank.telemetry().calib.refits > 0, "the hot bank must refit");
        assert!(work.key_changes > 20, "{work:?}");
        assert!(
            work.cell_rebuilds < work.key_changes * cells as u64,
            "rebuilds must stay lazy: {work:?}"
        );
        assert!(work.sense.exact < work.sense.attempts, "{work:?}");
        assert!(work.sense.fills <= work.sense.attempts, "{work:?}");

        // One more read of every cell of the warmed, refitted bank through
        // its settle codes, against the loose bound on the same draws: the
        // reference chain from an equal RNG, whose attempts' `u1` the loose
        // bound would have sent to the exact path.
        let Scheme::Nondestructive(scheme) = bank.scheme else {
            unreachable!("a nondestructive bank")
        };
        let sigma = scheme.amplifier().offset_sigma().get();
        let guard = bank.retry.guard_band.get();
        let mut rng = StdRng::seed_from_u64(17);
        let mut coded = SenseWork::default();
        let mut loose_exact = 0;
        for cell in 0..cells {
            bank.refresh(cell..cell + 1);
            let addr = bank.addr_of(cell);
            let mut reference_rng = rng.clone();
            let mut resolution = None;
            bank.scheme.resolve_span(
                &bank.retry,
                &mut bank.array,
                cell..cell + 1,
                &mut rng,
                &mut bank.codes[cell..=cell],
                &mut coded,
                |_, read| resolution = Some(read),
            );
            let d = scheme.differential(bank.array.cell(addr), bank.array.read_state(addr));
            let loose = loose_threshold(d.get(), guard, sigma);
            let reference = bank.retry.resolve(|| {
                let (u1, _) = box_muller_uniforms(&mut reference_rng.clone());
                if u1 < loose {
                    loose_exact += 1;
                }
                bank.scheme
                    .sense_readonly(&bank.array, addr, &mut reference_rng)
            });
            assert_eq!(resolution, Some(reference), "cell {cell}");
        }
        let share = coded.exact as f64 / coded.attempts as f64;
        let loose_share = f64::from(loose_exact) / coded.attempts as f64;
        assert!(
            share <= 0.6 * loose_share,
            "exact-path share {share:.4} against {loose_share:.4} under the loose bound"
        );
    }

    #[test]
    fn execute_march_op_attributes_failures_to_elements() {
        let addr = Address::new(3, 3); // row-major cell 27
        let faults = FaultPlan::none().with_stuck_cell(0, addr, false);
        let mut bank = small_bank(SchemeKind::Nondestructive, &faults);
        bank.execute_march_op(27, MarchOp::W(true), 1, false);
        bank.execute_march_op(27, MarchOp::R(true), 1, false);
        let march = &bank.telemetry().march;
        assert_eq!(march.ops, 2);
        assert_eq!((march.writes, march.reads), (1, 1));
        assert_eq!(march.mismatches, 1, "a stuck-at-0 cell cannot read 1");
        assert!(march.failing_cells.contains(&27));
        assert_eq!(march.fail_log[0].element, 1);
        assert!(!march.fail_log[0].got);
        assert!(march.busy_time.get() > 0.0);
    }
}
